package core

import "runtime"

// mallocs runs f once to warm up, then runs more times, and returns the
// exact number of heap allocations those runs made. testing.AllocsPerRun
// divides by runs in integer arithmetic, so up to runs-1 allocations read
// as 0; this count does not round.
func mallocs(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&ms)
	return ms.Mallocs - before
}

// poolAllocs is how many allocations a path that takes its scratch from a
// sync.Pool may make over gets pool Gets. A normal build allows none.
// Under the race detector sync.Pool drops one Put in four by design, so
// about gets/4 Gets find the pool empty and allocate a fresh scratch (one
// allocation each); half of the Gets is the bound.
func poolAllocs(gets int) uint64 {
	if raceEnabled {
		return uint64(gets / 2)
	}
	return 0
}
