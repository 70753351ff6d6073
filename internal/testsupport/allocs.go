// Package testsupport holds helpers the test suites of several packages
// share: exact allocation counting and the race-detector flag that the
// allocation and heap gates depend on.
package testsupport

import "runtime"

// Mallocs runs f runs times to warm up, then runs times more, and returns
// the exact number of heap allocations the whole process made during the
// second pass (goroutines f talks to included). testing.AllocsPerRun
// rounds its per-run mean down to an integer, which hides up to runs-1
// allocations; this count does not round. Like AllocsPerRun it runs on
// one P. Collecting garbage first keeps a cycle's clean-up out of the
// count, and the full warm-up pass on that P lets every kept buffer and
// pooled scratch reach its size and fills the P's cache of the records a
// blocked goroutine parks on, which the runtime otherwise allocates
// afresh now and then as goroutines block on other Ps. gcs is how many
// collections completed inside the counted pass: a collection empties
// every sync.Pool, so a pooled path's count is only meaningful with it.
func Mallocs(runs int, f func()) (allocs uint64, gcs uint32) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	for i := 0; i < runs; i++ {
		f()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before, gcBefore := ms.Mallocs, ms.NumGC
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&ms)
	return ms.Mallocs - before, ms.NumGC - gcBefore
}

// PoolAllocs is how many allocations a path that takes its scratch from a
// sync.Pool may make over gets pool Gets: none in a normal build. Under
// the race detector sync.Pool drops one Put in four by design, so about
// gets/4 Gets find the pool empty and allocate a fresh scratch (one
// allocation each); half of them is the bound.
func PoolAllocs(gets int) uint64 {
	if RaceEnabled {
		return uint64(gets / 2)
	}
	return 0
}
