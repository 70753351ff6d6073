// Package testsupport holds helpers the test suites of several packages
// share: exact allocation counting and the race-detector flag that the
// allocation and heap gates depend on.
package testsupport

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
)

// Mallocs runs f runs times to warm up, then runs times more, and returns
// the exact number of heap allocations the whole process made during the
// second pass (goroutines f talks to included). testing.AllocsPerRun
// rounds its per-run mean down to an integer, which hides up to runs-1
// allocations; this count does not round. Like AllocsPerRun it runs on
// one P. Collecting garbage first keeps a cycle's clean-up out of the
// count, and returning the freed memory to the OS (debug.FreeOSMemory)
// leaves the background scavenger no work, so it parks instead of
// re-arming its timer inside the window: that can grow the P's timer
// heap, a 32-byte allocation from runtime.bgscavenge. The full warm-up
// pass on that P lets every kept buffer and pooled scratch reach its size
// and fills the P's cache of the records a blocked goroutine parks on,
// which the runtime otherwise allocates afresh now and then as goroutines
// block on other Ps.
//
// window describes the counted pass for the caller's message: how many
// collections completed inside it (a collection empties every sync.Pool,
// so a pooled path's count is only meaningful with it), the size classes
// whose allocation count grew, and, when allocs exceeds limit, every
// goroutine's stack. All of it is read after the pass, so building it
// allocates nothing inside the count.
func Mallocs(runs int, limit uint64, f func()) (allocs uint64, window string) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	debug.FreeOSMemory()
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	allocs = after.Mallocs - before.Mallocs

	var b strings.Builder
	fmt.Fprintf(&b, "%d GCs in the window; size classes:", after.NumGC-before.NumGC)
	inClasses := uint64(0)
	for i := range after.BySize {
		if d := after.BySize[i].Mallocs - before.BySize[i].Mallocs; d > 0 {
			fmt.Fprintf(&b, " %dB×%d", after.BySize[i].Size, d)
			inClasses += d
		}
	}
	if rest := allocs - inClasses; rest > 0 {
		fmt.Fprintf(&b, " tiny-or-large×%d", rest)
	} else if inClasses == 0 {
		b.WriteString(" none")
	}
	if allocs > limit {
		b.WriteString("; goroutines after the window:\n")
		pprof.Lookup("goroutine").WriteTo(&b, 1)
	}
	return allocs, b.String()
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
