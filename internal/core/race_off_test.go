//go:build !race

package core

// raceEnabled reports whether the race detector instruments this build;
// its shadow memory and per-allocation bookkeeping change the heap, so
// tests that measure heap bytes skip under it.
const raceEnabled = false
