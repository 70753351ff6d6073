//go:build !race

package testsupport

// RaceEnabled reports whether the race detector instruments this build.
// Under it sync.Pool drops puts, so pool-backed paths allocate, and its
// shadow memory and per-allocation bookkeeping change the heap, so tests
// that measure heap bytes skip.
const RaceEnabled = false
