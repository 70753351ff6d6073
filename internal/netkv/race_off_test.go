//go:build !race

package netkv

// raceEnabled reports whether the race detector instruments this build;
// under it sync.Pool drops puts, so pool-backed paths allocate.
const raceEnabled = false
