//go:build race

package testsupport

// RaceEnabled reports whether the race detector instruments this build
// (see race_off.go).
const RaceEnabled = true
