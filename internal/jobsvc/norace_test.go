//go:build !race

package jobsvc

// raceEnabled reports whether the race detector is on; the heap retention
// check skips under it.
const raceEnabled = false
