//go:build !race

package driver

// raceEnabled reports whether the race detector is on; the allocation pins
// skip under it (it instruments every allocation site, so AllocsPerRun
// would count the instrumentation).
const raceEnabled = false
