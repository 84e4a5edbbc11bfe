//go:build race

package transport

// raceEnabled reports whether the race detector is on; the pool-identity
// test skips under it (the detector makes sync.Pool drop items at random,
// so a recycled buffer is not reliably handed out again).
const raceEnabled = true
