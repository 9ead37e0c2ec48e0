//go:build race

package wire

// raceEnabled reports whether the race detector is compiled in; the
// allocation pins skip under -race, which allocates on its own.
const raceEnabled = true
