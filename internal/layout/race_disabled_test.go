//go:build !race

package layout

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
