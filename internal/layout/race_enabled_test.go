//go:build race

package layout

// raceEnabled reports whether the race detector is compiled in. The
// allocation guard self-skips under -race, where sync.Pool drops items
// at random.
const raceEnabled = true
