// Package sampling provides the workload-sampling strategies the layout
// manager chooses between: a sliding window of recent queries (the
// paper's default and empirically best candidate source) and a
// reservoir-based time-biased sample (R-TBS, Hentschel/Haas/Tian 2019)
// used both as an alternative candidate source and as the query sample
// that layout-similarity is measured on (Algorithm 5).
package sampling

import "oreo/internal/query"

// SlidingWindow keeps the most recent Capacity queries in arrival order.
// The zero value is unusable; construct with NewSlidingWindow.
type SlidingWindow struct {
	buf   []query.Query
	head  int // index of the oldest element
	count int
}

// NewSlidingWindow returns a window holding up to capacity queries.
func NewSlidingWindow(capacity int) *SlidingWindow {
	if capacity <= 0 {
		panic("sampling: sliding window capacity must be positive")
	}
	return &SlidingWindow{buf: make([]query.Query, capacity)}
}

// Add appends a query, evicting the oldest when full.
func (w *SlidingWindow) Add(q query.Query) {
	if w.count < len(w.buf) {
		w.buf[(w.head+w.count)%len(w.buf)] = q
		w.count++
	} else {
		w.buf[w.head] = q
		w.head = (w.head + 1) % len(w.buf)
	}
}

// Len returns the number of queries currently held.
func (w *SlidingWindow) Len() int { return w.count }

// Queries returns the window contents oldest-first as a fresh slice.
func (w *SlidingWindow) Queries() []query.Query {
	out := make([]query.Query, w.count)
	for i := 0; i < w.count; i++ {
		out[i] = w.buf[(w.head+i)%len(w.buf)]
	}
	return out
}
