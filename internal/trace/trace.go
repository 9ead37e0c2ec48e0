// Package trace records the decision history of an OREO run: layout
// admissions and prunes, reorganizations, and MTS phase boundaries.
// Operators of a system that reorganizes itself need to answer "why did
// it rewrite the table at 3am" — the event log is that answer. Events
// carry the stream position and enough context to reconstruct the
// decision, and the Recorder is cheap enough to leave on (bounded ring
// buffer, no allocation beyond the event records).
package trace

import (
	"fmt"
	"io"
	"sync"
)

// Kind enumerates event types.
type Kind int

const (
	// EventAdmit: a candidate layout passed the ε-distance test and
	// joined the dynamic state space.
	EventAdmit Kind = iota
	// EventReject: a candidate was generated but was ε-similar to an
	// incumbent.
	EventReject
	// EventPrune: a state was removed to respect the state-space cap.
	EventPrune
	// EventSwitch: the reorganizer moved to a different layout.
	EventSwitch
	// EventPhase: all counters saturated; a new MTS phase began.
	EventPhase
)

// String returns the event kind's name.
func (k Kind) String() string {
	switch k {
	case EventAdmit:
		return "admit"
	case EventReject:
		return "reject"
	case EventPrune:
		return "prune"
	case EventSwitch:
		return "switch"
	case EventPhase:
		return "phase"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one recorded decision.
type Event struct {
	// Seq is the stream position (queries processed so far) when the
	// event fired.
	Seq int
	// Kind classifies the event.
	Kind Kind
	// Layout names the layout involved (admitted, pruned, switched to).
	Layout string
	// Detail is free-form context ("from=<layout>", "dist=0.03", ...).
	Detail string
}

// String renders the event as one log line.
func (e Event) String() string {
	if e.Detail == "" {
		return fmt.Sprintf("q%-8d %-7s %s", e.Seq, e.Kind, e.Layout)
	}
	return fmt.Sprintf("q%-8d %-7s %-40s %s", e.Seq, e.Kind, e.Layout, e.Detail)
}

// Recorder is a bounded ring buffer of events. The zero value discards
// everything; construct with NewRecorder. Safe for concurrent use: OREO
// decides on one goroutine per table, but an operator asks "why" from
// another while it does, so the recorder locks itself rather than ask
// every owner of an optimizer to.
type Recorder struct {
	mu    sync.Mutex
	buf   []Event
	head  int
	count int
	total int
	seq   int
}

// NewRecorder returns a recorder keeping the most recent capacity
// events.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		panic("trace: recorder capacity must be positive")
	}
	return &Recorder{buf: make([]Event, capacity)}
}

// SetSeq updates the stream position stamped on subsequent events.
func (r *Recorder) SetSeq(seq int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq = seq
}

// Record appends an event (nil receiver discards).
func (r *Recorder) Record(kind Kind, layout, detail string) {
	if r == nil || r.buf == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e := Event{Seq: r.seq, Kind: kind, Layout: layout, Detail: detail}
	if r.count < len(r.buf) {
		r.buf[(r.head+r.count)%len(r.buf)] = e
		r.count++
	} else {
		r.buf[r.head] = e
		r.head = (r.head + 1) % len(r.buf)
	}
	r.total++
}

// Events returns the retained events, oldest first.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, r.count)
	for i := 0; i < r.count; i++ {
		out[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	return out
}

// Total returns the lifetime number of events recorded (including
// evicted ones).
func (r *Recorder) Total() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// CountByKind tallies retained events per kind.
func (r *Recorder) CountByKind() map[Kind]int {
	out := make(map[Kind]int)
	for _, e := range r.Events() {
		out[e.Kind]++
	}
	return out
}

// Dump writes the retained events to w, one line each.
func (r *Recorder) Dump(w io.Writer) error {
	for _, e := range r.Events() {
		if _, err := fmt.Fprintln(w, e.String()); err != nil {
			return err
		}
	}
	return nil
}
