package manager

import (
	"sort"

	"oreo/internal/layout"
	"oreo/internal/mts"
	"oreo/internal/prune"
	"oreo/internal/query"
)

// InitialState is the ID of the layout a Manager starts from. IDs are
// minted in ascending order and never reused, so it is always the first.
const InitialState mts.StateID = 0

// Verdict is the outcome of offering one candidate to the state space.
type Verdict int

const (
	Duplicate Verdict = iota // a state with the candidate's name already exists
	Rejected                 // the candidate is within ε of some incumbent
	Admitted                 // the candidate joined the space under a fresh ID
)

// Manager is the LAYOUT MANAGER: a candidate feed plus the dynamic
// state space it grows. It owns which layouts are states and under
// which IDs; its caller owns the decision maker and mirrors every
// admission and removal into it (AddState / RemoveState).
type Manager struct {
	feed      *Feed
	epsilon   float64
	maxStates int

	states map[mts.StateID]*layout.Layout
	nextID mts.StateID

	// sample is the reservoir compiled for the current observation. The
	// reservoir is stable between two Observe calls, so every admission
	// and pruning check of one period shares a single compilation.
	sample []*prune.CompiledQuery
}

// New returns a manager whose space holds only the initial layout, as
// InitialState. epsilon is the admission distance threshold; maxStates
// caps the space (0 = unbounded).
func New(feed *Feed, initial *layout.Layout, epsilon float64, maxStates int) *Manager {
	return &Manager{
		feed:      feed,
		epsilon:   epsilon,
		maxStates: maxStates,
		states:    map[mts.StateID]*layout.Layout{InitialState: initial},
		nextID:    InitialState + 1,
	}
}

// Observe feeds one query to the candidate feed and returns the
// candidates generated at this position; offer each one in turn.
func (m *Manager) Observe(q query.Query) []Candidate {
	m.sample = nil
	return m.feed.Observe(q)
}

// Offer runs one candidate through name de-duplication and the
// ε-admission rule against the states held right now — including any
// admitted earlier in the same observation. An admitted candidate's ID
// is returned; the caller adds it to its decision maker.
func (m *Manager) Offer(c *layout.Layout) (mts.StateID, Verdict) {
	incumbents := make([]*layout.Layout, 0, len(m.states))
	for _, l := range m.states {
		if l.Name == c.Name {
			return 0, Duplicate
		}
		//oreovet:ignore maporder admission asks whether any incumbent is within ε; the answer does not depend on the order they are visited in
		incumbents = append(incumbents, l)
	}
	if !AdmitCompiled(c, incumbents, m.compiledSample(c), m.epsilon) {
		return 0, Rejected
	}
	id := m.nextID
	m.nextID++
	m.states[id] = c
	return id, Admitted
}

// Prune shrinks an overflowing space: when more than MaxStates layouts
// are held it removes the most redundant one that is not current — the
// state whose cost vector on the reservoir is closest to another
// state's — and returns it. The caller removes the same ID from its
// decision maker.
func (m *Manager) Prune(current mts.StateID) (mts.StateID, *layout.Layout, bool) {
	if m.maxStates <= 0 || len(m.states) <= m.maxStates {
		return 0, nil, false
	}
	ids := make([]mts.StateID, 0, len(m.states))
	for id := range m.states {
		ids = append(ids, id)
	}
	// The victim among equally redundant states must not depend on map
	// iteration order.
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	layouts := make([]*layout.Layout, len(ids))
	for i, id := range ids {
		layouts[i] = m.states[id]
	}
	idx := mostRedundant(layouts, m.compiledSample(layouts[0]), func(i int) bool { return ids[i] == current })
	if idx < 0 {
		return 0, nil, false
	}
	delete(m.states, ids[idx])
	return ids[idx], layouts[idx], true
}

// compiledSample returns the reservoir bound to l's schema, compiling
// it on first use within an observation.
func (m *Manager) compiledSample(l *layout.Layout) []*prune.CompiledQuery {
	if m.sample == nil {
		m.sample = prune.CompileAll(l.Schema(), m.feed.ReservoirQueries())
	}
	return m.sample
}

// Layout returns the layout held under id, or nil.
func (m *Manager) Layout(id mts.StateID) *layout.Layout { return m.states[id] }

// Len returns the state-space size |S|.
func (m *Manager) Len() int { return len(m.states) }

// Epsilon returns the admission distance threshold.
func (m *Manager) Epsilon() float64 { return m.epsilon }

// MaxStates returns the cap on the space (0 = unbounded).
func (m *Manager) MaxStates() int { return m.maxStates }
