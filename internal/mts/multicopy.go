package mts

import (
	"fmt"
	"math/rand"
	"sort"
)

// MultiCopy implements the storage-budget variant the paper sketches in
// Appendix D: when there is budget to keep B materialized copies of the
// dataset under different layouts simultaneously, the system serves
// every query on the *cheapest resident copy*, and only pays the
// reorganization cost α when it materializes a layout that is not
// currently resident (evicting another copy to stay within budget).
//
// The decision rule is the single-copy algorithm's counter machinery —
// the embedded counters: state space, α-saturating counters, phases
// with deferred additions, the uniform draw — applied to the resident
// set: each state in S accumulates the cost it would have incurred, and
// the query is served on the cheapest resident copy. Once every
// resident copy has saturated, the algorithm materializes a uniformly
// drawn unsaturated (hence non-resident) state and evicts the resident
// copy with the fullest counter if at budget; when no state is left
// unsaturated a new phase starts in place. Config.Gamma does not apply.
// With B = 1 this is the single-copy algorithm at γ = 0, move for move.
type MultiCopy struct {
	counters
	budget   int
	resident map[StateID]bool

	materializedN int // reorganizations paid (non-resident materializations)
}

// NewMultiCopy returns a multi-copy decision maker with the given
// storage budget (number of simultaneously resident layouts, >= 1).
func NewMultiCopy(cfg Config, budget int, rng *rand.Rand) *MultiCopy {
	c := newCounters(cfg.Alpha, rng)
	if budget < 1 {
		panic(fmt.Sprintf("mts: budget must be >= 1, got %d", budget))
	}
	return &MultiCopy{counters: c, budget: budget, resident: make(map[StateID]bool)}
}

// MakeResident marks a state as initially materialized (before
// processing starts). It panics over budget or for unknown states.
func (m *MultiCopy) MakeResident(id StateID) {
	if m.started {
		panic("mts: MakeResident after processing started")
	}
	if _, ok := m.states[id]; !ok {
		panic(fmt.Sprintf("mts: MakeResident of unknown state %d", id))
	}
	if len(m.resident) >= m.budget {
		panic("mts: resident set exceeds budget")
	}
	m.resident[id] = true
}

// Observe processes one query. cost returns c(s, q) for any state. It
// reports which resident state served the query (the cheapest), and
// whether a new layout was materialized (one reorganization of cost α).
func (m *MultiCopy) Observe(cost func(StateID) float64) (serveIn StateID, materialized bool) {
	if m.start() && len(m.resident) == 0 {
		// Default: the smallest state ID starts resident.
		m.resident[m.activeIDs()[0]] = true
	}
	m.charge(cost)
	serveIn = m.bestResident(cost)

	// If every resident copy has saturated, bring in an unsaturated
	// state — necessarily a non-resident one (phase bookkeeping mirrors
	// the single-copy algorithm).
	if !m.anyResidentActive() {
		if m.NumActive() == 0 {
			m.resetPhase()
			return serveIn, false // stay-in-place across the phase edge
		}
		target := m.pickUniform()
		m.evictIfNeeded()
		m.resident[target] = true
		m.materializedN++
		return m.bestResident(cost), true
	}
	return serveIn, false
}

// bestResident returns the resident state with the lowest current cost.
func (m *MultiCopy) bestResident(cost func(StateID) float64) StateID {
	best := StateID(-1)
	bestCost := 0.0
	for _, id := range m.sortedResidentIDs() {
		c := cost(id)
		if best == -1 || c < bestCost {
			best, bestCost = id, c
		}
	}
	return best
}

func (m *MultiCopy) anyResidentActive() bool {
	for id := range m.resident {
		if m.states[id] {
			return true
		}
	}
	return false
}

// evictIfNeeded drops the resident copy with the fullest counter when
// the budget is exhausted.
func (m *MultiCopy) evictIfNeeded() {
	if len(m.resident) < m.budget {
		return
	}
	victim := StateID(-1)
	worst := -1.0
	for _, id := range m.sortedResidentIDs() {
		if c := m.counter[id]; c > worst {
			victim, worst = id, c
		}
	}
	delete(m.resident, victim)
}

func (m *MultiCopy) sortedResidentIDs() []StateID {
	ids := make([]StateID, 0, len(m.resident))
	for id := range m.resident {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
