package mts

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// counters is the D-UMTS counter machinery, written once and embedded
// by both decision makers: Reorganizer (one resident layout) and
// MultiCopy (up to B). It owns the state space and its phases — which
// states exist, which are active (counter below α), which wait for the
// next phase — and the one uniform draw over the active set. What a
// decision maker does when its served state saturates is its own.
type counters struct {
	alpha float64
	rng   *rand.Rand

	// states is the full state space S; value is true while the state is
	// active (member of SA, counter below alpha).
	states map[StateID]bool
	// counter is C(s) for s in S (present for active and saturated).
	counter map[StateID]float64
	// pending are states added mid-phase, deferred to the next phase.
	pending map[StateID]bool
	started bool

	// phaseCost accumulates this phase's service cost per state over
	// phaseQueries queries — the Reorganizer's predictor input.
	phaseCost    map[StateID]float64
	phaseQueries int

	phases   int
	maxSpace int // |Smax|: largest state space seen (for bound reporting)
}

// newCounters validates α and returns an empty state space.
func newCounters(alpha float64, rng *rand.Rand) counters {
	if alpha <= 1 {
		panic(fmt.Sprintf("mts: Alpha must be > 1, got %g", alpha))
	}
	return counters{
		alpha:     alpha,
		rng:       rng,
		states:    make(map[StateID]bool),
		counter:   make(map[StateID]float64),
		pending:   make(map[StateID]bool),
		phaseCost: make(map[StateID]float64),
	}
}

// AddState introduces a state into the state space S. Before processing
// starts, the state joins the active set immediately; mid-stream it is
// deferred to the start of the next phase, exactly as Algorithm 4
// prescribes. Adding an existing state is a no-op.
func (c *counters) AddState(id StateID) {
	if _, ok := c.states[id]; ok || c.pending[id] {
		return
	}
	if !c.started {
		c.states[id] = true
		c.counter[id] = 0
	} else {
		c.pending[id] = true
	}
	c.trackSpace()
}

// start begins processing on the first query (Algorithm 1's
// initialization) and reports whether this call began it.
func (c *counters) start() bool {
	if c.started {
		return false
	}
	if len(c.states) == 0 {
		panic("mts: Observe with empty state space")
	}
	c.started = true
	c.phases = 1
	return true
}

// charge adds one query's service cost to every active state's counter
// and drops the states that reach α out of the active set (Algorithm 3
// line 1). cost must return c(s, q) in [0, 1].
func (c *counters) charge(cost func(StateID) float64) {
	for id, active := range c.states {
		if !active {
			continue
		}
		v := cost(id)
		if v < 0 || v > 1 || math.IsNaN(v) {
			//oreovet:ignore maporder panic formats the one violating cost; any violating member aborts the run identically
			panic(fmt.Sprintf("mts: service cost %g for state %d outside [0,1]", v, id))
		}
		c.counter[id] += v
		c.phaseCost[id] += v
		if c.counter[id] >= c.alpha {
			c.states[id] = false // saturated: drops out of SA
		}
	}
	c.phaseQueries++
}

// resetPhase implements ResetStates for the dynamic setting: pending
// additions join S and every state becomes active with a zero counter.
func (c *counters) resetPhase() {
	for id := range c.pending {
		c.states[id] = true
		delete(c.pending, id)
	}
	for id := range c.states {
		c.states[id] = true
		c.counter[id] = 0
	}
	c.phaseCost = make(map[StateID]float64, len(c.states))
	c.phaseQueries = 0
	c.phases++
	c.trackSpace()
}

// pickUniform draws one active state uniformly: one rng.Intn over the
// active set in sorted order.
func (c *counters) pickUniform() StateID {
	ids := c.activeIDs()
	if len(ids) == 0 {
		panic("mts: pickUniform with empty active set")
	}
	return ids[c.rng.Intn(len(ids))]
}

// activeIDs returns the active states in sorted order, so that random
// selection consumes rng deterministically across map iteration orders.
func (c *counters) activeIDs() []StateID {
	ids := make([]StateID, 0, len(c.states))
	for id, active := range c.states {
		if active {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func (c *counters) trackSpace() {
	if n := c.NumStates(); n > c.maxSpace {
		c.maxSpace = n
	}
}

// Has reports whether the state is in the state space (active,
// saturated, or pending).
func (c *counters) Has(id StateID) bool {
	if _, ok := c.states[id]; ok {
		return true
	}
	return c.pending[id]
}

// NumStates returns |S| including pending additions.
func (c *counters) NumStates() int { return len(c.states) + len(c.pending) }

// NumActive returns |SA|.
func (c *counters) NumActive() int {
	n := 0
	for _, active := range c.states {
		if active {
			n++
		}
	}
	return n
}

// Counter returns C(s) for diagnostics and tests.
func (c *counters) Counter(id StateID) float64 { return c.counter[id] }

// Phases returns the number of phases started so far.
func (c *counters) Phases() int { return c.phases }

// MaxSpace returns |Smax|, the largest state-space size observed, which
// governs the 2(1+log|Smax|) competitive bound of Theorem IV.1.
func (c *counters) MaxSpace() int { return c.maxSpace }
