// Package mts implements the paper's core theoretical contribution: a
// metrical-task-system reorganizer for D-UMTS, the dynamic variant of
// uniform metrical task systems in which states (data layouts) may be
// added and removed while the query stream is being processed.
//
// The algorithm extends Borodin–Linial–Saks (JACM 1992): each state
// carries a counter that accumulates its would-have-been service cost;
// a state "saturates" when its counter reaches α (the uniform movement
// cost); when the current state saturates the system jumps to a random
// unsaturated state; when every state is saturated, a new *phase* begins
// with all counters reset. Theorem IV.1 of the paper shows the dynamic
// extension below is 2·H(|Smax|)-competitive, which is asymptotically
// optimal.
//
// Two paper refinements are included:
//
//   - stay-in-place: a new phase keeps the current state instead of
//     forcing a random move (saves the initial transition cost without
//     changing the asymptotic ratio);
//   - predictor-biased transitions (Theorem IV.2): jumps select a state
//     with probability proportional to w(s)^γ, where w(s) is the average
//     fraction of data the state skipped in the previous phase; γ = 0
//     recovers the classic uniform choice.
//
// The counter machinery — state space, counters that saturate at α,
// phases with deferred additions, |Smax| and the uniform draw — exists
// once, as the unexported counters type (counters.go). Reorganizer
// embeds it and adds the current state, the predictor and the switch
// rule; MultiCopy, the Appendix D storage-budget ablation, embeds the
// same counters and adds a resident set, eviction and cheapest-resident
// serving.
package mts

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// StateID identifies a state (data layout) in the D-UMTS state space.
// IDs are assigned by the caller and never reused.
type StateID int

// Config parameterizes the reorganizer.
type Config struct {
	// Alpha is the uniform movement (reorganization) cost, expressed in
	// the same unit as per-query service costs (which are in [0,1]).
	// Must be > 1, as in the paper's formulation.
	Alpha float64
	// Gamma biases transitions toward states that performed well in the
	// previous phase: probability ∝ w^Gamma. Zero selects uniformly.
	Gamma float64
	// DisableStayInPlace reverts to the original BLS behaviour of
	// jumping to a random state at every phase start. The paper's
	// empirical optimization (§IV-A) keeps the current state instead;
	// this flag exists for the ablation.
	DisableStayInPlace bool
}

// Reorganizer is the D-UMTS decision maker. It is not safe for
// concurrent use. All randomness comes from the rng passed at
// construction, so runs are reproducible.
type Reorganizer struct {
	counters
	cfg Config

	current     StateID
	haveCurrent bool

	// weight holds last phase's average skipped fraction per state, the
	// predictor's bias (refreshed from counters.phaseCost).
	weight map[StateID]float64

	switches int
}

// New returns a reorganizer. It panics if cfg.Alpha <= 1, because the
// competitive analysis (and the phase structure itself) requires the
// movement cost to exceed any single query's service cost.
func New(cfg Config, rng *rand.Rand) *Reorganizer {
	c := newCounters(cfg.Alpha, rng)
	if cfg.Gamma < 0 {
		panic(fmt.Sprintf("mts: Gamma must be >= 0, got %g", cfg.Gamma))
	}
	return &Reorganizer{counters: c, cfg: cfg, weight: make(map[StateID]float64)}
}

// RemoveState deletes a state from the state space. Its counter is set
// to α (it can no longer be switched to this phase); if that saturates
// the whole active set, a new phase starts with the updated state set;
// if the current state was removed, the system jumps to a random
// available state. The returned flag reports whether the current state
// changed (which costs a reorganization).
func (r *Reorganizer) RemoveState(id StateID) (switched bool) {
	if r.pending[id] {
		delete(r.pending, id)
		return false
	}
	if _, ok := r.states[id]; !ok {
		return false
	}
	delete(r.states, id)
	delete(r.counter, id)
	delete(r.phaseCost, id)
	delete(r.weight, id)

	if !r.started {
		if r.haveCurrent && r.current == id {
			r.haveCurrent = false
		}
		return false
	}

	if r.NumActive() == 0 {
		r.nextPhase()
	}
	if r.haveCurrent && r.current == id {
		r.current = r.pickNext()
		r.switches++
		return true
	}
	return false
}

// SetInitial pins the starting state. It must be called before the
// first Observe; otherwise the initial state is drawn uniformly from
// the active set (Algorithm 1 line 2).
func (r *Reorganizer) SetInitial(id StateID) {
	if r.started {
		panic("mts: SetInitial after processing started")
	}
	if _, ok := r.states[id]; !ok {
		panic(fmt.Sprintf("mts: SetInitial of unknown state %d", id))
	}
	r.current = id
	r.haveCurrent = true
}

// Observe processes one service query. cost must return c(s, q) in
// [0, 1] for any state in the space. It returns whether the system
// switched states (incurring one reorganization of cost α) and the
// state the query should be served in.
func (r *Reorganizer) Observe(cost func(StateID) float64) (switched bool, serveIn StateID) {
	if r.start() && !r.haveCurrent {
		r.current = r.pickUniform()
		r.haveCurrent = true
	}
	r.charge(cost)

	// If the current state saturated, move (Algorithm 3 lines 3-6).
	if r.haveCurrent && !r.states[r.current] {
		if r.NumActive() == 0 {
			// All counters full: new phase. By default the stay-in-place
			// optimization keeps the current state; the original BLS
			// algorithm instead transitions to a random state.
			r.nextPhase()
			if r.cfg.DisableStayInPlace {
				prev := r.current
				r.current = r.pickNext()
				if r.current != prev {
					r.switches++
					return true, r.current
				}
			}
			return false, r.current
		}
		r.current = r.pickNext()
		r.switches++
		return true, r.current
	}
	return false, r.current
}

// nextPhase starts a new phase (counters.resetPhase), first refreshing
// the predictor weights from the finished phase's costs.
func (r *Reorganizer) nextPhase() {
	// w(s) = avg fraction skipped last phase.
	if r.phaseQueries > 0 {
		fresh := make(map[StateID]float64, len(r.states))
		var known []float64
		for id := range r.states {
			if c, ok := r.phaseCost[id]; ok {
				w := 1 - c/float64(r.phaseQueries)
				if w < 1e-6 {
					w = 1e-6
				}
				fresh[id] = w
				//oreovet:ignore maporder median() sorts a copy of this slice; collection order cannot reach any output
				known = append(known, w)
			}
		}
		med := median(known)
		for id := range r.pending {
			fresh[id] = med
		}
		r.weight = fresh
	}
	r.resetPhase()
}

// pickNext draws the next state from the active set using the
// γ-biased predictor distribution (uniform when γ = 0 or no weights).
func (r *Reorganizer) pickNext() StateID {
	//oreovet:ignore floatbits zero-value config sentinel; Gamma is caller-set, exact
	if r.cfg.Gamma == 0 {
		return r.pickUniform()
	}
	ids := r.activeIDs()
	if len(ids) == 0 {
		panic("mts: pickNext with empty active set")
	}
	med := median(r.knownWeights(ids))
	//oreovet:ignore floatbits weights are clamped to >= 1e-6, so 0 is an exact "no known weights" sentinel
	if med == 0 {
		med = 0.5
	}
	total := 0.0
	probs := make([]float64, len(ids))
	for i, id := range ids {
		w, ok := r.weight[id]
		if !ok {
			w = med // unseen state: median weight, per the paper
		}
		p := math.Pow(w, r.cfg.Gamma)
		probs[i] = p
		total += p
	}
	if total <= 0 {
		return ids[r.rng.Intn(len(ids))]
	}
	x := r.rng.Float64() * total
	for i, p := range probs {
		x -= p
		if x <= 0 {
			return ids[i]
		}
	}
	return ids[len(ids)-1]
}

func (r *Reorganizer) knownWeights(ids []StateID) []float64 {
	var ws []float64
	for _, id := range ids {
		if w, ok := r.weight[id]; ok {
			ws = append(ws, w)
		}
	}
	return ws
}

// median of a float slice; 0 for empty input.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// Current returns the current state. Valid once processing started or
// SetInitial was called.
func (r *Reorganizer) Current() StateID { return r.current }

// Switches returns the number of state transitions made so far.
func (r *Reorganizer) Switches() int { return r.switches }

// CompetitiveBound returns the worst-case guarantee 2·H(|Smax|) from
// Theorem IV.1 for the state space seen so far.
func (r *Reorganizer) CompetitiveBound() float64 {
	return 2 * Harmonic(r.maxSpace)
}

// Harmonic returns the n-th harmonic number H(n).
func Harmonic(n int) float64 {
	h := 0.0
	for i := 1; i <= n; i++ {
		h += 1 / float64(i)
	}
	return h
}
