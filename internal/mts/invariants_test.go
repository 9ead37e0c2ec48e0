package mts

import (
	"math"
	"math/rand"
	"testing"
)

// TestRandomOperationInvariants drives the reorganizer with a random
// interleaving of adds, removes, and service queries, checking the
// structural invariants after every operation:
//
//   - the current state always exists in S;
//   - counters never exceed alpha by more than one query's cost;
//   - active states always have counters strictly below alpha;
//   - |S| matches the add/remove ledger;
//   - MaxSpace never decreases and always bounds |S|.
func TestRandomOperationInvariants(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := New(Config{Alpha: 4, Gamma: float64(seed % 3)}, rand.New(rand.NewSource(seed+100)))

		ledger := make(map[StateID]bool)
		nextID := StateID(0)
		addState := func() {
			r.AddState(nextID)
			ledger[nextID] = true
			nextID++
		}
		addState()
		r.SetInitial(0)

		for op := 0; op < 3000; op++ {
			switch {
			case rng.Float64() < 0.02:
				addState()
			case rng.Float64() < 0.02 && len(ledger) > 1:
				// Remove a random state (possibly the current one).
				var victim StateID
				k := rng.Intn(len(ledger))
				for id := range ledger {
					if k == 0 {
						victim = id
						break
					}
					k--
				}
				r.RemoveState(victim)
				delete(ledger, victim)
			default:
				r.Observe(func(StateID) float64 { return rng.Float64() })
			}

			if len(ledger) == 0 {
				t.Fatalf("seed %d: ledger drained; test harness bug", seed)
			}
			if _, in := r.states[r.Current()]; !in && !r.pending[r.Current()] {
				t.Fatalf("seed %d op %d: current state %d not in S", seed, op, r.Current())
			}
			if got := r.NumStates(); got != len(ledger) {
				t.Fatalf("seed %d op %d: |S| = %d, ledger says %d", seed, op, got, len(ledger))
			}
			if r.MaxSpace() < r.NumStates() {
				t.Fatalf("seed %d op %d: MaxSpace %d < |S| %d", seed, op, r.MaxSpace(), r.NumStates())
			}
			for id := range ledger {
				c := r.counter[id]
				if math.IsNaN(c) || c < 0 || c > 4+1 {
					t.Fatalf("seed %d op %d: counter(%d) = %g out of range", seed, op, id, c)
				}
			}
		}
	}
}

// TestGammaBiasDistribution verifies Theorem IV.2's mechanism directly
// on pickNext: with predictor weights favouring one state, the biased
// distribution must select it far more often than uniform, and larger
// gamma must sharpen the bias.
func TestGammaBiasDistribution(t *testing.T) {
	freq := func(gamma float64, seed int64) float64 {
		r := New(Config{Alpha: 4, Gamma: gamma}, rand.New(rand.NewSource(seed)))
		for s := 0; s < 4; s++ {
			r.AddState(StateID(s))
			r.states[StateID(s)] = true
		}
		// Weights as if state 3 skipped 90% last phase, others 30%.
		r.weight = map[StateID]float64{0: 0.3, 1: 0.3, 2: 0.3, 3: 0.9}
		hits := 0
		const trials = 4000
		for i := 0; i < trials; i++ {
			if r.pickNext() == 3 {
				hits++
			}
		}
		return float64(hits) / trials
	}

	uniform := freq(0, 1)
	g1 := freq(1, 2)
	g3 := freq(3, 3)
	if uniform < 0.2 || uniform > 0.3 {
		t.Errorf("gamma=0 frequency %.3f, want ~0.25", uniform)
	}
	// gamma=1: 0.9/(0.9+3*0.3) = 0.5.
	if g1 < 0.45 || g1 > 0.55 {
		t.Errorf("gamma=1 frequency %.3f, want ~0.50", g1)
	}
	// gamma=3: 0.729/(0.729+3*0.027) ≈ 0.90.
	if g3 < 0.85 || g3 > 0.95 {
		t.Errorf("gamma=3 frequency %.3f, want ~0.90", g3)
	}
	if !(uniform < g1 && g1 < g3) {
		t.Errorf("bias not monotone in gamma: %.3f, %.3f, %.3f", uniform, g1, g3)
	}
}

// TestPredictorUnseenStateGetsMedian checks the paper's rule for states
// with no phase history: they receive the median incumbent weight, so
// a brand-new state is neither favoured nor starved.
func TestPredictorUnseenStateGetsMedian(t *testing.T) {
	r := New(Config{Alpha: 4, Gamma: 1}, rand.New(rand.NewSource(4)))
	for s := 0; s < 3; s++ {
		r.AddState(StateID(s))
		r.states[StateID(s)] = true
	}
	// States 0,1 have weights; state 2 is unseen.
	r.weight = map[StateID]float64{0: 0.2, 1: 0.8}
	hits := 0
	const trials = 6000
	for i := 0; i < trials; i++ {
		if r.pickNext() == 2 {
			hits++
		}
	}
	// Median weight = 0.5; expected share 0.5/(0.2+0.8+0.5) = 1/3.
	got := float64(hits) / trials
	if got < 0.28 || got > 0.39 {
		t.Errorf("unseen state picked %.3f of the time, want ~0.33", got)
	}
}

// Phase lengths are bounded below: a phase cannot end before the best
// state has accumulated alpha cost, so with per-query costs <= 1 every
// phase lasts at least ceil(alpha) queries.
func TestPhaseLengthLowerBound(t *testing.T) {
	alpha := 7.0
	r := New(Config{Alpha: alpha}, rand.New(rand.NewSource(1)))
	for s := 0; s < 3; s++ {
		r.AddState(StateID(s))
	}
	r.SetInitial(0)
	rng := rand.New(rand.NewSource(2))
	// First Observe performs Algorithm 1's initialization (phase 1).
	r.Observe(func(StateID) float64 { return 0 })
	lastReset := 0
	phases := r.Phases()
	for q := 1; q <= 5000; q++ {
		r.Observe(func(StateID) float64 { return rng.Float64() })
		if r.Phases() != phases {
			if length := q - lastReset; length < int(alpha) {
				t.Fatalf("phase of length %d < alpha %g", length, alpha)
			}
			lastReset = q
			phases = r.Phases()
		}
	}
	if phases < 2 {
		t.Fatal("no phase ever completed; test not exercising resets")
	}
}
