package mts

import (
	"math"
	"math/rand"
	"testing"
)

func newTest(alpha, gamma float64, seed int64) *Reorganizer {
	return New(Config{Alpha: alpha, Gamma: gamma}, rand.New(rand.NewSource(seed)))
}

func constCost(m map[StateID]float64) func(StateID) float64 {
	return func(id StateID) float64 { return m[id] }
}

func TestNewValidation(t *testing.T) {
	for _, alpha := range []float64{0, 1, -5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("alpha=%g accepted", alpha)
				}
			}()
			newTest(alpha, 0, 1)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative gamma accepted")
			}
		}()
		New(Config{Alpha: 2, Gamma: -1}, rand.New(rand.NewSource(1)))
	}()
}

func TestObserveEmptySpacePanics(t *testing.T) {
	r := newTest(5, 0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Observe with empty space did not panic")
		}
	}()
	r.Observe(func(StateID) float64 { return 0 })
}

func TestStaysWhileUnderAlpha(t *testing.T) {
	r := newTest(10, 0, 1)
	r.AddState(0)
	r.AddState(1)
	r.SetInitial(0)
	// State 0 costs 1 per query: saturates after 10 queries.
	costs := constCost(map[StateID]float64{0: 1, 1: 0})
	for i := 0; i < 9; i++ {
		switched, cur := r.Observe(costs)
		if switched || cur != 0 {
			t.Fatalf("query %d: switched=%v cur=%d before saturation", i, switched, cur)
		}
	}
	switched, cur := r.Observe(costs) // counter hits 10 = alpha
	if !switched || cur != 1 {
		t.Fatalf("saturation: switched=%v cur=%d, want true,1", switched, cur)
	}
	if r.switches != 1 {
		t.Errorf("Switches = %d", r.switches)
	}
}

func TestCounterAccumulation(t *testing.T) {
	r := newTest(100, 0, 1)
	r.AddState(0)
	r.AddState(1)
	r.SetInitial(0)
	costs := constCost(map[StateID]float64{0: 0.5, 1: 0.25})
	for i := 0; i < 4; i++ {
		r.Observe(costs)
	}
	if got := r.counter[0]; got != 2 {
		t.Errorf("counter(0) = %g, want 2", got)
	}
	if got := r.counter[1]; got != 1 {
		t.Errorf("counter(1) = %g, want 1", got)
	}
}

func TestPhaseResetStaysInPlace(t *testing.T) {
	r := newTest(5, 0, 3)
	r.AddState(0)
	r.AddState(1)
	r.SetInitial(0)
	// Both states cost 1: both saturate together after 5 queries, which
	// ends the phase. The stay-in-place optimization keeps state 0.
	costs := constCost(map[StateID]float64{0: 1, 1: 1})
	for i := 0; i < 5; i++ {
		switched, cur := r.Observe(costs)
		if switched {
			t.Fatalf("query %d: spurious switch", i)
		}
		if cur != 0 {
			t.Fatalf("query %d: current = %d", i, cur)
		}
	}
	if r.Phases() != 2 {
		t.Errorf("Phases = %d, want 2 (one reset)", r.Phases())
	}
	if r.switches != 0 {
		t.Errorf("Switches = %d, want 0 (stay-in-place)", r.switches)
	}
	if got := r.counter[0]; got != 0 {
		t.Errorf("counter not reset: %g", got)
	}
}

func TestCostOutOfRangePanics(t *testing.T) {
	r := newTest(5, 0, 1)
	r.AddState(0)
	r.SetInitial(0)
	for _, bad := range []float64{-0.1, 1.5, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("cost %v accepted", bad)
				}
			}()
			r2 := newTest(5, 0, 1)
			r2.AddState(0)
			r2.SetInitial(0)
			r2.Observe(func(StateID) float64 { return bad })
		}()
	}
}

func TestAddStateDeferredToNextPhase(t *testing.T) {
	r := newTest(4, 0, 5)
	r.AddState(0)
	r.SetInitial(0)
	costs := map[StateID]float64{0: 1, 1: 0}
	r.Observe(constCost(costs)) // phase running
	r.AddState(1)               // mid-phase: deferred
	if r.NumActive() != 1 {
		t.Fatalf("pending state already active: NumActive = %d", r.NumActive())
	}
	if !r.pending[1] {
		t.Fatal("pending state not tracked in S")
	}
	// Saturate state 0: with no other active state, the phase resets and
	// the pending state joins.
	for i := 0; i < 3; i++ {
		r.Observe(constCost(costs))
	}
	if r.NumActive() != 2 {
		t.Errorf("after reset NumActive = %d, want 2", r.NumActive())
	}
}

func TestAddStateBeforeStartImmediatelyActive(t *testing.T) {
	r := newTest(4, 0, 6)
	r.AddState(0)
	r.AddState(1)
	if r.NumStates() != 2 {
		t.Fatalf("NumStates = %d", r.NumStates())
	}
	r.SetInitial(1)
	_, cur := r.Observe(func(StateID) float64 { return 0 })
	if cur != 1 {
		t.Errorf("current = %d, want 1", cur)
	}
	if r.NumActive() != 2 {
		t.Errorf("NumActive = %d, want 2", r.NumActive())
	}
}

func TestAddStateDuplicateNoop(t *testing.T) {
	r := newTest(4, 0, 7)
	r.AddState(0)
	r.AddState(0)
	if r.NumStates() != 1 {
		t.Errorf("duplicate add changed |S| to %d", r.NumStates())
	}
}

func TestRemoveStateMarksSaturated(t *testing.T) {
	r := newTest(10, 0, 8)
	r.AddState(0)
	r.AddState(1)
	r.AddState(2)
	r.SetInitial(0)
	r.Observe(func(StateID) float64 { return 0.1 })
	switched := r.RemoveState(1)
	if switched {
		t.Fatal("removing a non-current state reported a switch")
	}
	if _, in := r.states[1]; in || r.pending[1] {
		t.Fatal("removed state still in S")
	}
	if r.NumActive() != 2 {
		t.Errorf("NumActive = %d, want 2", r.NumActive())
	}
}

func TestRemoveCurrentStateJumps(t *testing.T) {
	r := newTest(10, 0, 9)
	r.AddState(0)
	r.AddState(1)
	r.SetInitial(0)
	r.Observe(func(StateID) float64 { return 0.1 })
	switched := r.RemoveState(0)
	if !switched {
		t.Fatal("removing the current state must force a jump")
	}
	if r.Current() != 1 {
		t.Errorf("current = %d, want 1", r.Current())
	}
	if r.switches != 1 {
		t.Errorf("Switches = %d", r.switches)
	}
}

func TestRemoveLastActiveResetsPhase(t *testing.T) {
	r := newTest(10, 0, 10)
	r.AddState(0)
	r.AddState(1)
	r.SetInitial(0)
	costs := constCost(map[StateID]float64{0: 1, 1: 0.05})
	// Saturate state 0 (10 queries), so it jumps to 1.
	for i := 0; i < 10; i++ {
		r.Observe(costs)
	}
	if r.Current() != 1 {
		t.Fatalf("setup: current = %d", r.Current())
	}
	phases := r.Phases()
	// Removing state 1 (current, and the only unsaturated state) must
	// reset the phase and jump back to state 0.
	switched := r.RemoveState(1)
	if !switched {
		t.Fatal("no switch on removing current")
	}
	if r.Current() != 0 {
		t.Errorf("current = %d, want 0", r.Current())
	}
	if r.Phases() != phases+1 {
		t.Errorf("phase not reset: %d -> %d", phases, r.Phases())
	}
}

func TestRemovePendingState(t *testing.T) {
	r := newTest(4, 0, 11)
	r.AddState(0)
	r.SetInitial(0)
	r.Observe(func(StateID) float64 { return 0 })
	r.AddState(5) // pending
	if switched := r.RemoveState(5); switched {
		t.Fatal("removing a pending state reported a switch")
	}
	if _, in := r.states[5]; in || r.pending[5] {
		t.Fatal("pending state survived removal")
	}
}

func TestRemoveUnknownStateNoop(t *testing.T) {
	r := newTest(4, 0, 12)
	r.AddState(0)
	if r.RemoveState(99) {
		t.Fatal("removing unknown state reported a switch")
	}
}

func TestMaxSpaceTracksPeak(t *testing.T) {
	r := newTest(4, 0, 13)
	r.AddState(0)
	r.AddState(1)
	r.AddState(2)
	r.RemoveState(2)
	if r.MaxSpace() != 3 {
		t.Errorf("MaxSpace = %d, want 3", r.MaxSpace())
	}
	if r.NumStates() != 2 {
		t.Errorf("NumStates = %d, want 2", r.NumStates())
	}
}

func TestHarmonic(t *testing.T) {
	if got := Harmonic(1); got != 1 {
		t.Errorf("H(1) = %g", got)
	}
	if got := Harmonic(3); math.Abs(got-(1+0.5+1.0/3)) > 1e-12 {
		t.Errorf("H(3) = %g", got)
	}
	if got := Harmonic(0); got != 0 {
		t.Errorf("H(0) = %g", got)
	}
}

func TestCompetitiveBoundReporting(t *testing.T) {
	r := newTest(4, 0, 14)
	for i := 0; i < 8; i++ {
		r.AddState(StateID(i))
	}
	want := 2 * Harmonic(8)
	if got := r.CompetitiveBound(); math.Abs(got-want) > 1e-12 {
		t.Errorf("CompetitiveBound = %g, want %g", got, want)
	}
}

func TestSetInitialValidation(t *testing.T) {
	r := newTest(4, 0, 15)
	r.AddState(0)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SetInitial of unknown state accepted")
			}
		}()
		r.SetInitial(7)
	}()
	r.SetInitial(0)
	r.Observe(func(StateID) float64 { return 0 })
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SetInitial after start accepted")
			}
		}()
		r.SetInitial(0)
	}()
}

func TestMedian(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %g", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
}

// Switching always targets an unsaturated state: after any Observe, the
// current state's counter is below alpha unless the phase just ended.
func TestSwitchTargetsUnsaturated(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	r := newTest(3, 0, 17)
	for i := 0; i < 5; i++ {
		r.AddState(StateID(i))
	}
	r.SetInitial(0)
	for step := 0; step < 2000; step++ {
		r.Observe(func(id StateID) float64 { return rng.Float64() })
		if c := r.counter[r.Current()]; c >= 3 && r.NumActive() > 0 {
			t.Fatalf("step %d: sitting in saturated state (counter %g) with active states available", step, c)
		}
	}
}
