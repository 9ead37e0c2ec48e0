package mts

import (
	"math/rand"
	"testing"
)

func newMC(alpha float64, budget int, seed int64) *MultiCopy {
	return NewMultiCopy(Config{Alpha: alpha}, budget, rand.New(rand.NewSource(seed)))
}

func TestMultiCopyValidation(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("alpha <= 1 accepted")
			}
		}()
		newMC(1, 1, 1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("budget 0 accepted")
			}
		}()
		newMC(5, 0, 1)
	}()
}

func TestMultiCopyServesCheapestResident(t *testing.T) {
	m := newMC(100, 2, 1)
	m.AddState(0)
	m.AddState(1)
	m.MakeResident(0)
	m.MakeResident(1)
	costs := map[StateID]float64{0: 0.8, 1: 0.1}
	serveIn, materialized := m.Observe(constCost(costs))
	if serveIn != 1 {
		t.Errorf("served on %d, want the cheaper resident 1", serveIn)
	}
	if materialized {
		t.Error("materialized without need")
	}
}

func TestMultiCopyMaterializesWhenResidentsSaturate(t *testing.T) {
	m := newMC(5, 1, 2)
	m.AddState(0)
	m.AddState(1)
	m.MakeResident(0)
	// State 0 costs 1, state 1 costs 0: resident 0 saturates after 5.
	costs := map[StateID]float64{0: 1, 1: 0}
	var materializedAt = -1
	for i := 0; i < 10; i++ {
		_, mat := m.Observe(constCost(costs))
		if mat {
			materializedAt = i
			break
		}
	}
	if materializedAt != 4 {
		t.Errorf("materialized at query %d, want 4 (counter reaches alpha=5)", materializedAt)
	}
	if m.materializedN != 1 {
		t.Errorf("Materializations = %d", m.materializedN)
	}
	res := m.sortedResidentIDs()
	if len(res) != 1 || res[0] != 1 {
		t.Errorf("resident = %v, want [1] (budget 1 evicts state 0)", res)
	}
}

func TestMultiCopyBudgetTwoKeepsBoth(t *testing.T) {
	m := newMC(5, 2, 3)
	m.AddState(0)
	m.AddState(1)
	m.MakeResident(0)
	costs := map[StateID]float64{0: 1, 1: 0}
	for i := 0; i < 10; i++ {
		m.Observe(constCost(costs))
	}
	res := m.sortedResidentIDs()
	if len(res) != 2 {
		t.Errorf("resident = %v, want both copies under budget 2", res)
	}
}

func TestMultiCopyFreeSwitchToResident(t *testing.T) {
	// With both states resident, alternating cheap states must never
	// charge a materialization: switching between resident copies is
	// free — the core benefit of the Appendix D variant.
	m := newMC(5, 2, 4)
	m.AddState(0)
	m.AddState(1)
	m.MakeResident(0)
	m.MakeResident(1)
	for i := 0; i < 200; i++ {
		var costs map[StateID]float64
		if (i/10)%2 == 0 {
			costs = map[StateID]float64{0: 0.05, 1: 0.9}
		} else {
			costs = map[StateID]float64{0: 0.9, 1: 0.05}
		}
		if _, mat := m.Observe(constCost(costs)); mat {
			t.Fatalf("query %d: paid a materialization with both copies resident", i)
		}
	}
}

func TestMultiCopyPhaseReset(t *testing.T) {
	m := newMC(3, 1, 5)
	m.AddState(0)
	m.AddState(1)
	m.MakeResident(0)
	// Both states cost 1: both saturate after 3 queries -> phase reset.
	costs := map[StateID]float64{0: 1, 1: 1}
	for i := 0; i < 3; i++ {
		m.Observe(constCost(costs))
	}
	if m.Phases() != 2 {
		t.Errorf("Phases = %d, want 2", m.Phases())
	}
}

func TestMultiCopyPendingAdditionDeferred(t *testing.T) {
	m := newMC(3, 1, 6)
	m.AddState(0)
	m.MakeResident(0)
	m.Observe(func(StateID) float64 { return 0.5 })
	m.AddState(7) // mid-phase
	if m.states[7] {
		t.Fatal("pending state active mid-phase")
	}
	// Saturate 0 (counter 0.5 -> 3.0): phase resets (only member), 7 joins.
	m.Observe(func(StateID) float64 { return 0.5 })
	m.Observe(func(StateID) float64 { return 1 })
	m.Observe(func(StateID) float64 { return 1 })
	if _, ok := m.states[7]; !ok {
		t.Error("pending state never joined after phase reset")
	}
}

func TestMultiCopyDefaultResident(t *testing.T) {
	m := newMC(5, 1, 7)
	m.AddState(3)
	m.AddState(1)
	m.Observe(func(StateID) float64 { return 0 })
	res := m.sortedResidentIDs()
	if len(res) != 1 || res[0] != 1 {
		t.Errorf("default resident = %v, want smallest ID [1]", res)
	}
}

func TestMultiCopyMakeResidentValidation(t *testing.T) {
	m := newMC(5, 1, 8)
	m.AddState(0)
	m.AddState(1)
	m.MakeResident(0)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("over-budget MakeResident accepted")
			}
		}()
		m.MakeResident(1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("unknown state MakeResident accepted")
			}
		}()
		newMC(5, 1, 9).MakeResident(42)
	}()
}

// A larger budget must never pay more materializations than a smaller
// one on the same stream (free switches subsume paid ones).
func TestMultiCopyBudgetMonotonicity(t *testing.T) {
	run := func(budget int) int {
		m := newMC(8, budget, 10)
		for s := 0; s < 4; s++ {
			m.AddState(StateID(s))
		}
		rng := rand.New(rand.NewSource(11))
		cheap := 0
		for i := 0; i < 3000; i++ {
			if rng.Float64() < 0.01 {
				cheap = rng.Intn(4)
			}
			m.Observe(func(id StateID) float64 {
				if int(id) == cheap {
					return 0.02
				}
				return 0.6
			})
		}
		return m.materializedN
	}
	m1, m4 := run(1), run(4)
	if m4 > m1 {
		t.Errorf("budget 4 paid %d materializations, budget 1 paid %d", m4, m1)
	}
	if m1 == 0 {
		t.Error("degenerate stream: budget 1 never materialized")
	}
}

func TestStayInPlaceAblation(t *testing.T) {
	// With DisableStayInPlace, phase edges may pay extra switches; with
	// the optimization on, a two-state system with symmetric costs never
	// switches at all (both saturate simultaneously).
	run := func(disable bool) int {
		r := New(Config{Alpha: 5, DisableStayInPlace: disable}, rand.New(rand.NewSource(12)))
		r.AddState(0)
		r.AddState(1)
		r.SetInitial(0)
		for i := 0; i < 500; i++ {
			r.Observe(func(StateID) float64 { return 1 })
		}
		return r.switches
	}
	withOpt := run(false)
	withoutOpt := run(true)
	if withOpt != 0 {
		t.Errorf("stay-in-place run switched %d times, want 0", withOpt)
	}
	if withoutOpt <= withOpt {
		t.Errorf("ablation: original BLS (%d switches) not worse than stay-in-place (%d)",
			withoutOpt, withOpt)
	}
}
