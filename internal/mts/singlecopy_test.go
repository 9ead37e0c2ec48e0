package mts

import (
	"math/rand"
	"testing"
)

// runSingleCopyPair drives MultiCopy at budget 1 and Reorganizer at
// γ = 0 over the same script and fails at the first query where they
// disagree on the state served, on whether the query paid a
// reorganization, or on the phase count. Both start in the smallest
// state and draw from rngs seeded alike, so agreement means the budget-1
// multi-copy algorithm is the single-copy one move for move.
//
// script[0] picks the state count (2–8) and α; every later byte is one
// query, except that a byte below 16 first adds a state mid-stream while
// fewer than eight exist. A query's costs come from a rng seeded by
// seed: each state draws either an exact eighth in [0, 1] (so counters
// hit α exactly) or a uniform float, and the byte's state is made cheap.
func runSingleCopyPair(t *testing.T, seed int64, script []byte) {
	if len(script) == 0 {
		return
	}
	n := 2 + int(script[0])%7
	alpha := 1.5 + float64(script[0]>>3)
	r := New(Config{Alpha: alpha}, rand.New(rand.NewSource(seed)))
	m := NewMultiCopy(Config{Alpha: alpha}, 1, rand.New(rand.NewSource(seed)))
	for s := 0; s < n; s++ {
		r.AddState(StateID(s))
		m.AddState(StateID(s))
	}
	r.SetInitial(0)
	m.MakeResident(0)

	costRng := rand.New(rand.NewSource(seed + 1))
	for i, b := range script[1:] {
		if b < 16 && n < 8 {
			r.AddState(StateID(n))
			m.AddState(StateID(n))
			n++
		}
		costs := make(map[StateID]float64, n)
		for s := 0; s < n; s++ {
			c := costRng.Float64()
			if b&1 == 0 {
				c = float64(costRng.Intn(9)) / 8
			}
			if s == int(b>>1)%n {
				c /= 8
			}
			costs[StateID(s)] = c
		}
		switched, cur := r.Observe(constCost(costs))
		served, materialized := m.Observe(constCost(costs))
		if served != cur || materialized != switched || m.Phases() != r.Phases() {
			t.Fatalf("query %d: multi-copy served %d (materialized %v, phase %d), single-copy %d (switched %v, phase %d)",
				i, served, materialized, m.Phases(), cur, switched, r.Phases())
		}
	}
}

// FuzzMultiCopySingleCopy holds MultiCopy's claim that a budget of one
// degenerates to the single-copy algorithm's move pattern.
func FuzzMultiCopySingleCopy(f *testing.F) {
	rng := rand.New(rand.NewSource(29))
	for seed := int64(1); seed <= 12; seed++ {
		script := make([]byte, 400)
		rng.Read(script)
		f.Add(seed, script)
	}
	f.Add(int64(0), []byte{0, 1, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		if len(script) > 2000 {
			script = script[:2000]
		}
		runSingleCopyPair(t, seed, script)
	})
}
