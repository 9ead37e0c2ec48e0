package manager

import (
	"math/rand"
	"testing"
	"testing/quick"

	"oreo/internal/layout"
	"oreo/internal/query"
)

// Property: admission is monotone in ε — if a candidate is rejected at
// some threshold, it is rejected at every larger threshold.
func TestAdmitMonotoneInEpsilon(t *testing.T) {
	d := testDataset(300)
	gens := []layout.Generator{
		layout.NewSortGenerator("ts"),
		layout.NewSortGenerator("cat"),
		layout.NewSortGenerator("cat", "ts"),
		layout.NewRoundRobinGenerator(),
	}
	layouts := make([]*layout.Layout, len(gens))
	for i, g := range gens {
		layouts[i] = g.Generate(d, nil, 6)
	}
	rng := rand.New(rand.NewSource(1))
	sample := make([]query.Query, 20)
	for i := range sample {
		if i%2 == 0 {
			lo := rng.Int63n(250)
			sample[i] = tsQuery(i, lo, lo+30)
		} else {
			sample[i] = catQuery(i, []string{"a", "b", "c", "d"}[rng.Intn(4)])
		}
	}

	f := func(candIdx, incMask uint8, e1Raw, e2Raw uint8) bool {
		cand := layouts[int(candIdx)%len(layouts)]
		var incumbents []*layout.Layout
		for i, l := range layouts {
			if incMask&(1<<uint(i)) != 0 && l != cand {
				incumbents = append(incumbents, l)
			}
		}
		e1 := float64(e1Raw) / 255
		e2 := float64(e2Raw) / 255
		if e1 > e2 {
			e1, e2 = e2, e1
		}
		// admitted at larger eps implies admitted at smaller eps.
		if AdmitCompiled(cand, incumbents, cand.CompileWorkload(sample), e2) && !AdmitCompiled(cand, incumbents, cand.CompileWorkload(sample), e1) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: admission is symmetric-ish in content — a layout identical
// to an incumbent (same cost vector) is never admitted for any ε ≥ 0.
func TestAdmitNeverAdmitsDuplicate(t *testing.T) {
	d := testDataset(200)
	l := layout.NewSortGenerator("ts").Generate(d, nil, 5)
	dup := layout.NewSortGenerator("ts").Generate(d, nil, 5)
	sample := []query.Query{tsQuery(0, 0, 39), tsQuery(1, 100, 139), catQuery(2, "a")}
	for _, eps := range []float64{0, 0.01, 0.5, 1} {
		if AdmitCompiled(dup, []*layout.Layout{l}, dup.CompileWorkload(sample), eps) {
			t.Errorf("duplicate admitted at eps=%g", eps)
		}
	}
}

// mostRedundant never returns a skipped index and always returns a
// valid index (or -1) for arbitrary skip functions.
func TestMostRedundantRespectsSkip(t *testing.T) {
	d := testDataset(200)
	layouts := []*layout.Layout{
		layout.NewSortGenerator("ts").Generate(d, nil, 5),
		layout.NewSortGenerator("cat").Generate(d, nil, 5),
		layout.NewRoundRobinGenerator().Generate(d, nil, 5),
	}
	sample := []query.Query{tsQuery(0, 0, 39), catQuery(1, "b")}
	f := func(mask uint8) bool {
		skip := func(i int) bool { return mask&(1<<uint(i)) != 0 }
		got := mostRedundant(layouts, layouts[0].CompileWorkload(sample), skip)
		if got == -1 {
			return true
		}
		return got >= 0 && got < len(layouts) && !skip(got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// All-skipped incumbents yield -1.
func TestMostRedundantAllSkipped(t *testing.T) {
	d := testDataset(100)
	layouts := []*layout.Layout{
		layout.NewSortGenerator("ts").Generate(d, nil, 4),
		layout.NewSortGenerator("cat").Generate(d, nil, 4),
	}
	sample := []query.Query{tsQuery(0, 0, 19)}
	if got := mostRedundant(layouts, layouts[0].CompileWorkload(sample), func(int) bool { return true }); got != -1 {
		t.Errorf("victim = %d with everything skipped", got)
	}
}
