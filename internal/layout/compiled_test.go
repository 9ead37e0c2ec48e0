package layout

import (
	"testing"

	"oreo/internal/query"
)

// TestLayoutCostMatchesInterpreted pins the layout layer to the engine's
// equivalence contract: Cost, CostCompiled, CostVectorCompiled and AvgCost
// all agree bitwise with the interpreted reference across generated
// layouts and a mixed workload.
func TestLayoutCostMatchesInterpreted(t *testing.T) {
	d := testDataset(t, 3000, 17)
	qs := qdWorkload(150, 18)
	layouts := []*Layout{
		NewSortGenerator("ts").Generate(d, nil, 12),
		NewZOrderGenerator(2, "ts").Generate(d, qs, 12),
		NewQdTreeGenerator().Generate(d, qs, 12),
	}
	for _, l := range layouts {
		cqs := l.CompileWorkload(qs)
		var interpSum float64
		for i, q := range qs {
			want := query.FractionScanned(l.Schema(), l.Part, q)
			interpSum += want
			if got := l.Cost(q); got != want {
				t.Fatalf("%s: Cost %v != interpreted %v", l.Name, got, want)
			}
			if got := l.CostCompiled(cqs[i]); got != want {
				t.Fatalf("%s: CostCompiled %v != interpreted %v", l.Name, got, want)
			}
		}
		for i, got := range l.CostVectorCompiled(cqs) {
			if want := query.FractionScanned(l.Schema(), l.Part, qs[i]); got != want {
				t.Fatalf("%s: CostVectorCompiled[%d] %v != interpreted %v", l.Name, i, got, want)
			}
		}
		wantAvg := interpSum / float64(len(qs))
		if got := l.AvgCost(qs); got != wantAvg {
			t.Fatalf("%s: AvgCost %v != %v", l.Name, got, wantAvg)
		}
	}
}

// TestLayoutMemoServesRepeatedWindows checks the manager-shaped access
// pattern the memo exists for: re-costing the same window repeatedly
// computes each distinct query once.
func TestLayoutMemoServesRepeatedWindows(t *testing.T) {
	d := testDataset(t, 2000, 3)
	qs := qdWorkload(50, 4)
	l := NewQdTreeGenerator().Generate(d, qs, 16)

	before := l.Engine().Stats()
	for pass := 0; pass < 4; pass++ {
		l.AvgCost(qs)
	}
	st := l.Engine().Stats()
	newMisses := st.Misses - before.Misses
	if int(newMisses) > len(qs) {
		t.Errorf("%d misses for %d distinct queries over 4 passes", newMisses, len(qs))
	}
	if st.Hits == 0 {
		t.Error("no memo hits across repeated window costing")
	}
}
