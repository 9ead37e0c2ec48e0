package query

import (
	"math"
	"testing"

	"oreo/internal/table"
)

// TestMatchRowNaNNeverMatchesBounds pins the row-semantics bugfix the
// execution layer's end-to-end property test surfaced: a NaN cell must
// not satisfy a bounded numeric predicate. Under the old `v < lo →
// reject` structure NaN slipped through every range (both comparisons
// are false), while partition min/max are folded from finite values
// only — so a partition holding finite rows plus NaN rows could be
// pruned even though its NaN rows "matched", making metadata skipping
// unsound relative to the row oracle.
func TestMatchRowNaNNeverMatchesBounds(t *testing.T) {
	schema := table.NewSchema(table.Column{Name: "x", Type: table.Float64})
	b := table.NewBuilder(schema, 3)
	b.AppendRow(table.Float(math.NaN()))
	b.AppendRow(table.Float(5))
	b.AppendRow(table.Float(math.NaN()))
	d := b.Build()

	cases := []struct {
		name string
		p    Predicate
	}{
		{"closed range", FloatRange("x", 0, 10)},
		{"lower bound", FloatGE("x", 0)},
		{"upper bound", FloatLE("x", 10)},
		{"contradictory range", FloatRange("x", 10, 0)},
	}
	for _, tc := range cases {
		q := Query{Preds: []Predicate{tc.p}}
		if q.MatchRow(d, 0) || q.MatchRow(d, 2) {
			t.Errorf("%s: NaN row matched", tc.name)
		}
	}
	// The finite row keeps matching the satisfiable shapes.
	for _, p := range []Predicate{FloatRange("x", 0, 10), FloatGE("x", 0), FloatLE("x", 10)} {
		if !(Query{Preds: []Predicate{p}}).MatchRow(d, 1) {
			t.Errorf("finite row rejected by %v", p)
		}
	}
	// An unbounded numeric predicate constrains nothing, NaN included.
	if !(Query{Preds: []Predicate{{Col: "x"}}}).MatchRow(d, 0) {
		t.Error("unbounded predicate rejected a NaN row")
	}

	// End to end: pruning must agree. The NaN rows match nothing, the
	// finite row's partition must survive its range.
	part := table.MustBuildPartitioning(d, []int{0, 1, 0}, 2)
	q := Query{Preds: []Predicate{FloatRange("x", 0, 10)}}
	for r := 0; r < d.NumRows(); r++ {
		if q.MatchRow(d, r) && !q.MayMatch(d.Schema(), part.Meta()[part.Assign[r]]) {
			t.Fatalf("row %d matches but its partition is pruned", r)
		}
	}
}
