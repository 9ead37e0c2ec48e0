package query

import (
	"fmt"
	"testing"

	"oreo/internal/table"
)

// Edge cases around metadata evaluation that the main tests do not
// reach: distinct-set overflow, float ranges, half-open bounds, and
// predicates whose types disagree with the column.

func TestMayMatchAfterDistinctOverflow(t *testing.T) {
	schema := table.NewSchema(table.Column{Name: "s", Type: table.String})
	b := table.NewBuilder(schema, 0)
	// Exceed MaxTrackedDistinct so the partition falls back to range
	// metadata [v000, v199].
	for i := 0; i < 200; i++ {
		b.AppendRow(table.Str(fmt.Sprintf("v%03d", i)))
	}
	d := b.Build()
	p := table.MustBuildPartitioning(d, make([]int, 200), 1)

	// Soundness: every present value must stay scannable after the
	// exact set degrades to Bloom-filter metadata.
	for i := 0; i < 200; i++ {
		q := Query{Preds: []Predicate{StrEq("s", fmt.Sprintf("v%03d", i))}}
		if !q.MayMatch(d.Schema(), p.Meta()[0]) {
			t.Fatalf("present value v%03d ruled out after overflow", i)
		}
	}
	// Out of range: prunable regardless of the Bloom filter.
	if (Query{Preds: []Predicate{StrEq("s", "zzz")}}).MayMatch(d.Schema(), p.Meta()[0]) {
		t.Error("out-of-range value not pruned")
	}
	// Absent in-range values are usually pruned by the Bloom filter;
	// allow false positives but not a 100% pass-through.
	passed := 0
	for i := 0; i < 200; i++ {
		q := Query{Preds: []Predicate{StrEq("s", fmt.Sprintf("v%03dx", i))}}
		if q.MayMatch(d.Schema(), p.Meta()[0]) {
			passed++
		}
	}
	if passed > 60 {
		t.Errorf("bloom metadata passed %d/200 absent values; filter ineffective", passed)
	}
}

func TestMayMatchFloatRanges(t *testing.T) {
	schema := table.NewSchema(table.Column{Name: "f", Type: table.Float64})
	b := table.NewBuilder(schema, 4)
	for _, v := range []float64{1.5, 2.5, 3.5, 4.5} {
		b.AppendRow(table.Float(v))
	}
	d := b.Build()
	p := table.MustBuildPartitioning(d, []int{0, 0, 1, 1}, 2)

	q := Query{Preds: []Predicate{FloatRange("f", 3.0, 4.0)}}
	if q.MayMatch(d.Schema(), p.Meta()[0]) {
		t.Error("partition [1.5,2.5] not skipped for [3,4]")
	}
	if !q.MayMatch(d.Schema(), p.Meta()[1]) {
		t.Error("partition [3.5,4.5] wrongly skipped for [3,4]")
	}
	// Boundary touch: [2.5, 2.6] overlaps partition 0 at its max.
	q2 := Query{Preds: []Predicate{FloatRange("f", 2.5, 2.6)}}
	if !q2.MayMatch(d.Schema(), p.Meta()[0]) {
		t.Error("inclusive boundary not treated as overlap")
	}
}

func TestMayMatchHalfOpenBounds(t *testing.T) {
	schema := table.NewSchema(table.Column{Name: "i", Type: table.Int64})
	b := table.NewBuilder(schema, 3)
	for _, v := range []int64{10, 20, 30} {
		b.AppendRow(table.Int(v))
	}
	d := b.Build()
	p := table.MustBuildPartitioning(d, []int{0, 0, 0}, 1)
	if !(Query{Preds: []Predicate{IntGE("i", 30)}}).MayMatch(d.Schema(), p.Meta()[0]) {
		t.Error("GE at exact max skipped")
	}
	if (Query{Preds: []Predicate{IntGE("i", 31)}}).MayMatch(d.Schema(), p.Meta()[0]) {
		t.Error("GE above max not skipped")
	}
	if !(Query{Preds: []Predicate{IntLE("i", 10)}}).MayMatch(d.Schema(), p.Meta()[0]) {
		t.Error("LE at exact min skipped")
	}
	if (Query{Preds: []Predicate{IntLE("i", 9)}}).MayMatch(d.Schema(), p.Meta()[0]) {
		t.Error("LE below min not skipped")
	}
}

func TestTypeMismatchMetadata(t *testing.T) {
	d := testDataset(t, 20, 50)
	p := table.MustBuildPartitioning(d, make([]int, 20), 1)
	// String predicate on numeric column can never match: the partition
	// is skippable.
	if (Query{Preds: []Predicate{StrEq("ts", "5")}}).MayMatch(d.Schema(), p.Meta()[0]) {
		t.Error("string predicate on int column not pruned")
	}
	// Numeric predicate on string column likewise.
	if (Query{Preds: []Predicate{IntGE("region", 0)}}).MayMatch(d.Schema(), p.Meta()[0]) {
		t.Error("numeric predicate on string column not pruned")
	}
	// MayMatch and MatchRow must agree on emptiness for mismatches.
	if Selectivity(d, Query{Preds: []Predicate{StrEq("ts", "5")}}) != 0 {
		t.Error("row evaluation disagrees with metadata evaluation")
	}
}

func TestFractionScannedEmptyTable(t *testing.T) {
	schema := table.NewSchema(table.Column{Name: "i", Type: table.Int64})
	d := table.NewBuilder(schema, 0).Build()
	p := table.NewPartitioning([]*table.PartitionMeta{table.NewPartitionMeta(0, schema)}, nil)
	if got := FractionScanned(schema, p, Query{}); got != 0 {
		t.Errorf("empty table fraction = %g", got)
	}
	if got := Selectivity(d, Query{}); got != 0 {
		t.Errorf("empty table selectivity = %g", got)
	}
}

func TestStrInMixedPresence(t *testing.T) {
	d := testDataset(t, 50, 51)
	p := table.MustBuildPartitioning(d, make([]int, 50), 1)
	// IN with one present and one absent value must match.
	q := Query{Preds: []Predicate{StrIn("region", "east", "nowhere")}}
	if !q.MayMatch(d.Schema(), p.Meta()[0]) {
		t.Error("IN with a present member pruned")
	}
	// IN with only absent values must prune.
	q2 := Query{Preds: []Predicate{StrIn("region", "nowhere", "elsewhere")}}
	if q2.MayMatch(d.Schema(), p.Meta()[0]) {
		t.Error("IN with no present members not pruned")
	}
}

func TestContradictoryConjunction(t *testing.T) {
	d := testDataset(t, 50, 52)
	p := table.MustBuildPartitioning(d, make([]int, 50), 1)
	// lo > hi can match nothing; metadata evaluation prunes it because
	// the partition range cannot satisfy both bounds.
	q := Query{Preds: []Predicate{IntGE("ts", 2000), IntLE("ts", -1)}}
	if Selectivity(d, q) != 0 {
		t.Error("contradictory range matched rows")
	}
	if q.MayMatch(d.Schema(), p.Meta()[0]) {
		t.Error("contradictory range not pruned by metadata")
	}
}
