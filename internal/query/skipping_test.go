package query

import (
	"math/rand"
	"testing"
	"testing/quick"

	"oreo/internal/table"
)

// randomQuery draws a random conjunction over the test schema.
func randomQuery(rng *rand.Rand) Query {
	var preds []Predicate
	if rng.Intn(2) == 0 {
		lo := rng.Int63n(1000)
		preds = append(preds, IntRange("ts", lo, lo+rng.Int63n(300)))
	}
	if rng.Intn(2) == 0 {
		lo := rng.Float64() * 100
		preds = append(preds, FloatRange("price", lo, lo+rng.Float64()*40))
	}
	if rng.Intn(2) == 0 {
		regions := []string{"east", "north", "south", "west", "absent"}
		preds = append(preds, StrEq("region", regions[rng.Intn(len(regions))]))
	}
	return Query{Preds: preds}
}

// TestMayMatchSoundness is the central safety property of partition
// skipping: a partition that contains a matching row must never be
// skipped (MayMatch must be true for it).
func TestMayMatchSoundness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := testDataset(t, 200, seed)
		k := 1 + rng.Intn(8)
		assign := make([]int, d.NumRows())
		for i := range assign {
			assign[i] = rng.Intn(k)
		}
		p := table.MustBuildPartitioning(d, assign, k)

		for trial := 0; trial < 10; trial++ {
			q := randomQuery(rng)
			for r := 0; r < d.NumRows(); r++ {
				if q.MatchRow(d, r) && !q.MayMatch(d.Schema(), p.Meta()[assign[r]]) {
					return false // skipped a partition holding a match
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestFractionScannedBounds checks c(s,q) ∈ [0,1] and that it upper
// bounds the true selectivity (skipping can only be conservative).
func TestFractionScannedBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := testDataset(t, 150, seed+99)
		k := 1 + rng.Intn(6)
		assign := make([]int, d.NumRows())
		for i := range assign {
			assign[i] = rng.Intn(k)
		}
		p := table.MustBuildPartitioning(d, assign, k)
		for trial := 0; trial < 8; trial++ {
			q := randomQuery(rng)
			frac := FractionScanned(d.Schema(), p, q)
			if frac < 0 || frac > 1 {
				return false
			}
			if sel := Selectivity(d, q); frac < sel-1e-12 {
				return false // scanned less than the matching fraction
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMayMatchEmptyPartition(t *testing.T) {
	d := testDataset(t, 10, 5)
	// Partition 1 gets no rows.
	assign := make([]int, 10)
	p := table.MustBuildPartitioning(d, assign, 2)
	q := Query{} // matches everything
	if q.MayMatch(d.Schema(), p.Meta()[1]) {
		t.Error("empty partition reported as possibly matching")
	}
	if !q.MayMatch(d.Schema(), p.Meta()[0]) {
		t.Error("full partition reported as skippable for match-all query")
	}
}

func TestMayMatchUnknownColumnConservative(t *testing.T) {
	d := testDataset(t, 10, 6)
	p := table.MustBuildPartitioning(d, make([]int, 10), 1)
	q := Query{Preds: []Predicate{IntGE("not_a_column", 5)}}
	if !q.MayMatch(d.Schema(), p.Meta()[0]) {
		t.Error("unknown column should not allow skipping")
	}
}

func TestMayMatchRangeSkips(t *testing.T) {
	// Two partitions split cleanly by ts: [0..499] and [500..999].
	b := table.NewBuilder(testSchema(), 100)
	for i := 0; i < 100; i++ {
		b.AppendRow(table.Int(int64(i*10)), table.Float(1), table.Str("east"))
	}
	d := b.Build()
	assign := make([]int, 100)
	for i := range assign {
		if i >= 50 {
			assign[i] = 1
		}
	}
	p := table.MustBuildPartitioning(d, assign, 2)

	q := Query{Preds: []Predicate{IntRange("ts", 0, 100)}}
	if !q.MayMatch(d.Schema(), p.Meta()[0]) {
		t.Error("partition 0 wrongly skipped")
	}
	if q.MayMatch(d.Schema(), p.Meta()[1]) {
		t.Error("partition 1 not skipped for disjoint range")
	}
	if got := FractionScanned(d.Schema(), p, q); got != 0.5 {
		t.Errorf("FractionScanned = %g, want 0.5", got)
	}
}

func TestMayMatchStringDistinct(t *testing.T) {
	b := table.NewBuilder(testSchema(), 4)
	b.AppendRow(table.Int(1), table.Float(1), table.Str("east"))
	b.AppendRow(table.Int(2), table.Float(1), table.Str("east"))
	b.AppendRow(table.Int(3), table.Float(1), table.Str("west"))
	b.AppendRow(table.Int(4), table.Float(1), table.Str("west"))
	d := b.Build()
	p := table.MustBuildPartitioning(d, []int{0, 0, 1, 1}, 2)

	q := Query{Preds: []Predicate{StrEq("region", "west")}}
	if q.MayMatch(d.Schema(), p.Meta()[0]) {
		t.Error("east-only partition not skipped for region=west")
	}
	if !q.MayMatch(d.Schema(), p.Meta()[1]) {
		t.Error("west partition wrongly skipped")
	}
	// A value between "east" and "west" lexically but absent: the
	// distinct set should prune it everywhere.
	q2 := Query{Preds: []Predicate{StrEq("region", "north")}}
	if q2.MayMatch(d.Schema(), p.Meta()[0]) || q2.MayMatch(d.Schema(), p.Meta()[1]) {
		t.Error("absent value not pruned by exact distinct sets")
	}
}

func TestAvgFractionScanned(t *testing.T) {
	d := testDataset(t, 50, 7)
	p := table.MustBuildPartitioning(d, make([]int, 50), 1)
	if got := AvgFractionScanned(d.Schema(), p, nil); got != 0 {
		t.Errorf("empty workload cost = %g", got)
	}
	qs := []Query{{}, {}}
	if got := AvgFractionScanned(d.Schema(), p, qs); got != 1 {
		t.Errorf("match-all workload on single partition = %g, want 1", got)
	}
}
