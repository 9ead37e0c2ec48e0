package exec

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"oreo/internal/prune"
	"oreo/internal/query"
	"oreo/internal/table"
)

// randomDelta draws a live-write tail over the dataset's schema — the
// same value distributions as randomScenario, sharing the schema
// pointer as the serving layer guarantees.
func randomDelta(rng *rand.Rand, ds *table.Dataset) *table.Dataset {
	schema := ds.Schema()
	n := rng.Intn(120)
	b := table.NewBuilder(schema, n)
	row := make([]table.Value, schema.NumCols())
	for r := 0; r < n; r++ {
		for c := 0; c < schema.NumCols(); c++ {
			switch schema.Col(c).Type {
			case table.Int64:
				row[c] = table.Int(rng.Int63n(1000) - 500)
			case table.Float64:
				if rng.Intn(20) == 0 {
					row[c] = table.Float(math.NaN())
				} else {
					row[c] = table.Float(rng.NormFloat64() * 100)
				}
			case table.String:
				row[c] = table.Str(fmt.Sprintf("s%03d", rng.Intn(150)))
			}
		}
		b.AppendRow(row...)
	}
	return b.Build()
}

// checkDeltaScanEquality is the live-write form of the tentpole
// property: with a non-empty delta riding on the scan, pruned ≡ full,
// kernels ≡ interpreted, and parallel ≡ sequential all stay bitwise;
// the delta contributes exactly its row count to the examined mass; and
// the matched set equals the row-at-a-time oracle over base plus tail.
func checkDeltaScanEquality(t testing.TB, ds *table.Dataset, part *table.Partitioning, store *Store, delta *table.Dataset, q query.Query, aggs []AggSpec) {
	t.Helper()
	ids, cost := prune.Compile(ds.Schema(), q).Survivors(part)
	opts := Options{CollectRows: true, Delta: delta}

	full, err := store.ScanFull(q, aggs, opts)
	if err != nil {
		t.Fatalf("full scan: %v", err)
	}
	pruned, err := store.Scan(q, ids, aggs, opts)
	if err != nil {
		t.Fatalf("pruned scan: %v", err)
	}
	interp, err := store.ScanInterpreted(q, ids, aggs, opts)
	if err != nil {
		t.Fatalf("interpreted scan: %v", err)
	}
	par, err := store.Scan(q, ids, aggs, Options{CollectRows: true, Delta: delta, Parallelism: 3})
	if err != nil {
		t.Fatalf("parallel scan: %v", err)
	}

	sameRows := func(name string, a, b []int) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: row sequences %v vs %v\nquery: %+v", name, a, b, q.Preds)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: row sequence diverges at %d: %v vs %v", name, i, a, b)
			}
		}
	}
	for _, alt := range []struct {
		name string
		res  Result
	}{{"pruned vs full", full}, {"interpreted", interp}, {"parallel", par}} {
		if pruned.Matched != alt.res.Matched {
			t.Fatalf("%s: matched %d vs %d\nquery: %+v", alt.name, pruned.Matched, alt.res.Matched, q.Preds)
		}
		sameRows(alt.name, pruned.RowIDs, alt.res.RowIDs)
		if !sameAggs(pruned.Aggs, alt.res.Aggs) {
			t.Fatalf("%s: aggs %+v vs %+v\nquery: %+v", alt.name, pruned.Aggs, alt.res.Aggs, q.Preds)
		}
	}

	// The delta is always examined in full, on top of the survivor mass.
	if pruned.DeltaRows != delta.NumRows() || full.DeltaRows != delta.NumRows() {
		t.Fatalf("DeltaRows %d/%d, want %d", pruned.DeltaRows, full.DeltaRows, delta.NumRows())
	}
	survivorMass := 0
	for _, pid := range ids {
		survivorMass += part.RowsInPartition(pid)
	}
	if pruned.RowsExamined != survivorMass+delta.NumRows() {
		t.Fatalf("examined %d rows, want %d survivor + %d delta", pruned.RowsExamined, survivorMass, delta.NumRows())
	}
	if part.TotalRows > 0 {
		baseExamined := pruned.RowsExamined - pruned.DeltaRows
		if got := float64(baseExamined) / float64(part.TotalRows); got != cost {
			t.Fatalf("base examined fraction %v != predicted cost %v", got, cost)
		}
	}

	// Oracle: matched rows are exactly MatchRow over the base dataset
	// plus MatchRow over the tail, tail rows indexed past the base.
	var want []int
	for r := 0; r < ds.NumRows(); r++ {
		if q.MatchRow(ds, r) {
			want = append(want, r)
		}
	}
	for r := 0; r < delta.NumRows(); r++ {
		if q.MatchRow(delta, r) {
			want = append(want, ds.NumRows()+r)
		}
	}
	got := append([]int(nil), full.RowIDs...)
	sort.Ints(got) // blocks emit in partition order; the oracle is global order
	sameRows("oracle", got, want)
}

// TestDeltaScanEqualityProperty fuzzes the live-write scan equality
// across random datasets, layouts, deltas, and queries.
func TestDeltaScanEqualityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		ds, part := randomScenario(rng)
		store := MustNewStore(ds, part)
		delta := randomDelta(rng, ds)
		for i := 0; i < 15; i++ {
			q := randomQuery(rng, ds.Schema())
			checkDeltaScanEquality(t, ds, part, store, delta, q, randomAggs(rng, ds.Schema()))
		}
	}
}

// TestDeltaScanEmptyAndNil pins that a nil or empty delta changes
// nothing: same Result (including zero DeltaRows) as a delta-free scan.
func TestDeltaScanEmptyAndNil(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	ds, part := randomScenario(rng)
	store := MustNewStore(ds, part)
	empty := table.NewBuilder(ds.Schema(), 0).Build()
	for i := 0; i < 10; i++ {
		q := randomQuery(rng, ds.Schema())
		aggs := randomAggs(rng, ds.Schema())
		base, err := store.ScanFull(q, aggs, Options{CollectRows: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range []*table.Dataset{nil, empty} {
			got, err := store.ScanFull(q, aggs, Options{CollectRows: true, Delta: d})
			if err != nil {
				t.Fatal(err)
			}
			if got.Matched != base.Matched || got.DeltaRows != 0 ||
				got.RowsExamined != base.RowsExamined || !sameAggs(got.Aggs, base.Aggs) {
				t.Fatalf("delta=%v changed the scan: %+v vs %+v", d, got, base)
			}
		}
	}
}

// TestDeltaSchemaMismatch pins the explicit error for a delta built
// over a different schema instance.
func TestDeltaSchemaMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ds, part := randomScenario(rng)
	store := MustNewStore(ds, part)
	otherSchema := table.NewSchema(ds.Schema().Cols()...)
	b := table.NewBuilder(otherSchema, 1)
	row := make([]table.Value, otherSchema.NumCols())
	for c := 0; c < otherSchema.NumCols(); c++ {
		switch otherSchema.Col(c).Type {
		case table.Int64:
			row[c] = table.Int(1)
		case table.Float64:
			row[c] = table.Float(1)
		case table.String:
			row[c] = table.Str("x")
		}
	}
	b.AppendRow(row...)
	foreign := b.Build()
	if _, err := store.ScanFull(query.Query{}, nil, Options{Delta: foreign}); err == nil {
		t.Fatal("foreign-schema delta accepted")
	}
	if _, err := store.ScanInterpreted(query.Query{}, store.allIDs, nil, Options{Delta: foreign}); err == nil {
		t.Fatal("foreign-schema delta accepted by interpreted engine")
	}
}
