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

// randomScenario builds a random schema, dataset, and partitioning:
// mixed column types, occasional NaN floats, and partition assignments
// that leave some partitions empty — the same adversarial shapes the
// pruning equivalence tests use.
func randomScenario(rng *rand.Rand) (*table.Dataset, *table.Partitioning) {
	ncols := 1 + rng.Intn(5)
	cols := make([]table.Column, ncols)
	for i := range cols {
		cols[i] = table.Column{
			Name: fmt.Sprintf("c%d", i),
			Type: table.ColType(rng.Intn(3)),
		}
	}
	schema := table.NewSchema(cols...)

	nrows := 1 + rng.Intn(400)
	cardinality := 1 + rng.Intn(120)
	b := table.NewBuilder(schema, nrows)
	row := make([]table.Value, ncols)
	for r := 0; r < nrows; r++ {
		for c, col := range cols {
			switch col.Type {
			case table.Int64:
				row[c] = table.Int(rng.Int63n(1000) - 500)
			case table.Float64:
				if rng.Intn(20) == 0 {
					row[c] = table.Float(math.NaN())
				} else {
					row[c] = table.Float(rng.NormFloat64() * 100)
				}
			case table.String:
				row[c] = table.Str(fmt.Sprintf("s%03d", rng.Intn(cardinality)))
			}
		}
		b.AppendRow(row...)
	}
	ds := b.Build()

	return ds, randomPartitioning(rng, ds)
}

// randomPartitioning draws a fresh layout of the dataset — what a
// reorganization produces.
func randomPartitioning(rng *rand.Rand, ds *table.Dataset) *table.Partitioning {
	k := 1 + rng.Intn(40)
	assign := make([]int, ds.NumRows())
	used := 1 + rng.Intn(k)
	for i := range assign {
		assign[i] = rng.Intn(used)
	}
	return table.MustBuildPartitioning(ds, assign, k)
}

// randomQuery draws a query exercising every bind path: any bound
// combination, IN sets, unknown columns, type-mismatched predicates.
func randomQuery(rng *rand.Rand, schema *table.Schema) query.Query {
	npreds := rng.Intn(4)
	preds := make([]query.Predicate, 0, npreds)
	for i := 0; i < npreds; i++ {
		var col string
		if rng.Intn(8) == 0 {
			col = "unknown_col"
		} else {
			col = schema.Col(rng.Intn(schema.NumCols())).Name
		}
		switch rng.Intn(3) {
		case 0:
			p := query.Predicate{Col: col, HasLo: rng.Intn(2) == 0, HasHi: rng.Intn(2) == 0}
			p.LoI = rng.Int63n(1000) - 500
			p.HiI = p.LoI + rng.Int63n(600) - 100
			p.LoF = rng.NormFloat64() * 100
			p.HiF = p.LoF + rng.NormFloat64()*80
			preds = append(preds, p)
		case 1:
			n := 1 + rng.Intn(6)
			vals := make([]string, n)
			for j := range vals {
				vals[j] = fmt.Sprintf("s%03d", rng.Intn(150))
			}
			preds = append(preds, query.StrIn(col, vals...))
		case 2: // type roulette: numeric shape that may land on a string column
			preds = append(preds, query.Predicate{
				Col: col, HasLo: true, HasHi: true,
				LoI: rng.Int63n(200) - 100, HiI: rng.Int63n(400),
				LoF: rng.NormFloat64() * 10, HiF: rng.NormFloat64() * 200,
			})
		}
	}
	return query.Query{ID: rng.Intn(1000), Template: -1, Preds: preds}
}

// randomAggs draws aggregate requests legal for the schema.
func randomAggs(rng *rand.Rand, schema *table.Schema) []AggSpec {
	aggs := []AggSpec{{Op: AggCount}}
	for i := 0; i < rng.Intn(3); i++ {
		c := schema.Col(rng.Intn(schema.NumCols()))
		ops := []AggOp{AggMin, AggMax}
		if c.Type != table.String {
			ops = append(ops, AggSum)
		}
		aggs = append(aggs, AggSpec{Op: ops[rng.Intn(len(ops))], Col: c.Name})
	}
	return aggs
}

// sameAggs compares aggregate vectors bitwise (NaN-safe: float results
// compare by bits, not by ==).
func sameAggs(a, b []AggValue) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Op != y.Op || x.Col != y.Col || x.Type != y.Type || x.Valid != y.Valid ||
			x.I != y.I || x.S != y.S ||
			math.Float64bits(x.F) != math.Float64bits(y.F) {
			return false
		}
	}
	return true
}

// closeAggs is sameAggs with float tolerance, for comparisons *across*
// layouts: the matched set is identical but its accumulation order is
// not, so float sums may differ in the last ulps (and NaN data makes
// float extremes order-dependent — those are skipped). The bitwise
// guarantee holds within one layout (pruned vs full), not across.
func closeAggs(a, b []AggValue) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Op != y.Op || x.Col != y.Col || x.Type != y.Type || x.Valid != y.Valid ||
			x.I != y.I || x.S != y.S {
			return false
		}
		if math.IsNaN(x.F) || math.IsNaN(y.F) {
			continue
		}
		if diff := math.Abs(x.F - y.F); diff > 1e-9*(1+math.Abs(x.F)) {
			return false
		}
	}
	return true
}

// checkScanEquality is the tentpole property: for one (dataset, layout,
// query) triple, the scan over only the survivor partitions returns
// bitwise-identical results to the full scan, and both agree with the
// interpreted row-by-row oracle over the original dataset.
func checkScanEquality(t testing.TB, ds *table.Dataset, part *table.Partitioning, store *Store, q query.Query, aggs []AggSpec) {
	t.Helper()
	ids, cost := prune.Compile(ds.Schema(), q).Survivors(part)

	full, err := store.ScanFull(q, aggs, Options{CollectRows: true})
	if err != nil {
		t.Fatalf("full scan: %v", err)
	}
	pruned, err := store.Scan(q, ids, aggs, Options{CollectRows: true})
	if err != nil {
		t.Fatalf("pruned scan: %v", err)
	}

	// Result sets are not just equal — they are the same sequence.
	if pruned.Matched != full.Matched {
		t.Fatalf("pruned matched %d, full matched %d\nquery: %+v", pruned.Matched, full.Matched, q.Preds)
	}
	if len(pruned.RowIDs) != len(full.RowIDs) {
		t.Fatalf("pruned rows %v != full rows %v", pruned.RowIDs, full.RowIDs)
	}
	for i := range full.RowIDs {
		if pruned.RowIDs[i] != full.RowIDs[i] {
			t.Fatalf("row sequence diverges at %d: pruned %v, full %v\nquery: %+v",
				i, pruned.RowIDs, full.RowIDs, q.Preds)
		}
	}
	if !sameAggs(pruned.Aggs, full.Aggs) {
		t.Fatalf("pruned aggs %+v != full aggs %+v\nquery: %+v", pruned.Aggs, full.Aggs, q.Preds)
	}

	// The pruned scan's examined mass is exactly the predicted cost.
	if part.TotalRows > 0 {
		if got := float64(pruned.RowsExamined) / float64(part.TotalRows); got != cost {
			t.Fatalf("examined fraction %v != predicted cost %v", got, cost)
		}
	}
	if pruned.PartitionsRead != len(ids) {
		t.Fatalf("read %d partitions, skip-list has %d", pruned.PartitionsRead, len(ids))
	}

	// Oracle: the interpreted MatchRow over the original dataset names
	// exactly the matched rows, independent of any layout.
	var want []int
	for r := 0; r < ds.NumRows(); r++ {
		if q.MatchRow(ds, r) {
			want = append(want, r)
		}
	}
	got := append([]int(nil), full.RowIDs...)
	sort.Ints(got)
	if len(got) != len(want) {
		t.Fatalf("scan matched %d rows, oracle %d\nquery: %+v", len(got), len(want), q.Preds)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("matched set %v != oracle %v\nquery: %+v", got, want, q.Preds)
		}
	}
}

// TestPrunedScanEqualsFullScanProperty fuzzes the equality across
// random datasets, layouts, and queries — the acceptance property of
// the execution layer.
func TestPrunedScanEqualsFullScanProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		ds, part := randomScenario(rng)
		store := MustNewStore(ds, part)
		for i := 0; i < 25; i++ {
			q := randomQuery(rng, ds.Schema())
			checkScanEquality(t, ds, part, store, q, randomAggs(rng, ds.Schema()))
		}
	}
}

// TestScanEqualityAcrossReorganizations pins the serving loop's
// invariant: reorganizing (new layout, rebuilt store) never changes any
// query's result set — only which partitions the scan had to read.
func TestScanEqualityAcrossReorganizations(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 8; trial++ {
		ds, part := randomScenario(rng)
		queries := make([]query.Query, 15)
		for i := range queries {
			queries[i] = randomQuery(rng, ds.Schema())
		}
		aggs := randomAggs(rng, ds.Schema())

		// Reference results on the initial layout.
		store := MustNewStore(ds, part)
		ref := make([][]int, len(queries))
		refAggs := make([][]AggValue, len(queries))
		for i, q := range queries {
			checkScanEquality(t, ds, part, store, q, aggs)
			ids, _ := prune.Compile(ds.Schema(), q).Survivors(part)
			res, err := store.Scan(q, ids, aggs, Options{CollectRows: true})
			if err != nil {
				t.Fatal(err)
			}
			sort.Ints(res.RowIDs)
			ref[i] = res.RowIDs
			refAggs[i] = res.Aggs
		}

		// Three reorganizations: fresh layouts over the same rows.
		for reorg := 0; reorg < 3; reorg++ {
			part = randomPartitioning(rng, ds)
			store = MustNewStore(ds, part)
			for i, q := range queries {
				checkScanEquality(t, ds, part, store, q, aggs)
				ids, _ := prune.Compile(ds.Schema(), q).Survivors(part)
				res, err := store.Scan(q, ids, aggs, Options{CollectRows: true})
				if err != nil {
					t.Fatal(err)
				}
				sort.Ints(res.RowIDs)
				if len(res.RowIDs) != len(ref[i]) {
					t.Fatalf("reorg %d changed query %d's matches: %d rows, want %d",
						reorg, i, len(res.RowIDs), len(ref[i]))
				}
				for j := range ref[i] {
					if res.RowIDs[j] != ref[i][j] {
						t.Fatalf("reorg %d changed query %d's match set", reorg, i)
					}
				}
				if !closeAggs(res.Aggs, refAggs[i]) {
					t.Fatalf("reorg %d changed query %d's aggregates: %+v vs %+v",
						reorg, i, res.Aggs, refAggs[i])
				}
			}
		}
	}
}

// FuzzPrunedScanEquality is the native-fuzzing form of the property.
// Negative seeds draw the clustered, extreme-valued corpus
// (checkCoveredScenario), so the fuzzer starts from covered blocks and
// domain-edge bounds as well as from random layouts.
func FuzzPrunedScanEquality(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 42, 1234, 999983, -1, -7, -42, math.MinInt64} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		if seed < 0 {
			checkCoveredScenario(t, rng, 10)
			return
		}
		ds, part := randomScenario(rng)
		store := MustNewStore(ds, part)
		for i := 0; i < 15; i++ {
			q := randomQuery(rng, ds.Schema())
			checkScanEquality(t, ds, part, store, q, randomAggs(rng, ds.Schema()))
		}
	})
}

// fixtureStore builds a small deterministic table for the unit tests:
// 8 rows over (id int, price float, tag string), split into 4
// partitions of 2 rows in id order.
func fixtureStore(t *testing.T) (*table.Dataset, *Store) {
	t.Helper()
	schema := table.NewSchema(
		table.Column{Name: "id", Type: table.Int64},
		table.Column{Name: "price", Type: table.Float64},
		table.Column{Name: "tag", Type: table.String},
	)
	b := table.NewBuilder(schema, 8)
	tags := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for i := 0; i < 8; i++ {
		b.AppendRow(table.Int(int64(i)), table.Float(float64(i)*1.5), table.Str(tags[i]))
	}
	ds := b.Build()
	assign := []int{0, 0, 1, 1, 2, 2, 3, 3}
	part := table.MustBuildPartitioning(ds, assign, 4)
	return ds, MustNewStore(ds, part)
}

func TestScanAggregates(t *testing.T) {
	_, store := fixtureStore(t)
	q := query.Query{Preds: []query.Predicate{query.IntRange("id", 2, 5)}}
	res, err := store.ScanFull(q, []AggSpec{
		{Op: AggCount},
		{Op: AggSum, Col: "id"},
		{Op: AggSum, Col: "price"},
		{Op: AggMin, Col: "price"},
		{Op: AggMax, Col: "id"},
		{Op: AggMin, Col: "tag"},
		{Op: AggMax, Col: "tag"},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matched != 4 {
		t.Fatalf("matched %d, want 4", res.Matched)
	}
	want := []AggValue{
		{Op: AggCount, Type: table.Int64, Valid: true, I: 4},
		{Op: AggSum, Col: "id", Type: table.Int64, Valid: true, I: 2 + 3 + 4 + 5},
		{Op: AggSum, Col: "price", Type: table.Float64, Valid: true, F: (2 + 3 + 4 + 5) * 1.5},
		{Op: AggMin, Col: "price", Type: table.Float64, Valid: true, F: 3.0},
		{Op: AggMax, Col: "id", Type: table.Int64, Valid: true, I: 5},
		{Op: AggMin, Col: "tag", Type: table.String, Valid: true, S: "c"},
		{Op: AggMax, Col: "tag", Type: table.String, Valid: true, S: "f"},
	}
	if !sameAggs(res.Aggs, want) {
		t.Fatalf("aggs = %+v\nwant  %+v", res.Aggs, want)
	}
}

func TestScanEmptyMatchAggValidity(t *testing.T) {
	_, store := fixtureStore(t)
	q := query.Query{Preds: []query.Predicate{query.IntRange("id", 100, 200)}}
	res, err := store.ScanFull(q, []AggSpec{
		{Op: AggCount}, {Op: AggSum, Col: "price"}, {Op: AggMin, Col: "id"}, {Op: AggMax, Col: "tag"},
	}, Options{CollectRows: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matched != 0 || len(res.RowIDs) != 0 {
		t.Fatalf("matched %d rows %v, want none", res.Matched, res.RowIDs)
	}
	if !res.Aggs[0].Valid || res.Aggs[0].I != 0 {
		t.Errorf("count over empty match = %+v, want valid 0", res.Aggs[0])
	}
	if !res.Aggs[1].Valid || res.Aggs[1].F != 0 {
		t.Errorf("sum over empty match = %+v, want valid 0", res.Aggs[1])
	}
	if res.Aggs[2].Valid || res.Aggs[3].Valid {
		t.Errorf("min/max over empty match must be invalid: %+v, %+v", res.Aggs[2], res.Aggs[3])
	}
}

// TestFloatExtremesIgnoreNaN pins that NaN cells neither seed nor
// poison float min/max: the extreme is a function of the matched set
// alone, so it cannot flip when a reorganization changes which matched
// row a scan visits first.
func TestFloatExtremesIgnoreNaN(t *testing.T) {
	schema := table.NewSchema(
		table.Column{Name: "id", Type: table.Int64},
		table.Column{Name: "v", Type: table.Float64},
	)
	b := table.NewBuilder(schema, 3)
	b.AppendRow(table.Int(0), table.Float(math.NaN()))
	b.AppendRow(table.Int(1), table.Float(5))
	b.AppendRow(table.Int(2), table.Float(7))
	ds := b.Build()

	q := query.Query{Preds: []query.Predicate{query.IntGE("id", 0)}}
	aggs := []AggSpec{{Op: AggMin, Col: "v"}, {Op: AggMax, Col: "v"}}
	// Two layouts that visit the NaN row first and last respectively.
	for _, assign := range [][]int{{0, 1, 1}, {1, 1, 0}} {
		store := MustNewStore(ds, table.MustBuildPartitioning(ds, assign, 2))
		res, err := store.ScanFull(q, aggs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Aggs[0].Valid || res.Aggs[0].F != 5 || !res.Aggs[1].Valid || res.Aggs[1].F != 7 {
			t.Fatalf("assign %v: extremes = %+v, want valid 5/7", assign, res.Aggs)
		}
	}

	// All matched values NaN: no extreme exists.
	res, err := MustNewStore(ds, table.MustBuildPartitioning(ds, []int{0, 0, 0}, 1)).
		ScanFull(query.Query{Preds: []query.Predicate{query.IntRange("id", 0, 0)}}, aggs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matched != 1 || res.Aggs[0].Valid || res.Aggs[1].Valid {
		t.Fatalf("all-NaN match: %+v", res.Aggs)
	}
}

// TestIntSumOverflowInvalid pins that an int64 sum which overflows is
// reported invalid rather than silently wrapped — the same
// no-silent-corruption standard the float path (value_s spelling) and
// the ingest widening guard hold.
func TestIntSumOverflowInvalid(t *testing.T) {
	schema := table.NewSchema(table.Column{Name: "v", Type: table.Int64})
	b := table.NewBuilder(schema, 3)
	b.AppendRow(table.Int(math.MaxInt64 - 1))
	b.AppendRow(table.Int(2))
	b.AppendRow(table.Int(5))
	ds := b.Build()
	store := MustNewStore(ds, table.MustBuildPartitioning(ds, []int{0, 0, 0}, 1))

	q := query.Query{Preds: []query.Predicate{query.IntGE("v", math.MinInt64)}}
	res, err := store.ScanFull(q, []AggSpec{{Op: AggSum, Col: "v"}, {Op: AggCount}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aggs[0].Valid || res.Aggs[0].I != 0 {
		t.Fatalf("overflowed sum = %+v, want invalid 0", res.Aggs[0])
	}
	// Overflow latches: the later small row cannot resurrect validity.
	if !res.Aggs[1].Valid || res.Aggs[1].I != 3 {
		t.Fatalf("count alongside overflow = %+v", res.Aggs[1])
	}

	// A sum that stays in range remains valid and exact.
	q = query.Query{Preds: []query.Predicate{query.IntRange("v", 0, 10)}}
	res, err = store.ScanFull(q, []AggSpec{{Op: AggSum, Col: "v"}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aggs[0].Valid || res.Aggs[0].I != 7 {
		t.Fatalf("in-range sum = %+v, want valid 7", res.Aggs[0])
	}
}

func TestValidateAggs(t *testing.T) {
	_, store := fixtureStore(t)
	if err := ValidateAggs(store.schema, []AggSpec{{Op: AggCount}, {Op: AggSum, Col: "price"}}); err != nil {
		t.Errorf("legal aggs rejected: %v", err)
	}
	if err := ValidateAggs(store.schema, []AggSpec{{Op: AggSum, Col: "tag"}}); err == nil {
		t.Error("string sum accepted")
	}
	if err := ValidateAggs(store.schema, []AggSpec{{Op: AggMin, Col: "ghost"}}); err == nil {
		t.Error("unknown column accepted")
	}
}

func TestScanValidation(t *testing.T) {
	_, store := fixtureStore(t)
	q := query.Query{Preds: []query.Predicate{query.IntGE("id", 0)}}

	if _, err := store.Scan(q, []int{0, 4}, nil, Options{}); err == nil {
		t.Error("out-of-range survivor accepted")
	}
	if _, err := store.Scan(q, []int{-1}, nil, Options{}); err == nil {
		t.Error("negative survivor accepted")
	}
	if _, err := store.Scan(q, []int{1, 1}, nil, Options{}); err == nil {
		t.Error("duplicate survivor accepted")
	}
	if _, err := store.Scan(q, []int{2, 1}, nil, Options{}); err == nil {
		t.Error("descending survivor list accepted")
	}
	if _, err := store.ScanFull(q, []AggSpec{{Op: AggSum, Col: "tag"}}, Options{}); err == nil {
		t.Error("sum over string column accepted")
	}
	if _, err := store.ScanFull(q, []AggSpec{{Op: AggMin, Col: "ghost"}}, Options{}); err == nil {
		t.Error("aggregate on unknown column accepted")
	}
	if _, err := store.ScanFull(q, []AggSpec{{Op: AggOp(99)}}, Options{}); err == nil {
		t.Error("unknown aggregate op accepted")
	}
}

func TestNewStoreShape(t *testing.T) {
	ds, store := fixtureStore(t)
	if len(store.blocks) != 4 || store.TotalRows() != 8 {
		t.Fatalf("store shape %d/%d, want 4 partitions 8 rows", len(store.blocks), store.TotalRows())
	}
	for pid := 0; pid < 4; pid++ {
		blk := store.blocks[pid]
		if blk.NumRows() != store.Partitioning().RowsInPartition(pid) {
			t.Fatalf("block %d holds %d rows, meta says %d",
				pid, blk.NumRows(), store.Partitioning().RowsInPartition(pid))
		}
		// Blocks preserve dataset order and values.
		for r := 0; r < blk.NumRows(); r++ {
			orig := store.rowIDs[pid][r]
			if blk.Int64At(0, r) != ds.Int64At(0, orig) || blk.StringAt(2, r) != ds.StringAt(2, orig) {
				t.Fatalf("block %d row %d does not match dataset row %d", pid, r, orig)
			}
		}
	}

	// Row-count mismatch between dataset and partitioning must fail.
	other := table.NewBuilder(ds.Schema(), 1)
	other.AppendRow(table.Int(1), table.Float(1), table.Str("x"))
	if _, err := NewStore(other.Build(), store.Partitioning()); err == nil {
		t.Error("store over mismatched partitioning accepted")
	}
}

func TestParseAggOp(t *testing.T) {
	for name, want := range map[string]AggOp{"count": AggCount, "sum": AggSum, "min": AggMin, "max": AggMax} {
		got, err := ParseAggOp(name)
		if err != nil || got != want {
			t.Errorf("ParseAggOp(%q) = %v, %v", name, got, err)
		}
		if got.String() != name {
			t.Errorf("%v.String() = %q, want %q", got, got.String(), name)
		}
	}
	if _, err := ParseAggOp("avg"); err == nil {
		t.Error("unknown op parsed")
	}
}
