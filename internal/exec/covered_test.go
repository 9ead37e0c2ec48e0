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

// extremeInt draws an int64 cell or bound: mostly small values, but
// often enough the ends of the domain (where the kernels' unsigned
// range compare wraps) and magnitudes near 2^62 (two of which overflow
// a sum, inside one block or across two).
func extremeInt(rng *rand.Rand) int64 {
	switch rng.Intn(10) {
	case 0:
		return math.MinInt64 + rng.Int63n(2)
	case 1:
		return math.MaxInt64 - rng.Int63n(2)
	case 2:
		return 1<<62 + rng.Int63n(5)
	case 3:
		return -(1 << 62) - rng.Int63n(5)
	default:
		return rng.Int63n(1000) - 500
	}
}

// rangeScenario is randomScenario's clustered counterpart: rows are
// assigned to partitions by rank on one numeric column, the shape a
// sort or Qd-tree layout produces, so a block's [min, max] on that
// column is narrow and range predicates cover whole blocks. Int cells
// come from extremeInt; floats keep their NaNs.
func rangeScenario(rng *rand.Rand) (*table.Dataset, *table.Partitioning) {
	ncols := 1 + rng.Intn(4)
	cols := make([]table.Column, ncols)
	for i := range cols {
		typ := table.Int64 // most columns, and always the first: the covered path is theirs
		if i > 0 && rng.Intn(3) == 0 {
			typ = table.ColType(rng.Intn(3))
		}
		cols[i] = table.Column{Name: fmt.Sprintf("c%d", i), Type: typ}
	}
	schema := table.NewSchema(cols...)

	nrows := 1 + rng.Intn(400)
	b := table.NewBuilder(schema, nrows)
	row := make([]table.Value, ncols)
	for r := 0; r < nrows; r++ {
		for c, col := range cols {
			switch col.Type {
			case table.Int64:
				row[c] = table.Int(extremeInt(rng))
			case table.Float64:
				if rng.Intn(20) == 0 {
					row[c] = table.Float(math.NaN())
				} else {
					row[c] = table.Float(rng.NormFloat64() * 100)
				}
			case table.String:
				row[c] = table.Str(fmt.Sprintf("s%03d", rng.Intn(30)))
			}
		}
		b.AppendRow(row...)
	}
	ds := b.Build()

	var numeric []int
	for c, col := range cols {
		if col.Type != table.String {
			numeric = append(numeric, c)
		}
	}
	by := numeric[rng.Intn(len(numeric))]
	order := rng.Perm(nrows)
	sort.SliceStable(order, func(i, j int) bool {
		if cols[by].Type == table.Int64 {
			return ds.Int64At(by, order[i]) < ds.Int64At(by, order[j])
		}
		return ds.Float64At(by, order[i]) < ds.Float64At(by, order[j]) // NaNs stay where Perm left them
	})
	k := 1 + rng.Intn(12)
	assign := make([]int, nrows)
	for rank, r := range order {
		assign[r] = rank * k / nrows
	}
	return ds, table.MustBuildPartitioning(ds, assign, k+rng.Intn(3)) // sometimes trailing empty partitions
}

// extremeQuery draws predicates whose bounds sit where the kernels and
// the coverage test can go wrong: the ends of the int64 domain, ±Inf,
// one-sided and bound-free ranges, and inverted ranges (lo > hi).
func extremeQuery(rng *rand.Rand, schema *table.Schema) query.Query {
	npreds := 1 + rng.Intn(3)
	preds := make([]query.Predicate, 0, npreds)
	floatBound := func() float64 {
		switch rng.Intn(5) {
		case 0:
			return math.Inf(-1)
		case 1:
			return math.Inf(1)
		default:
			return rng.NormFloat64() * 100
		}
	}
	for i := 0; i < npreds; i++ {
		col := schema.Col(rng.Intn(schema.NumCols()))
		if col.Type == table.String && rng.Intn(4) > 0 {
			vals := make([]string, 1+rng.Intn(6))
			for j := range vals {
				vals[j] = fmt.Sprintf("s%03d", rng.Intn(40))
			}
			preds = append(preds, query.StrIn(col.Name, vals...))
			continue
		}
		// Numeric shape; on a string column it is the type mismatch.
		p := query.Predicate{Col: col.Name, HasLo: rng.Intn(2) == 0, HasHi: rng.Intn(2) == 0}
		p.LoI, p.HiI = extremeInt(rng), extremeInt(rng)
		if rng.Intn(4) > 0 && p.LoI > p.HiI {
			p.LoI, p.HiI = p.HiI, p.LoI // keep some inverted ranges, not half of all
		}
		p.LoF, p.HiF = floatBound(), floatBound()
		preds = append(preds, p)
	}
	return query.Query{ID: rng.Intn(1000), Template: -1, Preds: preds}
}

// summaryAggs asks for what a covered block answers from its summary (a
// count and a sum per numeric column, so int overflow latches are
// exercised) and what it folds over the identity selection (extremes).
func summaryAggs(rng *rand.Rand, schema *table.Schema) []AggSpec {
	aggs := []AggSpec{{Op: AggCount}}
	for c := 0; c < schema.NumCols(); c++ {
		col := schema.Col(c)
		if col.Type != table.String {
			aggs = append(aggs, AggSpec{Op: AggSum, Col: col.Name})
		}
		if rng.Intn(2) == 0 {
			aggs = append(aggs, AggSpec{Op: []AggOp{AggMin, AggMax}[rng.Intn(2)], Col: col.Name})
		}
	}
	return aggs
}

// checkCoveredScenario runs one clustered scenario through both
// equality properties and returns how many (non-empty block, bound
// predicate) pairs its queries produced and how many of them the
// metadata covered.
func checkCoveredScenario(t testing.TB, rng *rand.Rand, queries int) (pairs, covered int) {
	t.Helper()
	ds, part := rangeScenario(rng)
	store := MustNewStore(ds, part)
	sc := new(scanScratch)
	for i := 0; i < queries; i++ {
		q := extremeQuery(rng, ds.Schema())
		aggs := summaryAggs(rng, ds.Schema())
		ids, _ := prune.Compile(ds.Schema(), q).Survivors(part)
		checkEngineEquality(t, store, q, aggs, ids)
		checkEngineEquality(t, store, q, aggs, store.AllPartitions())
		checkScanEquality(t, ds, part, store, q, aggs)
		if store.bindKernels(sc, q) {
			continue
		}
		for pid, blk := range store.blocks {
			if blk.NumRows() == 0 {
				continue
			}
			for j := range sc.preds {
				pairs++
				if sc.preds[j].covers(part.Meta()[pid].Stats) {
					covered++
				}
			}
		}
	}
	return pairs, covered
}

// TestCoveredScanEqualityProperty is the equality properties over the
// corpus that reaches the covered path and the kernels' boundaries,
// which randomScenario's random assignment and small ints almost never
// do. The floor keeps it honest: a generator change that stops
// producing covered blocks fails here instead of passing vacuously.
func TestCoveredScanEqualityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	pairs, covered := 0, 0
	for trial := 0; trial < 40; trial++ {
		p, c := checkCoveredScenario(t, rng, 15)
		pairs, covered = pairs+p, covered+c
	}
	t.Logf("%d of %d (block, predicate) pairs covered (%.0f%%)", covered, pairs, 100*float64(covered)/float64(pairs))
	if covered*5 < pairs {
		t.Fatalf("only %d of %d (block, predicate) pairs covered: the corpus no longer exercises the covered path", covered, pairs)
	}
}

// TestCoveredSumOverflow pins the stored sum partial's overflow latch
// on the two shapes a row-order fold meets it: inside one covered
// block, and only when two covered blocks' partials merge.
func TestCoveredSumOverflow(t *testing.T) {
	schema := table.NewSchema(table.Column{Name: "v", Type: table.Int64})
	const big = int64(1) << 62
	cases := []struct {
		name   string
		vals   []int64
		assign []int
	}{
		{"inside one block", []int64{big, big, 1, 2}, []int{0, 0, 1, 1}},
		{"across two blocks", []int64{big, 1, big, 2}, []int{0, 0, 1, 1}},
		{"negative, inside one block", []int64{-big, -big, -1, 5}, []int{0, 0, 0, 1}},
	}
	q := query.Query{Preds: []query.Predicate{query.IntGE("v", math.MinInt64)}}
	aggs := []AggSpec{{Op: AggSum, Col: "v"}, {Op: AggCount}, {Op: AggMax, Col: "v"}}
	for _, tc := range cases {
		b := table.NewBuilder(schema, len(tc.vals))
		for _, v := range tc.vals {
			b.AppendRow(table.Int(v))
		}
		ds := b.Build()
		store := MustNewStore(ds, table.MustBuildPartitioning(ds, tc.assign, 2))
		checkEngineEquality(t, store, q, aggs, store.AllPartitions())
		res, err := store.ScanFull(q, aggs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.PartitionsCovered != 2 {
			t.Errorf("%s: %d blocks covered, want both", tc.name, res.PartitionsCovered)
		}
		if res.Aggs[0].Valid || res.Aggs[0].I != 0 {
			t.Errorf("%s: overflowed sum = %+v, want invalid 0", tc.name, res.Aggs[0])
		}
		if !res.Aggs[1].Valid || res.Aggs[1].I != int64(len(tc.vals)) {
			t.Errorf("%s: count beside the overflow = %+v", tc.name, res.Aggs[1])
		}
	}
}

// TestPartitionsCovered pins the counter's meaning on the fixture: a
// block counts only when every predicate is covered, Float64 and string
// predicates never are, and covered blocks still count as read and
// examined in full.
func TestPartitionsCovered(t *testing.T) {
	_, store := fixtureStore(t) // ids 0..7, two per block
	cases := []struct {
		name    string
		preds   []query.Predicate
		covered int
		matched int
	}{
		{"range over two whole blocks and half of two", []query.Predicate{query.IntRange("id", 1, 6)}, 2, 6},
		{"whole table", []query.Predicate{query.IntGE("id", 0)}, 4, 8},
		{"inverted range", []query.Predicate{{Col: "id", HasLo: true, HasHi: true, LoI: 6, HiI: 1}}, 0, 0},
		{"float predicate beside a covering int one", []query.Predicate{query.IntGE("id", 0), query.FloatGE("price", 0)}, 0, 8},
		{"string predicate alone", []query.Predicate{query.StrIn("tag", "a", "b")}, 0, 2},
		{"no predicate", nil, 4, 8},
	}
	for _, tc := range cases {
		q := query.Query{Preds: tc.preds}
		for _, par := range []int{1, 3} {
			res, err := store.ScanFull(q, []AggSpec{{Op: AggCount}}, Options{Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			if res.PartitionsCovered != tc.covered || res.Matched != tc.matched {
				t.Errorf("%s (par=%d): covered %d matched %d, want %d and %d",
					tc.name, par, res.PartitionsCovered, res.Matched, tc.covered, tc.matched)
			}
			if res.PartitionsRead != 4 || res.RowsExamined != 8 {
				t.Errorf("%s (par=%d): read %d blocks / %d rows, want 4 / 8", tc.name, par, res.PartitionsRead, res.RowsExamined)
			}
		}
		checkEngineEquality(t, store, q, []AggSpec{{Op: AggCount}, {Op: AggSum, Col: "price"}, {Op: AggMin, Col: "tag"}}, store.AllPartitions())
	}
}

// TestScanAllocations pins what a steady-state sequential scan
// allocates: a fully covered scan nothing beyond its Result's aggregate
// slice, and a scan carrying a delta only that plus the delta's bound
// row filter — not a fresh partial slice per scan.
func TestScanAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	ds, store := benchStore(4096, 8)
	aggs := []AggSpec{{Op: AggCount}, {Op: AggSum, Col: "val"}}
	q := query.Query{Preds: []query.Predicate{query.IntRange("ts", 1024, 3071)}}
	ids, _ := prune.Compile(ds.Schema(), q).Survivors(store.Partitioning())

	covered := testing.AllocsPerRun(100, func() {
		res, err := store.Scan(q, ids, aggs, Options{})
		if err != nil || res.PartitionsCovered != len(ids) || res.Matched != 2048 {
			t.Fatalf("covered scan: %v (covered %d of %d, matched %d)", err, res.PartitionsCovered, len(ids), res.Matched)
		}
	})
	if covered > 1 {
		t.Errorf("fully covered scan allocates %.0f times, want 1 (Result.Aggs)", covered)
	}

	db := table.NewBuilder(ds.Schema(), 64)
	for i := 0; i < 64; i++ {
		db.AppendRow(table.Int(int64(2000+i)), table.Float(1))
	}
	delta := db.Build()
	withDelta := testing.AllocsPerRun(100, func() {
		res, err := store.Scan(q, ids, aggs, Options{Delta: delta})
		if err != nil || res.Matched != 2048+64 {
			t.Fatalf("delta scan: %v (matched %d)", err, res.Matched)
		}
	})
	if withDelta > 2 {
		t.Errorf("scan with a delta allocates %.0f times, want 2 (Result.Aggs, the delta's row filter)", withDelta)
	}
}
