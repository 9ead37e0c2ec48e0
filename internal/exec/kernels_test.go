package exec

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"oreo/internal/prune"
	"oreo/internal/query"
	"oreo/internal/table"
)

// checkEngineEquality is the tentpole's second property: for one
// (store, query, aggs, survivors) tuple, the vectorized sequential
// scan, the parallel scan at several worker counts, and the
// interpreted row-at-a-time engine return bitwise-identical results —
// same RowID sequence, same aggregate IEEE-754 bits, same counters.
func checkEngineEquality(t testing.TB, store *Store, q query.Query, aggs []AggSpec, survivors []int) {
	t.Helper()
	ref, err := store.ScanInterpreted(q, survivors, aggs, Options{CollectRows: true})
	if err != nil {
		t.Fatalf("interpreted scan: %v", err)
	}
	for _, par := range []int{0, 1, 2, 3, 8} {
		got, err := store.Scan(q, survivors, aggs, Options{CollectRows: true, Parallelism: par})
		if err != nil {
			t.Fatalf("scan par=%d: %v", par, err)
		}
		if got.Matched != ref.Matched || got.PartitionsRead != ref.PartitionsRead || got.RowsExamined != ref.RowsExamined {
			t.Fatalf("par=%d counters (%d,%d,%d) != interpreted (%d,%d,%d)\nquery: %+v",
				par, got.Matched, got.PartitionsRead, got.RowsExamined,
				ref.Matched, ref.PartitionsRead, ref.RowsExamined, q.Preds)
		}
		if len(got.RowIDs) != len(ref.RowIDs) {
			t.Fatalf("par=%d rows %v != interpreted %v\nquery: %+v", par, got.RowIDs, ref.RowIDs, q.Preds)
		}
		for i := range ref.RowIDs {
			if got.RowIDs[i] != ref.RowIDs[i] {
				t.Fatalf("par=%d row sequence diverges at %d: %v vs %v\nquery: %+v",
					par, i, got.RowIDs, ref.RowIDs, q.Preds)
			}
		}
		if !sameAggs(got.Aggs, ref.Aggs) {
			t.Fatalf("par=%d aggs %+v != interpreted %+v\nquery: %+v", par, got.Aggs, ref.Aggs, q.Preds)
		}
		wantWorkers := par
		if wantWorkers > len(survivors) {
			wantWorkers = len(survivors)
		}
		if wantWorkers <= 1 {
			wantWorkers = 1
		}
		if got.Workers > wantWorkers || got.Workers < 1 {
			t.Fatalf("par=%d reported %d workers over %d survivors", par, got.Workers, len(survivors))
		}
	}
}

// TestParallelScanEqualsSequentialProperty fuzzes the three-engine
// equality across random datasets, layouts, queries, and skip-lists.
func TestParallelScanEqualsSequentialProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		ds, part := randomScenario(rng)
		store := MustNewStore(ds, part)
		for i := 0; i < 15; i++ {
			q := randomQuery(rng, ds.Schema())
			aggs := randomAggs(rng, ds.Schema())
			ids, _ := prune.Compile(ds.Schema(), q).Survivors(part)
			checkEngineEquality(t, store, q, aggs, ids)
			checkEngineEquality(t, store, q, aggs, store.AllPartitions())
		}
	}
}

// FuzzParallelScanEquality is the native-fuzzing form: any seed the
// fuzzer invents must keep all three engines bitwise identical.
// Negative seeds draw the clustered, extreme-valued corpus, as in
// FuzzPrunedScanEquality.
func FuzzParallelScanEquality(f *testing.F) {
	for _, seed := range []int64{0, 3, 8, 23, 4321, 424243, -3, -8, -23, math.MinInt64} {
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
		for i := 0; i < 10; i++ {
			q := randomQuery(rng, ds.Schema())
			aggs := randomAggs(rng, ds.Schema())
			ids, _ := prune.Compile(ds.Schema(), q).Survivors(part)
			checkEngineEquality(t, store, q, aggs, ids)
		}
	})
}

// TestDictionaryINSemantics pins the dictionary-encoded IN path on the
// shapes that differ most from per-row string hashing: IN values the
// dictionary has never seen (no code → never matches, even mixed with
// present values), empty partitions (zero-length code arrays), and
// all-unseen sets (the whole conjunction collapses to never).
func TestDictionaryINSemantics(t *testing.T) {
	schema := table.NewSchema(
		table.Column{Name: "id", Type: table.Int64},
		table.Column{Name: "tag", Type: table.String},
	)
	b := table.NewBuilder(schema, 6)
	tags := []string{"red", "blue", "red", "green", "blue", "red"}
	for i, tag := range tags {
		b.AppendRow(table.Int(int64(i)), table.Str(tag))
	}
	ds := b.Build()
	// Partition 1 left empty: its code arrays have zero length.
	part := table.MustBuildPartitioning(ds, []int{0, 0, 2, 2, 3, 3}, 4)
	store := MustNewStore(ds, part)

	cases := []struct {
		name    string
		in      []string
		matched int
	}{
		{"all present", []string{"red", "blue"}, 5},
		{"one present one unseen", []string{"green", "purple"}, 1},
		{"all unseen", []string{"purple", "orange"}, 0},
		{"duplicate members", []string{"red", "red"}, 3},
	}
	for _, tc := range cases {
		q := query.Query{Preds: []query.Predicate{query.StrIn("tag", tc.in...)}}
		checkEngineEquality(t, store, q, []AggSpec{{Op: AggCount}, {Op: AggMin, Col: "tag"}}, store.AllPartitions())
		res, err := store.ScanFull(q, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Matched != tc.matched {
			t.Errorf("%s: matched %d, want %d", tc.name, res.Matched, tc.matched)
		}
	}

	// The shared dictionary covers the whole dataset, so codes decode
	// back to the original cells in every block — including none at all
	// in the empty one.
	ci := 1
	dict := store.Dict(ci)
	if dict == nil || dict.Len() != 3 {
		t.Fatalf("tag dict = %v, want 3 distinct values", dict)
	}
	if store.Dict(0) != nil {
		t.Fatal("int column grew a dictionary")
	}
	for pid := 0; pid < store.NumPartitions(); pid++ {
		blk := store.Block(pid)
		if blk.Dict(ci) != dict {
			t.Fatalf("block %d does not share the dataset's dictionary", pid)
		}
		codes := blk.StringCodes(ci)
		if len(codes) != blk.NumRows() {
			t.Fatalf("block %d: %d codes for %d rows", pid, len(codes), blk.NumRows())
		}
		for r, c := range codes {
			if dict.Value(c) != blk.StringAt(ci, r) {
				t.Fatalf("block %d row %d: code %d decodes to %q, want %q",
					pid, r, c, dict.Value(c), blk.StringAt(ci, r))
			}
		}
	}
}

// countingCtx reports canceled after Err has been consulted limit
// times — a deterministic way to cancel mid-scan regardless of
// scheduling, since the scan checks Err between blocks.
type countingCtx struct {
	context.Context
	calls atomic.Int64
	limit int64
}

func (c *countingCtx) Err() error {
	if c.calls.Add(1) > c.limit {
		return context.Canceled
	}
	return nil
}

func (c *countingCtx) Done() <-chan struct{} { return nil }

func benchLikeStore(rows, parts int) *Store {
	schema := table.NewSchema(
		table.Column{Name: "ts", Type: table.Int64},
		table.Column{Name: "val", Type: table.Float64},
	)
	b := table.NewBuilder(schema, rows)
	for i := 0; i < rows; i++ {
		b.AppendRow(table.Int(int64(i)), table.Float(float64(i%997)))
	}
	ds := b.Build()
	assign := make([]int, rows)
	per := (rows + parts - 1) / parts
	for i := range assign {
		assign[i] = i / per
	}
	return MustNewStore(ds, table.MustBuildPartitioning(ds, assign, parts))
}

// TestScanCancellation pins cancellation in both drivers: a context
// canceled mid-scan stops the scan with the context's error (wrapped,
// so errors.Is sees it), and the parallel pool drains its workers —
// run under -race, a leaked worker touching pooled scratch would trip
// the detector.
func TestScanCancellation(t *testing.T) {
	store := benchLikeStore(4096, 64)
	q := query.Query{Preds: []query.Predicate{query.IntGE("ts", 0)}}
	aggs := []AggSpec{{Op: AggCount}, {Op: AggSum, Col: "val"}}

	for _, par := range []int{1, 4} {
		ctx := &countingCtx{Context: context.Background(), limit: 5}
		_, err := store.Scan(q, store.AllPartitions(), aggs, Options{Context: ctx, Parallelism: par})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("par=%d mid-scan cancel returned %v, want context.Canceled", par, err)
		}
	}

	// An already-canceled real context fails before reading anything.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, par := range []int{1, 4} {
		_, err := store.Scan(q, store.AllPartitions(), aggs, Options{Context: ctx, Parallelism: par})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("par=%d pre-canceled scan returned %v", par, err)
		}
	}

	// A context that never cancels changes nothing.
	tctx, tcancel := context.WithTimeout(context.Background(), time.Minute)
	defer tcancel()
	res, err := store.Scan(q, store.AllPartitions(), aggs, Options{Context: tctx, Parallelism: 4})
	if err != nil || res.Matched != 4096 {
		t.Fatalf("live-context scan: %v, matched %d", err, res.Matched)
	}
}

// TestParallelismClamp pins the worker-count resolution: <=1 and
// single-survivor scans run sequentially, requests above the survivor
// count clamp to it, and exec itself does not cap at NumCPU (the
// serving layer does) so multi-worker paths stay testable on small
// machines.
func TestParallelismClamp(t *testing.T) {
	store := benchLikeStore(512, 8)
	q := query.Query{Preds: []query.Predicate{query.IntGE("ts", 0)}}
	cases := []struct {
		par, survivors, want int
	}{
		{0, 8, 1}, {1, 8, 1}, {4, 8, 4}, {64, 8, 8}, {4, 1, 1},
	}
	for _, tc := range cases {
		ids := store.AllPartitions()[:tc.survivors]
		res, err := store.Scan(q, ids, nil, Options{Parallelism: tc.par})
		if err != nil {
			t.Fatal(err)
		}
		if res.Workers != tc.want {
			t.Errorf("par=%d over %d survivors: %d workers, want %d", tc.par, tc.survivors, res.Workers, tc.want)
		}
	}
}

// TestKernelSentinelBounds pins the sentinel-bound trick's edge cases:
// one-sided predicates at the extremes of the value domain, and ±Inf
// data meeting ±Inf sentinels, must match the interpreted engine.
func TestKernelSentinelBounds(t *testing.T) {
	schema := table.NewSchema(
		table.Column{Name: "i", Type: table.Int64},
		table.Column{Name: "f", Type: table.Float64},
	)
	b := table.NewBuilder(schema, 6)
	b.AppendRow(table.Int(math.MinInt64), table.Float(math.Inf(-1)))
	b.AppendRow(table.Int(-1), table.Float(math.NaN()))
	b.AppendRow(table.Int(0), table.Float(0))
	b.AppendRow(table.Int(1), table.Float(-0.0))
	b.AppendRow(table.Int(math.MaxInt64), table.Float(math.Inf(1)))
	b.AppendRow(table.Int(7), table.Float(3.5))
	ds := b.Build()
	store := MustNewStore(ds, table.MustBuildPartitioning(ds, []int{0, 1, 0, 1, 2, 2}, 3))

	queries := []query.Query{
		{Preds: []query.Predicate{query.IntGE("i", math.MinInt64)}},
		{Preds: []query.Predicate{query.IntLE("i", math.MaxInt64)}},
		{Preds: []query.Predicate{query.IntGE("i", 0)}},
		{Preds: []query.Predicate{query.FloatGE("f", math.Inf(-1))}},
		{Preds: []query.Predicate{query.FloatLE("f", math.Inf(1))}},
		{Preds: []query.Predicate{query.FloatRange("f", -1, 4)}},
		{Preds: []query.Predicate{query.FloatGE("f", 0)}},
		// No bounds at all: elided predicate must match every row.
		{Preds: []query.Predicate{{Col: "i"}}},
		{Preds: []query.Predicate{{Col: "f"}}},
	}
	aggs := []AggSpec{{Op: AggCount}, {Op: AggMin, Col: "f"}, {Op: AggMax, Col: "f"}}
	for _, q := range queries {
		checkEngineEquality(t, store, q, aggs, store.AllPartitions())
	}
}
