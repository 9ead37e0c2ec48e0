package layout

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"oreo/internal/query"
	"oreo/internal/table"
)

func testSchema() *table.Schema {
	return table.NewSchema(
		table.Column{Name: "ts", Type: table.Int64},
		table.Column{Name: "amount", Type: table.Float64},
		table.Column{Name: "cat", Type: table.String},
	)
}

// testDataset builds rows with ts increasing, amount random, cat cyclic.
func testDataset(t testing.TB, n int, seed int64) *table.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := table.NewBuilder(testSchema(), n)
	cats := []string{"a", "b", "c", "d"}
	for i := 0; i < n; i++ {
		b.AppendRow(
			table.Int(int64(i)),
			table.Float(rng.Float64()*1000),
			table.Str(cats[rng.Intn(len(cats))]),
		)
	}
	return b.Build()
}

func TestSortLayoutContiguous(t *testing.T) {
	d := testDataset(t, 100, 1)
	l := NewSortGenerator("ts").Generate(d, nil, 4)
	if l.Part.NumPartitions != 4 {
		t.Fatalf("partitions = %d", l.Part.NumPartitions)
	}
	// ts is already sorted, so partition assignment must be the four
	// contiguous quartiles.
	for r := 0; r < 100; r++ {
		want := r * 4 / 100
		if l.Part.Assign[r] != want {
			t.Fatalf("row %d assigned to %d, want %d", r, l.Part.Assign[r], want)
		}
	}
}

func TestSortLayoutSkipsRanges(t *testing.T) {
	d := testDataset(t, 100, 1)
	l := NewSortGenerator("ts").Generate(d, nil, 10)
	q := query.Query{Preds: []query.Predicate{query.IntRange("ts", 0, 9)}}
	if got := l.Cost(q); got != 0.1 {
		t.Errorf("cost of one-decile range = %g, want 0.1", got)
	}
	full := query.Query{}
	if got := l.Cost(full); got != 1 {
		t.Errorf("cost of full scan = %g, want 1", got)
	}
}

func TestSortGeneratorUnknownColumnPanics(t *testing.T) {
	d := testDataset(t, 10, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("unknown sort column did not panic")
		}
	}()
	NewSortGenerator("zzz").Generate(d, nil, 2)
}

func TestSortGeneratorNoColumnsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty column list did not panic")
		}
	}()
	NewSortGenerator()
}

func TestCostVector(t *testing.T) {
	d := testDataset(t, 50, 3)
	l := NewSortGenerator("ts").Generate(d, nil, 5)
	qs := []query.Query{
		{Preds: []query.Predicate{query.IntRange("ts", 0, 9)}},
		{},
	}
	v := l.CostVectorCompiled(l.CompileWorkload(qs))
	if len(v) != 2 {
		t.Fatalf("vector length %d", len(v))
	}
	if v[0] != 0.2 || v[1] != 1 {
		t.Errorf("vector = %v, want [0.2 1]", v)
	}
}

func TestDistanceProperties(t *testing.T) {
	// Zero self-distance, symmetry, range [0,1].
	f := func(raw []uint8) bool {
		a := make([]float64, len(raw))
		b := make([]float64, len(raw))
		for i, x := range raw {
			a[i] = float64(x) / 255
			b[i] = float64((x*7+31)%255) / 255
		}
		if Distance(a, a) != 0 {
			return false
		}
		dab, dba := Distance(a, b), Distance(b, a)
		return dab == dba && dab >= 0 && dab <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDistanceMismatchedLengthsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched lengths did not panic")
		}
	}()
	Distance([]float64{1}, []float64{1, 2})
}

func TestDistanceEmpty(t *testing.T) {
	if got := Distance(nil, nil); got != 0 {
		t.Errorf("empty distance = %g", got)
	}
}

func TestTopQueriedColumns(t *testing.T) {
	schema := testSchema()
	qs := []query.Query{
		{Preds: []query.Predicate{query.IntGE("ts", 1), query.StrEq("cat", "a")}},
		{Preds: []query.Predicate{query.IntGE("ts", 2)}},
		{Preds: []query.Predicate{query.IntGE("ts", 3), query.FloatGE("amount", 1)}},
		{Preds: []query.Predicate{query.IntGE("nosuch", 0)}}, // ignored
	}
	cols := TopQueriedColumns(schema, qs, 2)
	if len(cols) != 2 || cols[0] != "ts" {
		t.Fatalf("TopQueriedColumns = %v", cols)
	}
	// amount and cat tie at 1; tie broken by name.
	if cols[1] != "amount" {
		t.Errorf("tie break wrong: %v", cols)
	}
}

func TestZOrderGeneratesValidPartitioning(t *testing.T) {
	d := testDataset(t, 200, 4)
	qs := []query.Query{
		{Preds: []query.Predicate{query.IntRange("ts", 0, 50), query.StrEq("cat", "a")}},
	}
	l := NewZOrderGenerator(2).Generate(d, qs, 8)
	if l.Part.NumPartitions != 8 {
		t.Fatalf("partitions = %d", l.Part.NumPartitions)
	}
	counts := make([]int, 8)
	for _, pid := range l.Part.Assign {
		counts[pid]++
	}
	for pid, c := range counts {
		if c != 25 {
			t.Errorf("partition %d has %d rows, want 25 (equal-sized chop)", pid, c)
		}
	}
}

func TestZOrderFallbackColumns(t *testing.T) {
	d := testDataset(t, 50, 5)
	// Empty workload: generator must fall back.
	l := NewZOrderGenerator(2, "ts", "cat").Generate(d, nil, 4)
	if l.Name != "zorder(ts,cat)" {
		t.Errorf("fallback layout name = %q", l.Name)
	}
}

func TestZOrderNoColumnsPanics(t *testing.T) {
	d := testDataset(t, 20, 6)
	defer func() {
		if recover() == nil {
			t.Fatal("no columns did not panic")
		}
	}()
	NewZOrderGenerator(2).Generate(d, nil, 2)
}

func TestZOrderKeyStability(t *testing.T) {
	g := NewZOrderGenerator(2, "ts")
	schema := testSchema()
	qs := []query.Query{
		{Preds: []query.Predicate{query.IntGE("ts", 1), query.StrEq("cat", "a")}},
	}
	k1 := g.Key(schema, qs, 8)
	k2 := g.Key(schema, qs, 8)
	if k1 == "" || k1 != k2 {
		t.Errorf("keys unstable: %q vs %q", k1, k2)
	}
	if k3 := g.Key(schema, qs, 16); k3 == k1 {
		t.Error("different k produced the same key")
	}
}

func TestZOrderClustersQueriedColumns(t *testing.T) {
	// A workload filtering on cat should make a cat-aware Z-order layout
	// skip more than the time-sorted layout for cat queries.
	d := testDataset(t, 2000, 7)
	qs := make([]query.Query, 0, 50)
	for i := 0; i < 50; i++ {
		qs = append(qs, query.Query{Preds: []query.Predicate{query.StrEq("cat", "a")}})
	}
	zl := NewZOrderGenerator(1).Generate(d, qs, 16)
	tl := NewSortGenerator("ts").Generate(d, nil, 16)
	probe := query.Query{Preds: []query.Predicate{query.StrEq("cat", "a")}}
	if zc, tc := zl.Cost(probe), tl.Cost(probe); zc >= tc {
		t.Errorf("zorder cost %g not better than time-sort cost %g for clustered column", zc, tc)
	}
}

// TestSortedRowsMatchesValueCompare holds the typed-column sort to the
// permutation the boxed comparison produced: a stable sort by
// ValueAt().Compare over the same columns. The data is made to hurt —
// few distinct values per column so every key ties often, NaN (unordered
// against everything, so the comparison is not even a weak order and the
// result depends on the exact sequence of comparisons made), and -0.0
// beside +0.0. A lone Int64 key takes the radix sort, so it also meets
// the int64 extremes, negative-only and all-equal columns, spans wide
// enough that every byte varies, and row counts around one radix digit.
func TestSortedRowsMatchesValueCompare(t *testing.T) {
	floats := []float64{math.NaN(), math.Copysign(0, -1), 0, 1.5, -2, math.Inf(1), math.Inf(-1)}
	cats := []string{"", "a", "ab", "b", "é"}
	check := func(d *table.Dataset, cols []int, what string) {
		t.Helper()
		want := make([]int, d.NumRows())
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(a, b int) bool {
			for _, c := range cols {
				if cmp := d.ValueAt(c, want[a]).Compare(d.ValueAt(c, want[b])); cmp != 0 {
					return cmp < 0
				}
			}
			return false
		})
		if got := sortedRows(d, cols); !slices.Equal(got, want) {
			t.Fatalf("%s, %d rows, columns %v: typed sort order differs from ValueAt().Compare order", what, d.NumRows(), cols)
		}
	}
	build := func(rng *rand.Rand, n int, int64At func() int64) *table.Dataset {
		b := table.NewBuilder(testSchema(), n)
		for i := 0; i < n; i++ {
			b.AppendRow(
				table.Int(int64At()),
				table.Float(floats[rng.Intn(len(floats))]),
				table.Str(cats[rng.Intn(len(cats))]),
			)
		}
		return b.Build()
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(3000)
		d := build(rng, n, func() int64 { return int64(rng.Intn(7)) - 3 })
		for _, cols := range [][]int{{0}, {1}, {2}, {2, 0}, {1, 2}, {0, 1, 2}, {2, 1, 0}} {
			check(d, cols, fmt.Sprintf("seed %d", seed))
		}
	}

	rng := rand.New(rand.NewSource(21))
	ints := []struct {
		name string
		draw func() int64
	}{
		{"extremes", func() int64 { return []int64{math.MinInt64, math.MaxInt64, math.MinInt64 + 1, -1, 0, 1}[rng.Intn(6)] }},
		{"negative", func() int64 { return -1 - rng.Int63n(5000) }},
		{"equal", func() int64 { return -7 }},
		{"wide", func() int64 { return rng.Int63n(1<<62) - 1<<61 }},
		{"above 2^40", func() int64 { return 1<<40 + rng.Int63n(1<<42) }},
	}
	for _, c := range ints {
		for _, n := range []int{0, 1, 255, 256, 257, 70000} {
			check(build(rng, n, c.draw), []int{0}, c.name)
		}
	}
}
