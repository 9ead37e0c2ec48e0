package prune

import (
	"fmt"
	"math"
	"testing"

	"oreo/internal/query"
	"oreo/internal/table"
)

// testSchema is the three-type schema the edge-case tests run on.
func testSchema() *table.Schema {
	return table.NewSchema(
		table.Column{Name: "ts", Type: table.Int64},
		table.Column{Name: "val", Type: table.Float64},
		table.Column{Name: "cat", Type: table.String},
	)
}

// testPartitioning builds n rows split across k partitions round-robin.
func testPartitioning(t testing.TB, n, k int) (*table.Schema, *table.Partitioning) {
	t.Helper()
	schema := testSchema()
	b := table.NewBuilder(schema, n)
	cats := []string{"a", "b", "c", "d"}
	for i := 0; i < n; i++ {
		b.AppendRow(table.Int(int64(i)), table.Float(float64(i)/2), table.Str(cats[i%len(cats)]))
	}
	d := b.Build()
	assign := make([]int, n)
	for i := range assign {
		assign[i] = i % k
	}
	return schema, table.MustBuildPartitioning(d, assign, k)
}

// check asserts the compiled cost is bitwise-equal to the interpreted
// cost for the query.
func check(t *testing.T, schema *table.Schema, part *table.Partitioning, q query.Query) float64 {
	t.Helper()
	want := query.FractionScanned(schema, part, q)
	got := Compile(schema, q).FractionScanned(part)
	if got != want {
		t.Fatalf("compiled cost %v != interpreted %v for %v", got, want, q.Preds)
	}
	return got
}

func TestUnknownColumnStaysConservative(t *testing.T) {
	schema, part := testPartitioning(t, 1000, 8)
	q := query.Query{Preds: []query.Predicate{query.IntRange("no_such_col", 0, 10)}}
	if c := check(t, schema, part, q); c != 1 {
		t.Errorf("unknown column pruned partitions: cost %v, want 1 (unprunable)", c)
	}
	// Unknown column conjoined with a selective predicate: only the
	// known predicate prunes.
	q2 := query.Query{Preds: []query.Predicate{
		query.StrEq("ghost", "x"),
		query.IntRange("ts", 0, 7),
	}}
	want := query.FractionScanned(schema, part, query.Query{Preds: q2.Preds[1:]})
	if c := check(t, schema, part, q2); c != want {
		t.Errorf("cost %v, want %v (unknown pred must be a no-op)", c, want)
	}
}

func TestTypeMismatchedPredicates(t *testing.T) {
	schema, part := testPartitioning(t, 500, 4)
	cases := []query.Query{
		// Numeric predicate on a string column.
		{Preds: []query.Predicate{query.IntRange("cat", 0, 10)}},
		{Preds: []query.Predicate{query.FloatGE("cat", 1.5)}},
		// String predicate on numeric columns.
		{Preds: []query.Predicate{query.StrEq("ts", "5")}},
		{Preds: []query.Predicate{query.StrIn("val", "a", "b")}},
		// Empty IN list is a numeric-shaped predicate on a string column.
		{Preds: []query.Predicate{{Col: "cat"}}},
	}
	for _, q := range cases {
		cq := Compile(schema, q)
		if !cq.NeverMatches() {
			t.Errorf("%v: expected NeverMatches", q.Preds)
		}
		if c := check(t, schema, part, q); c != 0 {
			t.Errorf("%v: cost %v, want 0", q.Preds, c)
		}
	}
}

func TestEmptyQueryAndEmptyTable(t *testing.T) {
	schema, part := testPartitioning(t, 300, 4)
	// Empty conjunction: full scan.
	if c := check(t, schema, part, query.Query{}); c != 1 {
		t.Errorf("empty query cost %v, want 1", c)
	}
	// Empty dataset: zero cost, no division by zero.
	b := table.NewBuilder(schema, 0)
	empty := table.MustBuildPartitioning(b.Build(), nil, 3)
	if c := check(t, schema, empty, query.Query{}); c != 0 {
		t.Errorf("empty table cost %v, want 0", c)
	}
	if c := check(t, schema, empty, query.Query{Preds: []query.Predicate{query.IntGE("ts", 0)}}); c != 0 {
		t.Errorf("empty table predicate cost %v, want 0", c)
	}
}

func TestEmptyPartitionsNeverScanned(t *testing.T) {
	schema := testSchema()
	b := table.NewBuilder(schema, 10)
	for i := 0; i < 10; i++ {
		b.AppendRow(table.Int(int64(i)), table.Float(1), table.Str("a"))
	}
	// All rows in partition 3 of 8: partitions 0-2 and 4-7 are empty.
	assign := make([]int, 10)
	for i := range assign {
		assign[i] = 3
	}
	part := table.MustBuildPartitioning(b.Build(), assign, 8)
	if c := check(t, schema, part, query.Query{}); c != 1 {
		t.Errorf("cost %v, want 1 (all rows in one partition)", c)
	}
	if c := check(t, schema, part, query.Query{Preds: []query.Predicate{query.IntGE("ts", 100)}}); c != 0 {
		t.Errorf("cost %v, want 0 (bounds exclude every row)", c)
	}
}

func TestNoBoundNumericPredicate(t *testing.T) {
	schema, part := testPartitioning(t, 200, 4)
	// A numeric predicate with neither bound set matches every non-empty
	// partition (it still runs the emptiness check, like MayMatch).
	q := query.Query{Preds: []query.Predicate{{Col: "ts"}}}
	if c := check(t, schema, part, q); c != 1 {
		t.Errorf("cost %v, want 1", c)
	}
}

func TestNaNMetadataStaysScannable(t *testing.T) {
	schema := testSchema()
	m := table.NewPartitionMeta(0, schema)
	m.Stats[0].AddInt(5)
	m.Stats[1].AddFloat(5)
	m.Stats[2].AddString("a")
	m.NumRows = 1
	// Poison the float column's range with NaN: no bound comparison can
	// prune it, so the partition must stay scannable.
	m.Stats[1].MinF = math.NaN()
	m.Stats[1].MaxF = math.NaN()
	part := table.NewPartitioning([]*table.PartitionMeta{m}, nil)

	q := query.Query{Preds: []query.Predicate{query.FloatRange("val", 10, 20)}}
	if c := check(t, schema, part, q); c != 1 {
		t.Errorf("NaN metadata pruned the partition: cost %v, want 1", c)
	}
}

func TestAllNaNObservationsMatchInterpreted(t *testing.T) {
	// A partition whose float column saw only NaN keeps its initial
	// +Inf/-Inf range; compiled and interpreted must agree on it.
	schema := testSchema()
	b := table.NewBuilder(schema, 4)
	for i := 0; i < 4; i++ {
		b.AppendRow(table.Int(int64(i)), table.Float(math.NaN()), table.Str("a"))
	}
	part := table.MustBuildPartitioning(b.Build(), []int{0, 0, 1, 1}, 2)
	check(t, schema, part, query.Query{Preds: []query.Predicate{query.FloatRange("val", 0, 1)}})
	check(t, schema, part, query.Query{Preds: []query.Predicate{query.FloatGE("val", -1)}})
	check(t, schema, part, query.Query{Preds: []query.Predicate{{Col: "val"}}})
}

func TestInSetInterningAndBloomOverflow(t *testing.T) {
	schema := testSchema()
	// > MaxTrackedDistinct distinct strings per partition forces the
	// Bloom overflow path.
	n := 4 * (table.MaxTrackedDistinct + 40)
	b := table.NewBuilder(schema, n)
	for i := 0; i < n; i++ {
		b.AppendRow(table.Int(int64(i)), table.Float(0), table.Str(fmt.Sprintf("v%04d", i%(table.MaxTrackedDistinct+40))))
	}
	assign := make([]int, n)
	for i := range assign {
		assign[i] = i % 4
	}
	part := table.MustBuildPartitioning(b.Build(), assign, 4)

	// Duplicated IN values must not change the result (interning dedupes).
	q := query.Query{Preds: []query.Predicate{query.StrIn("cat", "v0001", "v0001", "zzz", "v0050", "zzz")}}
	check(t, schema, part, q)
	// Definitely-absent values (outside the min/max string range).
	check(t, schema, part, query.Query{Preds: []query.Predicate{query.StrEq("cat", "aaaa")}})
	check(t, schema, part, query.Query{Preds: []query.Predicate{query.StrEq("cat", "w999")}})
}

func TestFingerprintIdentity(t *testing.T) {
	base := query.Query{ID: 1, Template: 2, Preds: []query.Predicate{query.IntRange("ts", 3, 9)}}
	same := query.Query{ID: 99, Template: -1, Preds: []query.Predicate{query.IntRange("ts", 3, 9)}}
	if Fingerprint(base) != Fingerprint(same) {
		t.Error("ID/Template must not affect the fingerprint")
	}
	variants := []query.Query{
		{Preds: []query.Predicate{query.IntRange("ts", 3, 10)}},
		{Preds: []query.Predicate{query.IntRange("val", 3, 9)}},
		{Preds: []query.Predicate{query.IntGE("ts", 3)}},
		{Preds: []query.Predicate{query.FloatRange("ts", 3, 9)}},
		{Preds: []query.Predicate{query.StrIn("ts", "3", "9")}},
		{Preds: []query.Predicate{query.IntRange("ts", 3, 9), query.IntGE("ts", 0)}},
		{},
	}
	seen := map[string]int{Fingerprint(base): -1}
	for i, q := range variants {
		fp := Fingerprint(q)
		if j, dup := seen[fp]; dup {
			t.Errorf("variant %d collides with %d", i, j)
		}
		seen[fp] = i
	}
	// Injectivity against concatenation confusion: ("ab","c") vs ("a","bc").
	a := query.Query{Preds: []query.Predicate{query.StrIn("x", "ab", "c")}}
	bq := query.Query{Preds: []query.Predicate{query.StrIn("x", "a", "bc")}}
	if Fingerprint(a) == Fingerprint(bq) {
		t.Error("length prefixes failed: IN lists collide")
	}
}

func TestEngineMemoization(t *testing.T) {
	schema, part := testPartitioning(t, 1000, 8)
	e := NewEngine(schema, part)
	q := query.Query{Preds: []query.Predicate{query.IntRange("ts", 10, 200)}}

	first := e.Cost(q)
	if st := e.Stats(); st.Hits != 0 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("after first cost: %+v", st)
	}
	for i := 0; i < 5; i++ {
		if c := e.Cost(q); c != first {
			t.Fatalf("memoized cost changed: %v != %v", c, first)
		}
	}
	if st := e.Stats(); st.Hits != 5 || st.Misses != 1 {
		t.Fatalf("after repeats: %+v", st)
	}
	// A re-issued template instance (different ID) must hit.
	q2 := q
	q2.ID = 777
	e.Cost(q2)
	if st := e.Stats(); st.Hits != 6 {
		t.Fatalf("ID change missed the memo: %+v", st)
	}
	if want := query.FractionScanned(schema, part, q); first != want {
		t.Fatalf("engine cost %v != interpreted %v", first, want)
	}
}

func TestEngineMemoBounded(t *testing.T) {
	schema, part := testPartitioning(t, 200, 4)
	e := NewEngineCapacity(schema, part, 8)
	for i := int64(0); i < 100; i++ {
		e.Cost(query.Query{Preds: []query.Predicate{query.IntGE("ts", i)}})
	}
	if st := e.Stats(); st.Entries > 8 {
		t.Fatalf("memo exceeded capacity: %+v", st)
	}
	// LRU keeps the most recent entry resident.
	e.Cost(query.Query{Preds: []query.Predicate{query.IntGE("ts", 99)}})
	if st := e.Stats(); st.Hits != 1 {
		t.Fatalf("most recent entry was evicted: %+v", st)
	}
	// Disabled memo still computes correct costs.
	off := NewEngineCapacity(schema, part, 0)
	q := query.Query{Preds: []query.Predicate{query.IntRange("ts", 5, 50)}}
	if got, want := off.Cost(q), query.FractionScanned(schema, part, q); got != want {
		t.Fatalf("memo-less engine cost %v != %v", got, want)
	}
}

func TestCompiledRebindsAcrossSchemas(t *testing.T) {
	schemaA, partA := testPartitioning(t, 300, 4)
	// A second table whose "ts" lives at a different column index and
	// whose "cat" is numeric: a compiled query from schema A must be
	// rebound, not evaluated with stale indices.
	schemaB := table.NewSchema(
		table.Column{Name: "cat", Type: table.Int64},
		table.Column{Name: "ts", Type: table.Int64},
	)
	b := table.NewBuilder(schemaB, 100)
	for i := 0; i < 100; i++ {
		b.AppendRow(table.Int(int64(i%7)), table.Int(int64(i)))
	}
	assign := make([]int, 100)
	for i := range assign {
		assign[i] = i % 4
	}
	partB := table.MustBuildPartitioning(b.Build(), assign, 4)

	q := query.Query{Preds: []query.Predicate{query.IntRange("ts", 0, 20)}}
	cq := Compile(schemaA, q)
	_ = Compile(schemaA, q).FractionScanned(partA)

	eB := NewEngine(schemaB, partB)
	if got, want := eB.CostCompiled(cq), query.FractionScanned(schemaB, partB, q); got != want {
		t.Fatalf("cross-schema CostCompiled %v != interpreted %v", got, want)
	}
}
