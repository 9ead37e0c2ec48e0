package layout

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"oreo/internal/datagen"
	"oreo/internal/query"
	"oreo/internal/table"
	"oreo/internal/workload"
)

func qdWorkload(n int, seed int64) []query.Query {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]query.Query, 0, n)
	for i := 0; i < n; i++ {
		switch rng.Intn(3) {
		case 0:
			lo := rng.Int63n(800)
			qs = append(qs, query.Query{ID: i, Preds: []query.Predicate{
				query.IntRange("ts", lo, lo+100)}})
		case 1:
			qs = append(qs, query.Query{ID: i, Preds: []query.Predicate{
				query.StrEq("cat", []string{"a", "b", "c", "d"}[rng.Intn(4)])}})
		default:
			lo := rng.Float64() * 800
			qs = append(qs, query.Query{ID: i, Preds: []query.Predicate{
				query.FloatRange("amount", lo, lo+150)}})
		}
	}
	return qs
}

// tpchDriftWindow draws n queries the way a window of decide-drift's
// stream looks at a run boundary: the first half from one TPC-H
// template, the second half from another, with fresh constants.
func tpchDriftWindow(n int, seed int64) []query.Query {
	templates := workload.TPCHTemplates()
	rng := rand.New(rand.NewSource(seed))
	from := rng.Intn(len(templates))
	to := (from + 1 + rng.Intn(len(templates)-1)) % len(templates)
	qs := make([]query.Query, n)
	for i := range qs {
		t := from
		if i >= n/2 {
			t = to
		}
		qs[i] = query.Query{ID: i, Template: t, Preds: templates[t].Make(rng)}
	}
	return qs
}

func TestQdTreePartitionValidity(t *testing.T) {
	d := testDataset(t, 1000, 10)
	qs := qdWorkload(60, 11)
	l := NewQdTreeGenerator().Generate(d, qs, 16)

	if got := len(l.Part.Assign); got != 1000 {
		t.Fatalf("assignment covers %d rows", got)
	}
	counts := make([]int, l.Part.NumPartitions)
	for _, pid := range l.Part.Assign {
		if pid < 0 || pid >= l.Part.NumPartitions {
			t.Fatalf("invalid partition ID %d", pid)
		}
		counts[pid]++
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 1000 {
		t.Fatalf("rows lost: %d", total)
	}
	if l.Part.NumPartitions > 16 {
		t.Errorf("tree grew %d leaves, cap was 16", l.Part.NumPartitions)
	}
}

func TestQdTreeRespectsLeafCap(t *testing.T) {
	d := testDataset(t, 500, 12)
	qs := qdWorkload(100, 13)
	for _, k := range []int{1, 2, 4, 64} {
		l := NewQdTreeGenerator().Generate(d, qs, k)
		if l.Part.NumPartitions > k {
			t.Errorf("k=%d produced %d leaves", k, l.Part.NumPartitions)
		}
	}
}

func TestQdTreeEmptyWorkloadSinglePartition(t *testing.T) {
	d := testDataset(t, 100, 14)
	l := NewQdTreeGenerator().Generate(d, nil, 8)
	// No cuts can be harvested: the tree stays a single leaf.
	if l.Part.NumPartitions != 1 {
		t.Errorf("empty workload produced %d partitions, want 1", l.Part.NumPartitions)
	}
}

func TestQdTreeBeatsTimeSortOnItsWorkload(t *testing.T) {
	d := testDataset(t, 3000, 15)
	// Workload dominated by categorical filters, which a time sort
	// cannot skip for.
	qs := make([]query.Query, 0, 80)
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 80; i++ {
		qs = append(qs, query.Query{ID: i, Preds: []query.Predicate{
			query.StrEq("cat", []string{"a", "b", "c", "d"}[rng.Intn(4)])}})
	}
	qd := NewQdTreeGenerator().Generate(d, qs, 16)
	ts := NewSortGenerator("ts").Generate(d, nil, 16)
	if qc, tc := qd.AvgCost(qs), ts.AvgCost(qs); qc >= tc {
		t.Errorf("qd-tree avg cost %g not better than time sort %g on its workload", qc, tc)
	}
}

// The skipping-soundness property applied to Qd-tree layouts: no
// partition containing a matching row is ever skipped.
func TestQdTreeSkippingSound(t *testing.T) {
	f := func(seed int64) bool {
		d := testDataset(t, 400, seed)
		qs := qdWorkload(40, seed+1)
		l := NewQdTreeGenerator().Generate(d, qs, 8)
		for _, q := range qs[:10] {
			for r := 0; r < d.NumRows(); r++ {
				if q.MatchRow(d, r) {
					pid := l.Part.Assign[r]
					if !q.MayMatch(d.Schema(), l.Part.Meta()[pid]) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestQdTreeDeterministic(t *testing.T) {
	d := testDataset(t, 600, 17)
	qs := qdWorkload(50, 18)
	a := NewQdTreeGenerator().Generate(d, qs, 8)
	b := NewQdTreeGenerator().Generate(d, qs, 8)
	if a.Name != b.Name {
		t.Fatalf("names differ: %q vs %q", a.Name, b.Name)
	}
	for r := range a.Part.Assign {
		if a.Part.Assign[r] != b.Part.Assign[r] {
			t.Fatal("assignments differ across identical inputs")
		}
	}
}

func TestHarvestCutsDedup(t *testing.T) {
	schema := testSchema()
	qs := []query.Query{
		{Preds: []query.Predicate{query.IntRange("ts", 10, 20)}},
		{Preds: []query.Predicate{query.IntRange("ts", 10, 20)}}, // duplicate
		{Preds: []query.Predicate{query.StrIn("cat", "a", "b")}},
		{Preds: []query.Predicate{query.StrIn("cat", "b", "a")}}, // same set, different order
	}
	cuts := harvestCuts(schema, qs)
	// ts lo, ts hi+1, one string set = 3 distinct cuts.
	if len(cuts) != 3 {
		t.Fatalf("harvested %d cuts, want 3: %+v", len(cuts), cuts)
	}
}

// avoidsOf reports whether query q provably skips string cut c's left
// and right side: the OR of cut.avoids over q's predicates on c's column,
// which is what harvestCuts tallies per query.
func avoidsOf(t *testing.T, schema *table.Schema, c cut, q query.Query) (left, right bool) {
	t.Helper()
	for i := range q.Preds {
		if ci, ok := schema.Index(q.Preds[i].Col); ok && ci == c.col {
			l, r := c.avoids(&q.Preds[i])
			left, right = left || l, right || r
		}
	}
	return left, right
}

// boundsAvoid reports whether the one-query workload q provably skips
// the left and right side of the Int64 cut "col < at": harvestCuts'
// numeric tallies, taken from queryBounds over q alone.
func boundsAvoid(schema *table.Schema, col int, at int64, q query.Query) (left, right bool) {
	cols := make([]int, len(q.Preds))
	for i := range q.Preds {
		if ci, ok := schema.Index(q.Preds[i].Col); ok {
			cols[i] = ci
		} else {
			cols[i] = -1
		}
	}
	var b queryBounds[int64]
	b.add(q.Preds, cols, col, func(p *query.Predicate) (int64, int64) { return p.LoI, p.HiI })
	l, r := b.avoids(at)
	return l == 1, r == 1
}

func TestCutQueryAvoids(t *testing.T) {
	schema := testSchema()
	ts := schema.MustIndex("ts")

	q := query.Query{Preds: []query.Predicate{query.IntGE("ts", 100)}}
	aL, aR := boundsAvoid(schema, ts, 100, q)
	if !aL || aR {
		t.Errorf("q[ts>=100] vs cut ts<100: avoids = (%v,%v), want (true,false)", aL, aR)
	}
	q2 := query.Query{Preds: []query.Predicate{query.IntLE("ts", 99)}}
	aL, aR = boundsAvoid(schema, ts, 100, q2)
	if aL || !aR {
		t.Errorf("q[ts<=99] vs cut ts<100: avoids = (%v,%v), want (false,true)", aL, aR)
	}
	q3 := query.Query{Preds: []query.Predicate{query.IntRange("ts", 50, 150)}}
	aL, aR = boundsAvoid(schema, ts, 100, q3)
	if aL || aR {
		t.Errorf("straddling query avoids = (%v,%v), want (false,false)", aL, aR)
	}
}

func TestCutStrInAvoids(t *testing.T) {
	schema := testSchema()
	c := cut{col: schema.MustIndex("cat"), kind: cutStrIn, set: []string{"a", "b"}}

	q := query.Query{Preds: []query.Predicate{query.StrEq("cat", "c")}}
	aL, aR := avoidsOf(t, schema, c, q)
	if !aL || aR {
		t.Errorf("cat=c vs IN(a,b) cut: (%v,%v), want (true,false)", aL, aR)
	}
	q2 := query.Query{Preds: []query.Predicate{query.StrEq("cat", "a")}}
	aL, aR = avoidsOf(t, schema, c, q2)
	if aL || !aR {
		t.Errorf("cat=a vs IN(a,b) cut: (%v,%v), want (false,true)", aL, aR)
	}
	q3 := query.Query{Preds: []query.Predicate{query.StrIn("cat", "a", "c")}}
	aL, aR = avoidsOf(t, schema, c, q3)
	if aL || aR {
		t.Errorf("cat IN (a,c) vs IN(a,b) cut: (%v,%v), want (false,false)", aL, aR)
	}
}

// TestHarvestTalliesMatchOracle holds the once-per-Generate avoid
// tallies to the oracle's per-(cut, query) queryAvoids, on a workload
// whose queries repeat a column (two predicates on one cut's column
// must count the query once).
func TestHarvestTalliesMatchOracle(t *testing.T) {
	schema := testSchema()
	qs := qdWorkload(120, 7)
	qs = append(qs,
		query.Query{ID: 900, Preds: []query.Predicate{query.IntGE("ts", 300), query.IntGE("ts", 500)}},
		query.Query{ID: 901, Preds: []query.Predicate{query.StrIn("cat", "a", "b"), query.StrEq("cat", "zz")}},
		query.Query{ID: 902, Preds: []query.Predicate{query.IntRange("nope", 1, 2)}},
	)
	cuts := harvestCuts(schema, qs)
	want := oracleHarvestCuts(schema, qs)
	if len(cuts) != len(want) {
		t.Fatalf("harvested %d cuts, oracle %d", len(cuts), len(want))
	}
	for x, oc := range want {
		c := cuts[x]
		if c.col != oc.col || c.kind != oc.kind || c.i != oc.i || c.f != oc.f || len(c.set) != len(oc.set) {
			t.Fatalf("cut %d = %+v, oracle %+v", x, c, oc)
		}
		wantL, wantR := 0, 0
		for _, q := range qs {
			aL, aR := oc.queryAvoids(schema, q)
			if aL {
				wantL++
			}
			if aR {
				wantR++
			}
		}
		if c.avoidL != wantL || c.avoidR != wantR {
			t.Errorf("cut %d (%s): tallies (%d,%d), oracle (%d,%d)", x, oc.key, c.avoidL, c.avoidR, wantL, wantR)
		}
	}
}

func TestStrideSample(t *testing.T) {
	s := strideSample(nil, 10, 20)
	if len(s) != 10 {
		t.Errorf("oversized request returned %d rows", len(s))
	}
	s = strideSample(s, 100, 10)
	if len(s) != 10 {
		t.Fatalf("got %d rows, want 10", len(s))
	}
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			t.Fatal("stride sample not strictly increasing")
		}
	}
	if s[0] != 0 || s[9] != 90 {
		t.Errorf("stride sample = %v", s)
	}
}

func TestWorkloadTag(t *testing.T) {
	if got := workloadTag(nil); got != "empty" {
		t.Errorf("empty tag = %q", got)
	}
	qs := []query.Query{{ID: 5}, {ID: 2}, {ID: 9}}
	if got := workloadTag(qs); got != "q2..9" {
		t.Errorf("tag = %q, want q2..9", got)
	}
}

func TestQdTreeSampleSizeOption(t *testing.T) {
	d := testDataset(t, 2000, 19)
	qs := qdWorkload(40, 20)
	g := &QdTreeGenerator{SampleSize: 100, MinLeafRows: 4}
	l := g.Generate(d, qs, 8)
	if l.Part.NumPartitions < 1 || l.Part.NumPartitions > 8 {
		t.Errorf("partitions = %d", l.Part.NumPartitions)
	}
	if l.Part.TotalRows != 2000 {
		t.Errorf("total rows = %d", l.Part.TotalRows)
	}
}

// qdRandomCase draws a schema, a dataset, a workload and generator
// settings built to reach the corners where a columnar rewrite could
// drift from the row-at-a-time oracle: NaN, ±0.0 and ±Inf floats,
// extreme ints (HiI+1 wraps), empty strings, string columns below and
// far above table.MaxTrackedDistinct (so partitions hold exact sets and
// Bloom filters), IN lists with duplicates and with values no row has,
// predicates on unknown or type-mismatched columns, repeated predicates
// on one column, datasets smaller than the sample, and k from 1 to far
// more leaves than can be split. Up to ten columns means some cases
// hold five or more of one type, so metadata sweeps that take columns
// in groups meet every group width and remainder.
func qdRandomCase(rng *rand.Rand) (*table.Dataset, []query.Query, int, *QdTreeGenerator) {
	ncols := 1 + rng.Intn(10)
	cols := make([]table.Column, ncols)
	vocab := make([][]string, ncols)
	for c := range cols {
		cols[c] = table.Column{Name: fmt.Sprintf("c%d", c), Type: []table.ColType{table.Int64, table.Float64, table.String}[rng.Intn(3)]}
		n := []int{1, 3, 40, 3 * table.MaxTrackedDistinct}[rng.Intn(4)]
		for v := 0; v < n; v++ {
			vocab[c] = append(vocab[c], fmt.Sprintf("v%d", v*7%n))
		}
		if rng.Intn(2) == 0 {
			vocab[c][rng.Intn(n)] = ""
		}
	}
	schema := table.NewSchema(cols...)

	ints := []int64{math.MinInt64, math.MaxInt64, -1, 0, 1}
	floats := []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), -2.5}
	randInt := func() int64 {
		if rng.Intn(12) == 0 {
			return ints[rng.Intn(len(ints))]
		}
		return rng.Int63n(200) - 50
	}
	randFloat := func() float64 {
		if rng.Intn(6) == 0 {
			return floats[rng.Intn(len(floats))]
		}
		return float64(rng.Intn(400))/4 - 20
	}

	rows := []int{0, 1, 7, 60, 400, 2500}[rng.Intn(6)]
	b := table.NewBuilder(schema, rows)
	row := make([]table.Value, ncols)
	for r := 0; r < rows; r++ {
		for c := range cols {
			switch cols[c].Type {
			case table.Int64:
				row[c] = table.Int(randInt())
			case table.Float64:
				row[c] = table.Float(randFloat())
			case table.String:
				row[c] = table.Str(vocab[c][rng.Intn(len(vocab[c]))])
			}
		}
		b.AppendRow(row...)
	}

	qs := make([]query.Query, rng.Intn(60))
	for qi := range qs {
		qs[qi].ID = rng.Intn(1000)
		for np := 1 + rng.Intn(3); np > 0; np-- {
			c := rng.Intn(ncols)
			name := cols[c].Name
			if rng.Intn(25) == 0 {
				name = "unknown"
			}
			shape := cols[c].Type
			if rng.Intn(15) == 0 {
				shape = table.ColType(rng.Intn(3)) // possibly mismatched
			}
			p := query.Predicate{Col: name}
			switch shape {
			case table.Int64:
				p.HasLo, p.HasHi = rng.Intn(3) > 0, rng.Intn(3) > 0
				p.LoI, p.HiI = randInt(), randInt()
			case table.Float64:
				p.HasLo, p.HasHi = rng.Intn(3) > 0, rng.Intn(3) > 0
				p.LoF, p.HiF = randFloat(), randFloat()
			case table.String:
				for n := 1 + rng.Intn(3); n > 0; n-- {
					switch rng.Intn(6) {
					case 0:
						p.In = append(p.In, fmt.Sprintf("absent%d", rng.Intn(3)))
					case 1:
						if len(p.In) > 0 {
							p.In = append(p.In, p.In[0]) // duplicate
							break
						}
						fallthrough
					default:
						p.In = append(p.In, vocab[c][rng.Intn(len(vocab[c]))])
					}
				}
			}
			qs[qi].Preds = append(qs[qi].Preds, p)
		}
	}

	g := &QdTreeGenerator{
		SampleSize:  []int{0, 16, 100, 700}[rng.Intn(4)],
		MinLeafRows: []int{0, 1, 3}[rng.Intn(3)],
	}
	k := []int{0, 1, 2, 5, 16, 64, 500}[rng.Intn(7)]
	return b.Build(), qs, k, g
}

// sameLayout compares two layouts field by field: name, assignment and
// every PartitionMeta field, floats by bit pattern, distinct sets and
// Bloom filters in full.
func sameLayout(got, want *Layout) error {
	if got.Name != want.Name {
		return fmt.Errorf("name %q, want %q", got.Name, want.Name)
	}
	gp, wp := got.Part, want.Part
	if gp.NumPartitions != wp.NumPartitions || gp.TotalRows != wp.TotalRows || len(gp.Meta()) != len(wp.Meta()) {
		return fmt.Errorf("shape (%d parts, %d rows, %d metas), want (%d, %d, %d)",
			gp.NumPartitions, gp.TotalRows, len(gp.Meta()), wp.NumPartitions, wp.TotalRows, len(wp.Meta()))
	}
	if !reflect.DeepEqual(gp.Assign, wp.Assign) {
		return fmt.Errorf("assignments differ")
	}
	for pid := range wp.Meta() {
		g, w := gp.Meta()[pid], wp.Meta()[pid]
		if g.ID != w.ID || g.NumRows != w.NumRows || len(g.Stats) != len(w.Stats) {
			return fmt.Errorf("partition %d: (id %d, %d rows), want (id %d, %d rows)", pid, g.ID, g.NumRows, w.ID, w.NumRows)
		}
		for c := range w.Stats {
			gs, ws := &g.Stats[c], &w.Stats[c]
			if gs.Type != ws.Type || gs.Empty() != ws.Empty() ||
				gs.MinI != ws.MinI || gs.MaxI != ws.MaxI ||
				math.Float64bits(gs.MinF) != math.Float64bits(ws.MinF) ||
				math.Float64bits(gs.MaxF) != math.Float64bits(ws.MaxF) ||
				gs.MinS != ws.MinS || gs.MaxS != ws.MaxS ||
				!reflect.DeepEqual(gs.Distinct, ws.Distinct) || !reflect.DeepEqual(gs.Bloom, ws.Bloom) {
				return fmt.Errorf("partition %d column %d: stats %+v, want %+v", pid, c, *gs, *ws)
			}
		}
	}
	return nil
}

// TestQdTreeMatchesOracle is the rewrite's contract: the columnar
// construction returns, field for field, what the row-at-a-time oracle
// at the end of this file returns.
func TestQdTreeMatchesOracle(t *testing.T) {
	cases := 400
	if testing.Short() {
		cases = 60
	}
	bloomSeen, wideSeen := false, false
	for seed := int64(0); seed < int64(cases); seed++ {
		d, qs, k, g := qdRandomCase(rand.New(rand.NewSource(seed)))
		got, want := g.Generate(d, qs, k), oracleGenerate(g, d, qs, k)
		if err := sameLayout(got, want); err != nil {
			t.Fatalf("seed %d (%d rows, %d queries, k=%d, %+v): %v", seed, d.NumRows(), len(qs), k, *g, err)
		}
		for _, m := range got.Part.Meta() {
			for c := range m.Stats {
				bloomSeen = bloomSeen || m.Stats[c].Bloom != nil
			}
		}
		wideSeen = wideSeen || maxColsOfOneType(d.Schema()) >= 5
	}
	if !bloomSeen {
		t.Error("no case overflowed a distinct set into a Bloom filter; the generator lost that corner")
	}
	if !wideSeen {
		t.Error("no case had five columns of one type; the generator lost that corner")
	}
}

// FuzzQdTreeMatchesOracle is the native-fuzzing form of
// TestQdTreeMatchesOracle.
func FuzzQdTreeMatchesOracle(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 42, 1234, 999983} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		d, qs, k, g := qdRandomCase(rand.New(rand.NewSource(seed)))
		if err := sameLayout(g.Generate(d, qs, k), oracleGenerate(g, d, qs, k)); err != nil {
			t.Fatalf("%d rows, %d queries, k=%d, %+v: %v", d.NumRows(), len(qs), k, *g, err)
		}
	})
}

// TestQdTreeMatchesOracleSharedThresholds aims the oracle comparison at
// the bucket layout: every window draws its bounds and IN values from a
// small pool per column, so cuts share thresholds and buckets, and sample
// values sit exactly on thresholds. A pool holds values present in the
// sample; a float pool also holds -0 beside +0 (one threshold, two cuts),
// NaN and ±Inf, an int pool MinInt64 and MaxInt64 (whose HiI+1 wraps), a
// string pool a value no row holds. Queries put several predicates on
// one column. The datasets are qdRandomCase's.
func TestQdTreeMatchesOracleSharedThresholds(t *testing.T) {
	cases := 200
	if testing.Short() {
		cases = 40
	}
	for seed := int64(0); seed < int64(cases); seed++ {
		rng := rand.New(rand.NewSource(seed))
		d, _, k, g := qdRandomCase(rng)
		schema := d.Schema()
		size := g.SampleSize
		if size <= 0 {
			size = 2048
		}
		sample := strideSample(nil, d.NumRows(), size)
		at := func() int { return int(sample[rng.Intn(len(sample))]) }
		pools := make([][]query.Predicate, schema.NumCols()) // each entry one bound or one IN value
		for c := range pools {
			var pool []query.Predicate
			switch schema.Col(c).Type {
			case table.Int64:
				for v := 0; v < 3 && len(sample) > 0; v++ {
					pool = append(pool, query.Predicate{LoI: d.Int64At(c, at())})
				}
				for _, v := range []int64{math.MinInt64, math.MaxInt64, 0} {
					pool = append(pool, query.Predicate{LoI: v})
				}
			case table.Float64:
				for v := 0; v < 3 && len(sample) > 0; v++ {
					pool = append(pool, query.Predicate{LoF: d.Float64At(c, at())})
				}
				for _, v := range []float64{math.Copysign(0, -1), 0, math.NaN(), math.Inf(1), math.Inf(-1)} {
					pool = append(pool, query.Predicate{LoF: v})
				}
			case table.String:
				for v := 0; v < 3 && len(sample) > 0; v++ {
					pool = append(pool, query.Predicate{In: []string{d.StringAt(c, at())}})
				}
				pool = append(pool, query.Predicate{In: []string{"absent"}})
			}
			pools[c] = pool
		}

		qs := make([]query.Query, 1+rng.Intn(50))
		for qi := range qs {
			qs[qi].ID = qi
			cols := []int{rng.Intn(schema.NumCols()), rng.Intn(schema.NumCols())}
			for np := 1 + rng.Intn(4); np > 0; np-- {
				c := cols[rng.Intn(len(cols))]
				pool := pools[c]
				pick := func() query.Predicate { return pool[rng.Intn(len(pool))] }
				p := query.Predicate{Col: schema.Col(c).Name}
				switch schema.Col(c).Type {
				case table.Int64:
					p.HasLo, p.HasHi = rng.Intn(3) > 0, rng.Intn(3) > 0
					p.LoI, p.HiI = pick().LoI, pick().LoI
				case table.Float64:
					p.HasLo, p.HasHi = rng.Intn(3) > 0, rng.Intn(3) > 0
					p.LoF, p.HiF = pick().LoF, pick().LoF
				case table.String:
					for n := 1 + rng.Intn(3); n > 0; n-- {
						p.In = append(p.In, pick().In...)
					}
				}
				qs[qi].Preds = append(qs[qi].Preds, p)
			}
		}

		if err := sameTallies(schema, qs); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := sameLayout(g.Generate(d, qs, k), oracleGenerate(g, d, qs, k)); err != nil {
			t.Fatalf("seed %d (%d rows, %d queries, k=%d, %+v): %v", seed, d.NumRows(), len(qs), k, *g, err)
		}
	}
}

// sameTallies compares harvestCuts' cuts and avoid tallies with the
// oracle's harvest and its per-(cut, query) queryAvoids.
func sameTallies(schema *table.Schema, qs []query.Query) error {
	cuts, want := harvestCuts(schema, qs), oracleHarvestCuts(schema, qs)
	if len(cuts) != len(want) {
		return fmt.Errorf("harvested %d cuts, oracle %d", len(cuts), len(want))
	}
	for x, oc := range want {
		c := cuts[x]
		set := make(map[string]bool, len(c.set))
		for _, v := range c.set {
			set[v] = true
		}
		if c.col != oc.col || c.kind != oc.kind || c.i != oc.i || math.Float64bits(c.f) != math.Float64bits(oc.f) || !maps.Equal(set, oc.set) {
			return fmt.Errorf("cut %d = %+v, oracle %+v", x, c, oc)
		}
		wantL, wantR := 0, 0
		for _, q := range qs {
			aL, aR := oc.queryAvoids(schema, q)
			wantL += int(b2u(aL))
			wantR += int(b2u(aR))
		}
		if c.avoidL != wantL || c.avoidR != wantR {
			return fmt.Errorf("cut %d (%s): tallies (%d,%d), oracle (%d,%d)", x, oc.key, c.avoidL, c.avoidR, wantL, wantR)
		}
	}
	return nil
}

// maxColsOfOneType is the largest number of schema columns sharing a
// type.
func maxColsOfOneType(schema *table.Schema) int {
	var n [3]int
	for c := 0; c < schema.NumCols(); c++ {
		n[schema.Col(c).Type]++
	}
	return max(n[0], n[1], n[2])
}

// TestQdTreeMatchesOracleTPCHShape runs the equivalence at the
// benchmark's shape: the 27-column TPC-H table (14 int, 3 float and 10
// string columns), default sampling, a 200-query window drifting
// between two templates, and k from a few partitions to more than a
// window can carve.
func TestQdTreeMatchesOracleTPCHShape(t *testing.T) {
	d := datagen.GenerateTPCH(30000, rand.New(rand.NewSource(41)))
	for _, k := range []int{8, 66} {
		qs := tpchDriftWindow(200, int64(k))
		g := NewQdTreeGenerator()
		if err := sameLayout(g.Generate(d, qs, k), oracleGenerate(g, d, qs, k)); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
}

// TestQdTreeNamesIdentifyTrees holds a candidate's name to its tree
// over windows that the workload tag cannot tell apart: a stationary
// TPC-H mix whose queries all carry ID 0, as they do from a client that
// sends none. Two candidates must share a name exactly when they share
// an assignment; the state space drops a candidate whose name it
// already holds, so a shared name on different trees loses a layout.
func TestQdTreeNamesIdentifyTrees(t *testing.T) {
	const windows, size = 60, 200
	d := datagen.GenerateTPCH(20000, rand.New(rand.NewSource(5)))
	s := workload.MustGenerate(workload.TPCHTemplates(), workload.Config{
		NumQueries: windows * size, NumSegments: windows * size,
	}, rand.New(rand.NewSource(6)))
	g := NewQdTreeGenerator()
	names, assigns := make([]string, windows), make([][]int, windows)
	for w := range names {
		qs := append([]query.Query(nil), s.Queries[w*size:(w+1)*size]...)
		for i := range qs {
			qs[i].ID = 0
		}
		l := g.Generate(d, qs, 66)
		names[w], assigns[w] = l.Name, l.Part.Assign
	}
	distinct := map[string]bool{}
	for i := range names {
		distinct[names[i]] = true
		for j := i + 1; j < len(names); j++ {
			sameName, sameTree := names[i] == names[j], slices.Equal(assigns[i], assigns[j])
			if sameName != sameTree {
				t.Errorf("windows %d and %d: names %q and %q, equal assignments %v", i, j, names[i], names[j], sameTree)
			}
		}
	}
	t.Logf("%d windows, %d distinct names", windows, len(distinct))
}

// allocsPer runs f n times and returns the mean heap allocations and
// bytes per run.
func allocsPer(n int, f func()) (count, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestQdTreeGenerateAllocations pins what a Generate call may allocate
// to what it hands back — the Assign vector, the partition metadata and
// layout built over it — plus the harvested cuts. Sample masks, leaf
// bitsets, tree nodes and the two dataset-sized row lists that routing
// reorders are pooled scratch: un-pooled, the row lists alone cost as
// much again as Assign on every candidate.
func TestQdTreeGenerateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	d := testDataset(t, 20000, 99)
	qs := qdWorkload(200, 100)
	g := NewQdTreeGenerator()
	l := g.Generate(d, qs, 32) // also warms the pool
	k := l.Part.NumPartitions

	const runs = 20
	needCount, needBytes := allocsPer(runs, func() {
		harvestCuts(d.Schema(), qs)
		assign := append(make([]int, 0, d.NumRows()), l.Part.Assign...)
		New(l.Name, d.Schema(), table.MustBuildPartitioning(d, assign, k))
	})
	gotCount, gotBytes := allocsPer(runs, func() { g.Generate(d, qs, 32) })
	t.Logf("Generate: %.0f allocations, %.0f B; Assign + metadata + cuts alone: %.0f allocations, %.0f B",
		gotCount, gotBytes, needCount, needBytes)
	if gotCount > 1.25*needCount+16 {
		t.Errorf("Generate makes %.0f allocations, more than 1.25x the %.0f its result needs", gotCount, needCount)
	}
	if gotBytes > 1.25*needBytes {
		t.Errorf("Generate allocates %.0f B, more than 1.25x the %.0f B its result needs", gotBytes, needBytes)
	}
}

// What follows is the row-at-a-time Qd-tree construction the generator
// shipped with before it went columnar, kept verbatim as the oracle the
// equivalence property tests hold QdTreeGenerator.Generate to: string
// dedup keys, a per-leaf eval that re-tests every sample row per cut and
// re-derives every (cut, query) avoidance, per-row tree routing, and
// partition metadata folded one row at a time through
// PartitionMeta.AddRow.

type oracleCut struct {
	col  int
	kind cutKind
	i    int64
	f    float64
	set  map[string]bool
	key  string
}

func (c *oracleCut) routesLeft(d *table.Dataset, r int) bool {
	switch c.kind {
	case cutIntLT:
		return d.Int64At(c.col, r) < c.i
	case cutFloatLT:
		return d.Float64At(c.col, r) < c.f
	case cutStrIn:
		return c.set[d.StringAt(c.col, r)]
	default:
		return false
	}
}

func (c *oracleCut) queryAvoids(schema *table.Schema, q query.Query) (avoidsLeft, avoidsRight bool) {
	colName := schema.Col(c.col).Name
	for _, p := range q.Preds {
		if p.Col != colName {
			continue
		}
		switch c.kind {
		case cutIntLT:
			if !p.IsNumeric() {
				continue
			}
			if p.HasLo && p.LoI >= c.i {
				avoidsLeft = true
			}
			if p.HasHi && p.HiI < c.i {
				avoidsRight = true
			}
		case cutFloatLT:
			if !p.IsNumeric() {
				continue
			}
			if p.HasLo && p.LoF >= c.f {
				avoidsLeft = true
			}
			if p.HasHi && p.HiF < c.f {
				avoidsRight = true
			}
		case cutStrIn:
			if p.IsNumeric() {
				continue
			}
			anyIn, anyOut := false, false
			for _, v := range p.In {
				if c.set[v] {
					anyIn = true
				} else {
					anyOut = true
				}
			}
			if !anyIn {
				avoidsLeft = true
			}
			if !anyOut {
				avoidsRight = true
			}
		}
	}
	return avoidsLeft, avoidsRight
}

func oracleHarvestCuts(schema *table.Schema, qs []query.Query) []*oracleCut {
	seen := make(map[string]bool)
	var cuts []*oracleCut
	add := func(c *oracleCut) {
		if !seen[c.key] {
			seen[c.key] = true
			cuts = append(cuts, c)
		}
	}
	for _, q := range qs {
		for _, p := range q.Preds {
			ci, ok := schema.Index(p.Col)
			if !ok {
				continue
			}
			switch schema.Col(ci).Type {
			case table.Int64:
				if !p.IsNumeric() {
					continue
				}
				if p.HasLo {
					add(&oracleCut{col: ci, kind: cutIntLT, i: p.LoI,
						key: fmt.Sprintf("i%d<%d", ci, p.LoI)})
				}
				if p.HasHi {
					add(&oracleCut{col: ci, kind: cutIntLT, i: p.HiI + 1,
						key: fmt.Sprintf("i%d<%d", ci, p.HiI+1)})
				}
			case table.Float64:
				if !p.IsNumeric() {
					continue
				}
				if p.HasLo {
					add(&oracleCut{col: ci, kind: cutFloatLT, f: p.LoF,
						key: fmt.Sprintf("f%d<%g", ci, p.LoF)})
				}
				if p.HasHi {
					add(&oracleCut{col: ci, kind: cutFloatLT, f: p.HiF,
						key: fmt.Sprintf("f%d<=%g", ci, p.HiF)})
				}
			case table.String:
				if p.IsNumeric() || len(p.In) == 0 {
					continue
				}
				set := make(map[string]bool, len(p.In))
				vals := append([]string(nil), p.In...)
				sort.Strings(vals)
				for _, v := range vals {
					set[v] = true
				}
				add(&oracleCut{col: ci, kind: cutStrIn, set: set,
					key: fmt.Sprintf("s%d∈%s", ci, strings.Join(vals, "|"))})
			}
		}
	}
	return cuts
}

type oracleNode struct {
	cut         *oracleCut
	left, right *oracleNode
	leafID      int
	rows        []int
}

func (n *oracleNode) route(d *table.Dataset, r int) int {
	for n.cut != nil {
		if n.cut.routesLeft(d, r) {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.leafID
}

func oracleStrideSample(n, size int) []int {
	if size >= n {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all
	}
	out := make([]int, 0, size)
	for i := 0; i < size; i++ {
		out = append(out, i*n/size)
	}
	return out
}

// oraclePartitioning folds every row through PartitionMeta.AddRow in
// ascending row order — the reference table.BuildPartitioning is held to.
func oraclePartitioning(d *table.Dataset, assign []int, k int) *table.Partitioning {
	meta := make([]*table.PartitionMeta, k)
	for i := range meta {
		meta[i] = table.NewPartitionMeta(i, d.Schema())
	}
	for r, pid := range assign {
		meta[pid].AddRow(d, r)
	}
	return table.NewPartitioning(meta, assign)
}

// oracleGenerate is the pre-columnar QdTreeGenerator.Generate.
func oracleGenerate(g *QdTreeGenerator, d *table.Dataset, qs []query.Query, k int) *Layout {
	sampleSize := g.SampleSize
	if sampleSize <= 0 {
		sampleSize = 2048
	}
	minLeaf := g.MinLeafRows
	if minLeaf <= 0 {
		minLeaf = 8
	}
	if k < 1 {
		k = 1
	}
	sample := oracleStrideSample(d.NumRows(), sampleSize)
	cuts := oracleHarvestCuts(d.Schema(), qs)

	root := &oracleNode{rows: sample}
	leaves := []*oracleNode{root}

	type bestSplit struct {
		gain        float64
		cut         *oracleCut
		left, right []int
	}
	best := make(map[*oracleNode]*bestSplit)
	eval := func(n *oracleNode) {
		var b *bestSplit
		for _, c := range cuts {
			nl := 0
			for _, r := range n.rows {
				if c.routesLeft(d, r) {
					nl++
				}
			}
			nr := len(n.rows) - nl
			if nl < minLeaf || nr < minLeaf {
				continue
			}
			gain := 0.0
			for _, q := range qs {
				aL, aR := c.queryAvoids(d.Schema(), q)
				if aL {
					gain += float64(nl)
				}
				if aR {
					gain += float64(nr)
				}
			}
			if gain > 0 && (b == nil || gain > b.gain) {
				b = &bestSplit{gain: gain, cut: c}
			}
		}
		if b != nil {
			left := make([]int, 0, len(n.rows)/2)
			right := make([]int, 0, len(n.rows)/2)
			for _, r := range n.rows {
				if b.cut.routesLeft(d, r) {
					left = append(left, r)
				} else {
					right = append(right, r)
				}
			}
			b.left, b.right = left, right
		}
		best[n] = b
	}
	eval(root)

	for len(leaves) < k {
		var pick *oracleNode
		var pickIdx int
		for i, n := range leaves {
			b := best[n]
			if b == nil {
				continue
			}
			if pick == nil || b.gain > best[pick].gain {
				pick, pickIdx = n, i
			}
		}
		if pick == nil {
			break
		}
		b := best[pick]
		pick.cut = b.cut
		pick.left = &oracleNode{rows: b.left}
		pick.right = &oracleNode{rows: b.right}
		pick.rows = nil
		delete(best, pick)
		leaves[pickIdx] = pick.left
		leaves = append(leaves, pick.right)
		eval(pick.left)
		eval(pick.right)
	}

	for i, n := range leaves {
		n.leafID = i
		n.rows = nil
	}

	assign := make([]int, d.NumRows())
	for r := 0; r < d.NumRows(); r++ {
		assign[r] = root.route(d, r)
	}
	part := oraclePartitioning(d, assign, len(leaves))
	h := fnv.New64a()
	root.hash(h)
	name := fmt.Sprintf("qdtree(cuts=%d,leaves=%d,w=%s,tree=%016x)", len(cuts), len(leaves), workloadTag(qs), h.Sum64())
	return New(name, d.Schema(), part)
}

// hash writes the subtree in preorder: an inner node as its cut's kind
// byte, column (uint32 little-endian) and either its threshold's bits
// (uint64 little-endian, every NaN as math.NaN()) or its IN values in
// ascending order, each as a uint32 length and its bytes; a leaf as
// 0xff and its partition ID (uint32 little-endian).
func (n *oracleNode) hash(h hash.Hash64) {
	var b []byte
	if n.cut == nil {
		h.Write(binary.LittleEndian.AppendUint32([]byte{0xff}, uint32(n.leafID)))
		return
	}
	c := n.cut
	b = binary.LittleEndian.AppendUint32([]byte{byte(c.kind)}, uint32(c.col))
	switch c.kind {
	case cutIntLT:
		b = binary.LittleEndian.AppendUint64(b, uint64(c.i))
	case cutFloatLT:
		f := c.f
		if math.IsNaN(f) {
			f = math.NaN()
		}
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	case cutStrIn:
		vals := make([]string, 0, len(c.set))
		for v := range c.set {
			vals = append(vals, v)
		}
		sort.Strings(vals)
		for _, v := range vals {
			b = append(binary.LittleEndian.AppendUint32(b, uint32(len(v))), v...)
		}
	}
	h.Write(b)
	n.left.hash(h)
	n.right.hash(h)
}
