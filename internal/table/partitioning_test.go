package table

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

func TestBuildPartitioning(t *testing.T) {
	d := buildTestDataset(t, 12)
	assign := make([]int, 12)
	for i := range assign {
		assign[i] = i % 3
	}
	p, err := BuildPartitioning(d, assign, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumPartitions != 3 || p.TotalRows != 12 {
		t.Fatalf("partitioning = %+v", p)
	}
	for pid := 0; pid < 3; pid++ {
		if got := p.RowsInPartition(pid); got != 4 {
			t.Errorf("partition %d rows = %d, want 4", pid, got)
		}
	}
	if p.stats.NonEmpty[0] != 0b111 {
		t.Errorf("non-empty mask = %b, want 111", p.stats.NonEmpty[0])
	}
}

func TestBuildPartitioningErrors(t *testing.T) {
	d := buildTestDataset(t, 5)
	if _, err := BuildPartitioning(d, []int{0, 0, 0}, 2); err == nil {
		t.Error("short assignment accepted")
	}
	if _, err := BuildPartitioning(d, []int{0, 0, 0, 0, 0}, 0); err == nil {
		t.Error("zero partitions accepted")
	}
	if _, err := BuildPartitioning(d, []int{0, 0, 0, 0, 9}, 2); err == nil {
		t.Error("out-of-range partition ID accepted")
	}
	if _, err := BuildPartitioning(d, []int{0, 0, 0, 0, -1}, 2); err == nil {
		t.Error("negative partition ID accepted")
	}
}

func TestMustBuildPartitioningPanics(t *testing.T) {
	d := buildTestDataset(t, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("MustBuildPartitioning on invalid input did not panic")
		}
	}()
	MustBuildPartitioning(d, []int{5, 5}, 2)
}

func TestEmptyPartitionsMetadata(t *testing.T) {
	d := buildTestDataset(t, 4)
	p := MustBuildPartitioning(d, []int{0, 0, 0, 0}, 3)
	if p.stats.NonEmpty[0] != 0b001 {
		t.Fatalf("non-empty mask = %b, want 001", p.stats.NonEmpty[0])
	}
	if !p.Meta()[1].Stats[0].Empty() || p.Meta()[1].NumRows != 0 {
		t.Error("empty partition has non-empty metadata")
	}
}

// Property: per-partition row counts always sum to the dataset size, and
// every partition's metadata covers exactly its rows' value ranges.
func TestPartitioningConservationProperty(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 40
		k := int(kRaw%7) + 1
		b := NewBuilder(testSchema(), rows)
		for i := 0; i < rows; i++ {
			b.AppendRow(Int(rng.Int63n(100)), Float(rng.Float64()), Str("t"))
		}
		d := b.Build()
		assign := make([]int, rows)
		for i := range assign {
			assign[i] = rng.Intn(k)
		}
		p := MustBuildPartitioning(d, assign, k)
		sum := 0
		for pid := 0; pid < k; pid++ {
			sum += p.RowsInPartition(pid)
		}
		if sum != rows {
			return false
		}
		for r := 0; r < rows; r++ {
			m := p.Meta()[assign[r]]
			if v := d.Int64At(0, r); v < m.Stats[0].MinI || v > m.Stats[0].MaxI {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// randomPartitioningCase draws a dataset and an assignment built to
// reach what a column-major fold could get wrong: NaN, ±0.0 and ±Inf
// floats in every order, extreme ints, empty strings, string columns
// far above MaxTrackedDistinct (partitions overflow into Bloom filters),
// dictionaries shared with a parent dataset (values no row uses), empty
// partitions, and k = 1. Up to ten columns means some cases hold five or
// more of one type, so the sweeps that take columns in groups meet every
// group width and remainder.
func randomPartitioningCase(rng *rand.Rand) (*Dataset, []int, int) {
	ncols := 1 + rng.Intn(10)
	cols := make([]Column, ncols)
	card := make([]int, ncols)
	for c := range cols {
		cols[c] = Column{Name: fmt.Sprintf("c%d", c), Type: []ColType{Int64, Float64, String}[rng.Intn(3)]}
		card[c] = []int{1, 4, MaxTrackedDistinct, 4 * MaxTrackedDistinct}[rng.Intn(4)]
	}
	schema := NewSchema(cols...)
	floats := []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1)}
	ints := []int64{math.MinInt64, math.MaxInt64, 0}

	rows := []int{0, 1, 9, 200, 1500}[rng.Intn(5)]
	b := NewBuilder(schema, rows)
	row := make([]Value, ncols)
	for r := 0; r < rows; r++ {
		for c := range cols {
			switch cols[c].Type {
			case Int64:
				row[c] = Int(rng.Int63n(100) - 50)
				if rng.Intn(10) == 0 {
					row[c] = Int(ints[rng.Intn(len(ints))])
				}
			case Float64:
				row[c] = Float(float64(rng.Intn(40))/4 - 5)
				if rng.Intn(4) == 0 {
					row[c] = Float(floats[rng.Intn(len(floats))])
				}
			case String:
				v := rng.Intn(card[c])
				row[c] = Str(fmt.Sprintf("s%d", v))
				if v == 0 && rng.Intn(2) == 0 {
					row[c] = Str("")
				}
			}
		}
		b.AppendRow(row...)
	}
	d := b.Build()
	if rows > 1 && rng.Intn(3) == 0 {
		// A sample keeps its parent's dictionaries: codes are sparse.
		keep := make([]int, 0, rows)
		for r := 0; r < rows; r++ {
			if rng.Intn(3) > 0 {
				keep = append(keep, r)
			}
		}
		d = d.Sample(keep)
	}

	k := []int{1, 2, 7, 70}[rng.Intn(4)]
	assign := make([]int, d.NumRows())
	for r := range assign {
		assign[r] = rng.Intn(k)
		if k > 2 && assign[r] == 1 {
			assign[r] = 0 // partition 1 stays empty
		}
	}
	return d, assign, k
}

// checkBuildMatchesAddRowFold holds BuildPartitioning to the reference
// it replaces: every row folded through PartitionMeta.AddRow in
// ascending order. Columns are first read in an order drawn from rng —
// a random subset, one at a time through the statistics block, as the
// compiled cost path reads them — and each is checked against the
// reference while the rest are still unbuilt; then Meta builds the
// rest. Every field is compared — floats by bit pattern, distinct sets
// and Bloom filters in full — and so is the statistics block.
func checkBuildMatchesAddRowFold(t *testing.T, d *Dataset, assign []int, k int, rng *rand.Rand) {
	t.Helper()
	got := MustBuildPartitioning(d, assign, k)
	meta := make([]*PartitionMeta, k)
	for i := range meta {
		meta[i] = NewPartitionMeta(i, d.Schema())
	}
	for r, pid := range assign {
		meta[pid].AddRow(d, r)
	}
	want := NewPartitioning(meta, assign)
	if got.NumPartitions != k || got.TotalRows != d.NumRows() {
		t.Fatalf("shape = (%d, %d), want (%d, %d)", got.NumPartitions, got.TotalRows, k, d.NumRows())
	}
	gb, wb := got.Stats(), want.Stats()
	nc := d.Schema().NumCols()
	read := make([]bool, nc)
	for _, c := range rng.Perm(nc)[:rng.Intn(nc+1)] {
		columnsEqual(t, c, gb.Column(c), wb.Column(c))
		read[c] = true
		for c2, want := range read {
			if got.Built(c2) != want {
				t.Fatalf("column %d built = %v after reading columns %v", c2, got.Built(c2), read)
			}
		}
	}
	gm := got.Meta()
	for c := 0; c < nc; c++ {
		if !got.Built(c) {
			t.Fatalf("column %d unbuilt after Meta", c)
		}
	}
	if len(gm) != k || got.data != nil {
		t.Fatalf("after Meta: %d metas, dataset kept %v", len(gm), got.data != nil)
	}
	for pid, w := range want.Meta() {
		g := gm[pid]
		if g.ID != w.ID || g.NumRows != w.NumRows {
			t.Fatalf("partition %d = (id %d, %d rows), want (id %d, %d rows)", pid, g.ID, g.NumRows, w.ID, w.NumRows)
		}
		if len(g.Stats) != len(w.Stats) {
			t.Fatalf("partition %d: %d column stats, want %d", pid, len(g.Stats), len(w.Stats))
		}
		for c := range w.Stats {
			statsEqual(t, g.Stats[c], w.Stats[c])
			if !reflect.DeepEqual(g.Stats[c].Bloom, w.Stats[c].Bloom) {
				t.Fatalf("partition %d column %d: Bloom bits differ", pid, c)
			}
			if g.Stats[c].MinI != w.Stats[c].MinI || g.Stats[c].MaxI != w.Stats[c].MaxI ||
				math.Float64bits(g.Stats[c].MinF) != math.Float64bits(w.Stats[c].MinF) ||
				math.Float64bits(g.Stats[c].MaxF) != math.Float64bits(w.Stats[c].MaxF) {
				t.Fatalf("partition %d column %d: off-type slots differ", pid, c)
			}
		}
	}
	if gb.NumParts != wb.NumParts || gb.NumCols != wb.NumCols ||
		!reflect.DeepEqual(gb.Rows, wb.Rows) || !reflect.DeepEqual(gb.NonEmpty, wb.NonEmpty) {
		t.Fatal("statistics block shape or row counts differ")
	}
	gc, wc := gb.Columns(), wb.Columns()
	if !reflect.DeepEqual(bitsOf(gc.MinF), bitsOf(wc.MinF)) || !reflect.DeepEqual(bitsOf(gc.MaxF), bitsOf(wc.MaxF)) ||
		!reflect.DeepEqual(gc.MinI, wc.MinI) || !reflect.DeepEqual(gc.MaxI, wc.MaxI) || !reflect.DeepEqual(gc.Seen, wc.Seen) {
		t.Fatal("statistics block columns differ")
	}
	for i, cs := range gc.Col {
		if cs != &gm[i%k].Stats[i/k] {
			t.Fatalf("block entry %d does not point at its partition's stats", i)
		}
	}
}

// columnsEqual holds one column's block view to the reference's, field
// for field.
func columnsEqual(t *testing.T, c int, got, want ColumnBlock) {
	t.Helper()
	if !reflect.DeepEqual(got.MinI, want.MinI) || !reflect.DeepEqual(got.MaxI, want.MaxI) ||
		!reflect.DeepEqual(bitsOf(got.MinF), bitsOf(want.MinF)) || !reflect.DeepEqual(bitsOf(got.MaxF), bitsOf(want.MaxF)) ||
		!reflect.DeepEqual(got.Seen, want.Seen) || len(got.Col) != len(want.Col) {
		t.Fatalf("column %d: block view differs", c)
	}
	for pid := range want.Col {
		statsEqual(t, *got.Col[pid], *want.Col[pid])
		if !reflect.DeepEqual(got.Col[pid].Bloom, want.Col[pid].Bloom) {
			t.Fatalf("partition %d column %d: Bloom bits differ", pid, c)
		}
	}
}

func bitsOf(fs []float64) []uint64 {
	out := make([]uint64, len(fs))
	for i, f := range fs {
		out[i] = math.Float64bits(f)
	}
	return out
}

func TestBuildPartitioningMatchesAddRowFold(t *testing.T) {
	bloomSeen, wideSeen := false, false
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d, assign, k := randomPartitioningCase(rng)
		checkBuildMatchesAddRowFold(t, d, assign, k, rng)
		for _, m := range MustBuildPartitioning(d, assign, k).Meta() {
			for c := range m.Stats {
				bloomSeen = bloomSeen || m.Stats[c].Bloom != nil
			}
		}
		var ofType [3]int
		for c := 0; c < d.Schema().NumCols(); c++ {
			ofType[d.Schema().Col(c).Type]++
		}
		wideSeen = wideSeen || max(ofType[0], ofType[1], ofType[2]) >= 5
	}
	if !bloomSeen {
		t.Error("no case overflowed a distinct set into a Bloom filter; the generator lost that corner")
	}
	if !wideSeen {
		t.Error("no case had five columns of one type; the generator lost that corner")
	}
}

// FuzzBuildPartitioningEquivalence is the native-fuzzing form of the
// property.
func FuzzBuildPartitioningEquivalence(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 42, 1234, 999983} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		d, assign, k := randomPartitioningCase(rng)
		checkBuildMatchesAddRowFold(t, d, assign, k, rng)
	})
}

// BenchmarkBuildPartitioning folds a 100 000-row table of the
// benchmark's column mix (ints, floats, low- and mid-cardinality
// strings) into 64 partitions. assign=sorted is an almost sorted
// assignment (runs of ~1 500 rows, as a sort or z-order layout gives);
// assign=random gives every row an independent partition, as a Qd-tree
// candidate over unsorted data does (its same-partition runs are one to
// two rows long). Every column is built: the figure is the whole
// metadata build, not the part BuildPartitioning does before a read.
func BenchmarkBuildPartitioning(b *testing.B) {
	const rows, k = 100000, 64
	schema := NewSchema(
		Column{Name: "key", Type: Int64}, Column{Name: "date", Type: Int64},
		Column{Name: "price", Type: Float64}, Column{Name: "discount", Type: Float64},
		Column{Name: "flag", Type: String}, Column{Name: "mode", Type: String},
		Column{Name: "brand", Type: String}, Column{Name: "container", Type: String},
	)
	rng := rand.New(rand.NewSource(1))
	bld := NewBuilder(schema, rows)
	for i := 0; i < rows; i++ {
		bld.AppendRow(Int(int64(i)), Int(rng.Int63n(2500)),
			Float(rng.Float64()*1e5), Float(float64(rng.Intn(11))/100),
			Str(fmt.Sprintf("F%d", rng.Intn(3))), Str(fmt.Sprintf("M%d", rng.Intn(7))),
			Str(fmt.Sprintf("Brand#%d", rng.Intn(25))), Str(fmt.Sprintf("C%d", rng.Intn(40))))
	}
	d := bld.Build()
	sorted, random := make([]int, rows), make([]int, rows)
	for r := range sorted {
		sorted[r] = (r*k/rows + rng.Intn(3)) % k
	}
	for r := range random {
		random[r] = rng.Intn(k)
	}
	for _, c := range []struct {
		name   string
		assign []int
	}{{"sorted", sorted}, {"random", random}} {
		b.Run("assign="+c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MustBuildPartitioning(d, c.assign, k).Meta()
			}
		})
	}
}

// statsEqual holds two ColumnStats to bit-equality.
func statsEqual(t *testing.T, got, want ColumnStats) {
	t.Helper()
	if got.Type != want.Type || got.seen != want.seen {
		t.Fatalf("stats shape mismatch: got %+v want %+v", got, want)
	}
	switch got.Type {
	case Int64:
		if got.MinI != want.MinI || got.MaxI != want.MaxI {
			t.Fatalf("int range: got [%d,%d] want [%d,%d]", got.MinI, got.MaxI, want.MinI, want.MaxI)
		}
	case Float64:
		if math.Float64bits(got.MinF) != math.Float64bits(want.MinF) ||
			math.Float64bits(got.MaxF) != math.Float64bits(want.MaxF) {
			t.Fatalf("float range: got [%v,%v] want [%v,%v]", got.MinF, got.MaxF, want.MinF, want.MaxF)
		}
	case String:
		if got.MinS != want.MinS || got.MaxS != want.MaxS {
			t.Fatalf("string range: got [%q,%q] want [%q,%q]", got.MinS, got.MaxS, want.MinS, want.MaxS)
		}
		if !reflect.DeepEqual(got.Distinct, want.Distinct) {
			t.Fatalf("distinct sets differ: got %v want %v", got.Distinct, want.Distinct)
		}
		if (got.Bloom == nil) != (want.Bloom == nil) {
			t.Fatalf("bloom presence differs: got %v want %v", got.Bloom != nil, want.Bloom != nil)
		}
	}
}

// TestConcurrentFirstTouch has eight goroutines first-read overlapping
// column sets of fresh partitionings — through the statistics block, as
// the cost path does, and through Meta — and holds every answer to the
// same partitioning built one column after another. Run it under -race:
// each column must be swept once, and no reader may see a column while
// it is written.
func TestConcurrentFirstTouch(t *testing.T) {
	const readers = 8
	cases := 0
	for seed := int64(0); cases < 20; seed++ {
		d, assign, k := randomPartitioningCase(rand.New(rand.NewSource(seed)))
		nc := d.Schema().NumCols()
		if nc < 4 || d.NumRows() == 0 {
			continue
		}
		cases++
		want := MustBuildPartitioning(d, assign, k)
		wb := want.Stats()
		for c := 0; c < nc; c++ {
			wb.Column(c)
		}
		got := MustBuildPartitioning(d, assign, k)
		gb := got.Stats()
		cols := func(g int) []int { return []int{g % nc, (g + 1) % nc, (g + 3) % nc} }
		var views [readers][]ColumnBlock
		var metas [readers][]*PartitionMeta
		var wg sync.WaitGroup
		for g := 0; g < readers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				if g == readers-1 {
					metas[g] = got.Meta()
					return
				}
				for _, c := range cols(g) {
					views[g] = append(views[g], gb.Column(c))
				}
			}(g)
		}
		wg.Wait()
		for g, vs := range views[:readers-1] {
			for i, c := range cols(g) {
				columnsEqual(t, c, vs[i], wb.Column(c))
			}
		}
		for pid, w := range want.Meta() {
			for c := range w.Stats {
				statsEqual(t, metas[readers-1][pid].Stats[c], w.Stats[c])
			}
		}
	}
}
