package serve

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"oreo/internal/datagen"
	"oreo/internal/layout"
	"oreo/internal/table"
	"oreo/internal/workload"
)

// widening is the per-row oracle of extendAssignment's widen: the
// columns of delta row r that partition metadata m cannot already
// cover, each string cell asked of ContainsString by its value. Empty
// column stats count zero; NaN floats never widen a range.
func widening(m *table.PartitionMeta, delta *table.Dataset, r int) int {
	w := 0
	schema := delta.Schema()
	for c := 0; c < schema.NumCols(); c++ {
		cs := &m.Stats[c]
		if cs.Empty() {
			continue
		}
		switch schema.Col(c).Type {
		case table.Int64:
			if v := delta.Int64At(c, r); v < cs.MinI || v > cs.MaxI {
				w++
			}
		case table.Float64:
			if v := delta.Float64At(c, r); v < cs.MinF || v > cs.MaxF {
				w++
			}
		case table.String:
			if !cs.ContainsString(delta.StringAt(c, r)) {
				w++
			}
		}
	}
	return w
}

// oracleExtendAssignment is least-widening placement one row at a
// time: the argmin of widening over the partitions, ties to fewer rows,
// then to the lower partition ID.
func oracleExtendAssignment(part *table.Partitioning, delta *table.Dataset) []int {
	assign := append([]int(nil), part.Assign...)
	for r := 0; r < delta.NumRows(); r++ {
		best, bestWiden, bestRows := 0, delta.Schema().NumCols()+1, int(^uint(0)>>1)
		for pid, m := range part.Meta() {
			w := widening(m, delta, r)
			if w < bestWiden || (w == bestWiden && m.NumRows < bestRows) {
				best, bestWiden, bestRows = pid, w, m.NumRows
			}
		}
		assign = append(assign, best)
	}
	return assign
}

// placementSchema mixes every column type: a low-cardinality string, a
// string wide enough to overflow a partition's exact distinct set into
// a Bloom filter, and a float column carrying NaN and both zeros.
var placementSchema = table.NewSchema(
	table.Column{Name: "i", Type: table.Int64},
	table.Column{Name: "f", Type: table.Float64},
	table.Column{Name: "s", Type: table.String},
	table.Column{Name: "wide", Type: table.String},
)

// placementRow draws one row; fresh > 0 mixes in string values outside
// the pool's dictionary.
func placementRow(rng *rand.Rand, fresh int) []table.Value {
	floats := []float64{math.NaN(), math.Copysign(0, -1), 0, -1.5, 0.5, 2}
	f := floats[rng.Intn(len(floats))]
	if rng.Intn(3) == 0 {
		f = rng.Float64()*6 - 3
	}
	i := rng.Int63n(40) - 20
	switch rng.Intn(40) {
	case 0:
		i = math.MinInt64
	case 1:
		i = math.MaxInt64
	}
	s := string(rune('a' + rng.Intn(8)))
	wide := fmt.Sprintf("w%03d", rng.Intn(300))
	if fresh > 0 && rng.Intn(4) == 0 {
		s = fmt.Sprintf("new%d", rng.Intn(fresh))
	}
	if fresh > 0 && rng.Intn(4) == 0 {
		wide = fmt.Sprintf("w%03d", 300+rng.Intn(fresh))
	}
	return []table.Value{table.Int(i), table.Float(f), table.Str(s), table.Str(wide)}
}

// TestExtendAssignmentMatchesPerRowOracle holds fold placement to the
// per-row oracle on random metadata: empty partitions, overflowed
// (Bloom) string sets beside exact ones, NaN and ±0 floats, int64
// extremes, and deltas whose values are new to the dictionary or held
// by no partition — both deltas coded against their own dictionary and
// deltas sharing a larger one. Partition sizes come from a small set,
// so widening and row-count ties are common; the test fails if the
// corpus stops producing any of the cases it names.
func TestExtendAssignmentMatchesPerRowOracle(t *testing.T) {
	var empty, bloom, exact, rowTies, idTies, unheld int
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pb := table.NewBuilder(placementSchema, 3000)
		for r := 0; r < 3000; r++ {
			pb.AppendRow(placementRow(rng, 0)...)
		}
		pool := pb.Build()

		k := 1 + rng.Intn(12)
		sizes := []int{0, 3, 40, 40, 150}
		var assign []int
		for pid := 0; pid < k; pid++ {
			for n := sizes[rng.Intn(len(sizes))]; n > 0; n-- {
				assign = append(assign, pid)
			}
		}
		rng.Shuffle(len(assign), func(a, b int) { assign[a], assign[b] = assign[b], assign[a] })
		rows := rng.Perm(pool.NumRows())
		bb := table.NewBuilder(pool.Schema(), len(assign))
		bb.AppendRows(pool, rows[:len(assign)])
		base := bb.Build()
		part := table.MustBuildPartitioning(base, assign, k)
		for _, m := range part.Meta() {
			switch cs := &m.Stats[3]; {
			case cs.Empty():
				empty++
			case cs.Distinct == nil && cs.Bloom != nil:
				bloom++
			default:
				exact++
			}
		}

		// One delta shares the pool's dictionary (codes no delta row uses,
		// values no partition holds); the other is coded against its own,
		// with values the base dictionary never saw.
		sb := table.NewBuilder(pool.Schema(), 200)
		sb.AppendRows(pool, rows[len(assign):len(assign)+200])
		shared := sb.Build()
		ob := table.NewBuilder(placementSchema, 200)
		for r := 0; r < 200; r++ {
			ob.AppendRow(placementRow(rng, 5)...)
		}
		for _, delta := range []*table.Dataset{shared, ob.Build()} {
			got, want := extendAssignment(part, delta), oracleExtendAssignment(part, delta)
			if len(got) != len(want) {
				t.Fatalf("seed %d: %d assignments, oracle %d", seed, len(got), len(want))
			}
			for r := range want {
				if got[r] != want[r] {
					t.Fatalf("seed %d: row %d placed in %d, oracle %d", seed, r-len(assign), got[r], want[r])
				}
			}
			for r := 0; r < delta.NumRows(); r++ {
				v := delta.StringAt(3, r)
				held := false
				for _, m := range part.Meta() {
					held = held || m.Stats[3].ContainsString(v)
				}
				if !held {
					unheld++
				}
				rt, it := placementTies(part.Meta(), delta, r)
				rowTies += rt
				idTies += it
			}
		}
	}
	t.Logf("partitions: %d empty, %d Bloom, %d exact; rows: %d row-count ties, %d ID ties, %d unheld values",
		empty, bloom, exact, rowTies, idTies, unheld)
	if empty == 0 || bloom == 0 || exact == 0 || rowTies == 0 || idTies == 0 || unheld == 0 {
		t.Fatal("the corpus no longer covers every case the test names")
	}
}

// placementTies reports whether delta row r's least widening is shared
// by partitions of different sizes (the row-count tie-break decides)
// and whether it is shared by two partitions of the fewest rows (the
// partition ID decides).
func placementTies(meta []*table.PartitionMeta, delta *table.Dataset, r int) (rowTie, idTie int) {
	least, rows := math.MaxInt, []int(nil)
	for _, m := range meta {
		switch w := widening(m, delta, r); {
		case w < least:
			least, rows = w, []int{m.NumRows}
		case w == least:
			rows = append(rows, m.NumRows)
		}
	}
	lo := slices.Min(rows)
	if slices.Max(rows) != lo {
		rowTie = 1
	}
	if n := len(slices.DeleteFunc(rows, func(x int) bool { return x != lo })); n > 1 {
		idTie = 1
	}
	return rowTie, idTie
}

// BenchmarkExtendAssignment is one fold's placement at serve-write's
// shape: a 200 000-row TPC-H base under a 66-partition Qd-tree layout
// and an 8 192-row delta (DefaultCompactThreshold) drawn from a second
// seeded table, coded against its own dictionary as an appended batch
// is. Partition metadata is built before the timer starts.
func BenchmarkExtendAssignment(b *testing.B) {
	base := datagen.GenerateTPCH(200000, rand.New(rand.NewSource(1)))
	qs := workload.MustGenerate(workload.TPCHTemplates(), workload.Config{NumQueries: 200, NumSegments: 2},
		rand.New(rand.NewSource(2))).Queries
	part := layout.NewQdTreeGenerator().Generate(base, qs, 66).Part
	part.Meta()
	delta := datagen.GenerateTPCH(DefaultCompactThreshold, rand.New(rand.NewSource(3)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		extendAssignment(part, delta)
	}
}
