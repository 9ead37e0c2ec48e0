package table

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// Partitioning is a materialized data layout for one dataset: an
// assignment of every row to a partition ID plus per-partition metadata.
//
// In the paper's terms this is the realization of a "data layout": the
// mapping function from records to partitions, together with the
// partition-level metadata that the query optimizer consults for
// skipping. Because the dataset under study is static, the mapping is
// materialized as a dense row→partition vector.
type Partitioning struct {
	NumPartitions int
	// Assign maps row index to partition ID in [0, NumPartitions).
	Assign []int
	// Meta holds one entry per partition, indexed by partition ID.
	Meta []*PartitionMeta
	// TotalRows is the number of rows across all partitions.
	TotalRows int

	// stats is the lazily built column-major mirror of Meta, shared by
	// every reader; see Stats. Laziness (rather than building inside
	// BuildPartitioning only) keeps partitionings reconstructed by other
	// paths — persistence, tests building the struct by hand — on the
	// same fast path.
	statsOnce sync.Once
	stats     *StatsBlock
}

// Stats returns the partitioning's column-major statistics block,
// building it on first use. The block assumes the partitioning's Meta is
// frozen (which BuildPartitioning guarantees); callers must not mutate
// Meta afterwards. Safe for concurrent use.
func (p *Partitioning) Stats() *StatsBlock {
	p.statsOnce.Do(func() { p.stats = buildStatsBlock(p) })
	return p.stats
}

// BuildPartitioning materializes a partitioning from a row→partition
// assignment and computes all partition metadata, sweeping the
// assignment once per pair of same-typed columns. assign must have one
// entry per dataset row; IDs must be in [0, k).
//
// The result is field-for-field what folding every row through
// PartitionMeta.AddRow in ascending row order leaves (the reference the
// equivalence tests and fuzz target compare against). Numeric columns
// run AddInt/AddFloat's comparisons over per-partition min/max tables in
// that same row order, so NaN cells and the sign of a zero extreme fall
// exactly as they do there. String columns mark each (partition, code)
// pair a row exhibits in a bitmap — one word per partition when the
// dictionary has at most 64 values — then fold each partition's marked
// values into its ColumnStats: range, distinct set and Bloom bits are
// functions of the value set alone, so once per distinct value, in any
// order, equals once per row.
func BuildPartitioning(d *Dataset, assign []int, k int) (*Partitioning, error) {
	if len(assign) != d.NumRows() {
		return nil, fmt.Errorf("table: assignment covers %d rows, dataset has %d",
			len(assign), d.NumRows())
	}
	if k <= 0 {
		return nil, fmt.Errorf("table: invalid partition count %d", k)
	}
	p := &Partitioning{
		NumPartitions: k,
		Assign:        assign,
		Meta:          make([]*PartitionMeta, k),
		TotalRows:     d.NumRows(),
	}
	schema := d.Schema()
	for i := 0; i < k; i++ {
		p.Meta[i] = NewPartitionMeta(i, schema)
	}
	for r, pid := range assign {
		if pid < 0 || pid >= k {
			return nil, fmt.Errorf("table: row %d assigned to partition %d, want [0,%d)", r, pid, k)
		}
		p.Meta[pid].NumRows++
	}

	var ints, floats, small, large []int // column indices by sweep kind
	for c := 0; c < schema.NumCols(); c++ {
		switch schema.Col(c).Type {
		case Int64:
			ints = append(ints, c)
		case Float64:
			floats = append(floats, c)
		case String:
			if len(d.dicts[c].values) <= 64 {
				small = append(small, c)
			} else {
				large = append(large, c)
			}
		}
	}
	n := len(assign)
	ri := [2][]span[int64]{make([]span[int64], k), make([]span[int64], k)}
	foldPairs(ints, func(a, b int) {
		sweepInts(assign, d.ints[a][:n], d.ints[b][:n], ri)
	}, func(c, g int) {
		for pid, m := range p.Meta {
			cs := &m.Stats[c]
			cs.MinI, cs.MaxI, cs.seen = ri[g][pid].min, ri[g][pid].max, m.NumRows > 0
		}
	})
	rf := [2][]span[float64]{make([]span[float64], k), make([]span[float64], k)}
	foldPairs(floats, func(a, b int) {
		sweepFloats(assign, d.floats[a][:n], d.floats[b][:n], rf)
	}, func(c, g int) {
		for pid, m := range p.Meta {
			cs := &m.Stats[c]
			cs.MinF, cs.MaxF, cs.seen = rf[g][pid].min, rf[g][pid].max, m.NumRows > 0
		}
	})
	marks := [2][]uint64{make([]uint64, k), make([]uint64, k)}
	foldPairs(small, func(a, b int) {
		sweepMarks(assign, d.codes[a][:n], d.codes[b][:n], marks)
	}, func(c, g int) {
		for pid, m := range p.Meta {
			foldMarked(&m.Stats[c], marks[g][pid:pid+1], d.dicts[c].values)
		}
	})
	var wide []uint64 // k rows of one bit per dictionary code
	for _, c := range large {
		codes, values := d.codes[c][:n], d.dicts[c].values
		words := (len(values) + 63) / 64
		if need := k * words; cap(wide) < need {
			wide = make([]uint64, need)
		} else {
			wide = wide[:need]
			clear(wide)
		}
		for r, pid := range assign {
			code := codes[r]
			wide[pid*words+int(code>>6)] |= 1 << (code & 63)
		}
		for pid, m := range p.Meta {
			foldMarked(&m.Stats[c], wide[pid*words:(pid+1)*words], values)
		}
	}
	// Materialize the column-major statistics mirror now that Meta is
	// frozen, so the first query never pays the transpose.
	p.Stats()
	return p, nil
}

// span is one partition's running [min, max] over a numeric column.
type span[T int64 | float64] struct{ min, max T }

// foldPairs runs sweep over cols two at a time — a lone last column is
// swept as its own pair — and after each sweep hands every column of it
// to store with its slot in the pair.
func foldPairs(cols []int, sweep func(a, b int), store func(c, slot int)) {
	for i := 0; i < len(cols); i += 2 {
		pair := cols[i:min(i+2, len(cols))]
		sweep(pair[0], pair[len(pair)-1])
		for slot, c := range pair {
			store(c, slot)
		}
	}
}

// sweepInts folds int columns a and b into per-partition spans in one
// pass over assign. When a and b are the same column, s[1] repeats s[0].
// An int span is the same whatever order its values arrive in, so it
// takes the branch-free min and max.
func sweepInts(assign []int, a, b []int64, s [2][]span[int64]) {
	resetSpans(s, math.MaxInt64, math.MinInt64)
	sa, sb := s[0], s[1]
	for r, pid := range assign {
		x, y := &sa[pid], &sb[pid]
		u, v := a[r], b[r]
		x.min, x.max = min(x.min, u), max(x.max, u)
		y.min, y.max = min(y.min, v), max(y.max, v)
	}
}

// sweepFloats is sweepInts for float columns, with AddFloat's own
// comparisons in ascending row order: the builtin min and max would let
// a NaN cell win and order -0 below +0, where AddFloat skips the one
// and keeps whichever zero came first.
func sweepFloats(assign []int, a, b []float64, s [2][]span[float64]) {
	resetSpans(s, math.Inf(1), math.Inf(-1))
	sa, sb := s[0], s[1]
	for r, pid := range assign {
		x, y := &sa[pid], &sb[pid]
		if v := a[r]; v < x.min {
			x.min = v
		}
		if v := a[r]; v > x.max {
			x.max = v
		}
		if v := b[r]; v < y.min {
			y.min = v
		}
		if v := b[r]; v > y.max {
			y.max = v
		}
	}
}

// resetSpans empties both tables of a pair to the (lo, hi) sentinels.
func resetSpans[T int64 | float64](s [2][]span[T], lo, hi T) {
	for g := range s {
		for i := range s[g] {
			s[g][i] = span[T]{lo, hi}
		}
	}
}

// sweepMarks marks, for columns a and b whose codes are all below 64,
// each code a partition's rows exhibit in the partition's word.
func sweepMarks(assign []int, a, b []uint32, marks [2][]uint64) {
	ma, mb := marks[0], marks[1]
	clear(ma)
	clear(mb)
	for r, pid := range assign {
		ma[pid] |= 1 << (a[r] & 63)
		mb[pid] |= 1 << (b[r] & 63)
	}
}

// foldMarked folds the dictionary values whose codes are marked into cs.
func foldMarked(cs *ColumnStats, marked []uint64, values []string) {
	n := 0
	for _, w := range marked {
		n += bits.OnesCount64(w)
	}
	if 0 < n && n <= MaxTrackedDistinct {
		cs.Distinct = make(map[string]struct{}, n)
	}
	for i, w := range marked {
		for ; w != 0; w &= w - 1 {
			cs.AddString(values[i*64+bits.TrailingZeros64(w)])
		}
	}
}

// MustBuildPartitioning is BuildPartitioning that panics on error, for
// use with programmatically constructed assignments that cannot fail.
func MustBuildPartitioning(d *Dataset, assign []int, k int) *Partitioning {
	p, err := BuildPartitioning(d, assign, k)
	if err != nil {
		panic(err)
	}
	return p
}

// RowsInPartition returns the row count of partition pid.
func (p *Partitioning) RowsInPartition(pid int) int {
	return p.Meta[pid].NumRows
}

// NonEmptyPartitions returns the number of partitions holding at least
// one row.
func (p *Partitioning) NonEmptyPartitions() int {
	n := 0
	for _, m := range p.Meta {
		if m.NumRows > 0 {
			n++
		}
	}
	return n
}
