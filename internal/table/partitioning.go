package table

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Partitioning is a materialized data layout for one dataset: an
// assignment of every row to a partition ID plus per-partition metadata.
//
// In the paper's terms this is the realization of a "data layout": the
// mapping function from records to partitions, together with the
// partition-level metadata that the query optimizer consults for
// skipping. Because the dataset under study is static, the mapping is
// materialized as a dense row→partition vector.
//
// Row counts are computed up front; each column's statistics are built
// the first time anything reads that column — through Meta, which
// builds every column, or through the statistics block's column
// accessors, which build what they return. A candidate layout that is
// judged on a few predicate columns and then discarded never pays for
// the rest. Every accessor is safe for concurrent use.
type Partitioning struct {
	NumPartitions int
	// Assign maps row index to partition ID in [0, NumPartitions). It is
	// frozen once the partitioning is built: columns not yet read are
	// built from it later, so callers must never write to it.
	Assign []int
	// TotalRows is the number of rows across all partitions.
	TotalRows int

	meta  []*PartitionMeta // one entry per partition ID; see Meta
	stats *StatsBlock      // column-major mirror of meta; see Stats

	// Lazy column fill. built[c] is set once column c of meta and stats
	// is written, complete once every column is. mu serializes fills and
	// guards left, the number of unbuilt columns, and data, the dataset
	// they are swept from (dropped with the last of them).
	built    []atomic.Bool
	complete atomic.Bool
	mu       sync.Mutex
	left     int
	data     *Dataset
}

// BuildPartitioning materializes a partitioning from a row→partition
// assignment. assign must have one entry per dataset row; IDs must be
// in [0, k). It validates the assignment and counts every partition's
// rows; column statistics are built on first read (see Partitioning),
// from d and assign, which therefore must not change afterwards.
//
// Each built column is field-for-field what folding every row through
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
	nc := d.Schema().NumCols()
	metas := make([]PartitionMeta, k)
	stats := make([]ColumnStats, k*nc)
	meta := make([]*PartitionMeta, k)
	for i := range meta {
		metas[i] = PartitionMeta{ID: i, Stats: stats[i*nc : (i+1)*nc : (i+1)*nc]}
		meta[i] = &metas[i]
	}
	for r, pid := range assign {
		if pid < 0 || pid >= k {
			return nil, fmt.Errorf("table: row %d assigned to partition %d, want [0,%d)", r, pid, k)
		}
		metas[pid].NumRows++
	}
	p := &Partitioning{
		NumPartitions: k,
		Assign:        assign,
		TotalRows:     d.NumRows(),
		meta:          meta,
		built:         make([]atomic.Bool, nc),
		left:          nc,
		data:          d,
	}
	p.stats = newStatsBlock(p, nc)
	p.complete.Store(nc == 0)
	return p, nil
}

// NewPartitioning wraps metadata assembled outside BuildPartitioning —
// a row-at-a-time reference fold, a hand-built test case — as a
// partitioning whose every column is already built. TotalRows is the
// sum of the partitions' row counts; nil entries are empty partitions.
// meta and assign must not change afterwards.
func NewPartitioning(meta []*PartitionMeta, assign []int) *Partitioning {
	p := &Partitioning{NumPartitions: len(meta), Assign: assign, meta: meta}
	nc := 0
	for _, m := range meta {
		if m != nil {
			p.TotalRows += m.NumRows
			nc = max(nc, len(m.Stats))
		}
	}
	p.stats = newStatsBlock(p, nc)
	p.built = make([]atomic.Bool, nc)
	for c := range p.built {
		p.stats.load(c, meta)
		p.built[c].Store(true)
	}
	p.complete.Store(true)
	return p
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

// Meta returns the per-partition metadata, indexed by partition ID,
// with every column built. Callers must not mutate it.
func (p *Partitioning) Meta() []*PartitionMeta {
	if !p.complete.Load() {
		p.mu.Lock()
		for c := range p.built {
			if !p.built[c].Load() {
				p.fill(c)
			}
		}
		p.mu.Unlock()
	}
	return p.meta
}

// Built reports whether column c's statistics have been built.
func (p *Partitioning) Built(c int) bool { return p.built[c].Load() }

// Stats returns the partitioning's column-major statistics block. Its
// row counts are ready; its column statistics are built by its
// accessors on first read.
func (p *Partitioning) Stats() *StatsBlock { return p.stats }

// column builds column c unless it is built already.
func (p *Partitioning) column(c int) {
	if p.built[c].Load() {
		return
	}
	p.mu.Lock()
	if !p.built[c].Load() {
		p.fill(c)
	}
	p.mu.Unlock()
}

// fill sweeps column c of the dataset into every partition's
// ColumnStats and the statistics block, then marks it built. The
// caller holds mu and has seen the column unbuilt.
func (p *Partitioning) fill(c int) {
	d, assign, k := p.data, p.Assign, p.NumPartitions
	n := len(assign)
	switch d.Schema().Col(c).Type {
	case Int64:
		s := make([]span[int64], k)
		sweepInts(assign, d.ints[c][:n], s)
		for pid, m := range p.meta {
			m.Stats[c] = ColumnStats{Type: Int64, MinI: s[pid].min, MaxI: s[pid].max, seen: m.NumRows > 0}
		}
	case Float64:
		s := make([]span[float64], k)
		sweepFloats(assign, d.floats[c][:n], s)
		for pid, m := range p.meta {
			m.Stats[c] = ColumnStats{Type: Float64, MinF: s[pid].min, MaxF: s[pid].max, seen: m.NumRows > 0}
		}
	case String:
		codes, values := d.codes[c][:n], d.dicts[c].values
		words := max((len(values)+63)/64, 1)
		marks := make([]uint64, k*words) // k rows of one bit per code
		if words == 1 {
			sweepMarks(assign, codes, marks)
		} else {
			for r, pid := range assign {
				code := codes[r]
				marks[pid*words+int(code>>6)] |= 1 << (code & 63)
			}
		}
		for pid, m := range p.meta {
			m.Stats[c] = ColumnStats{Type: String}
			foldMarked(&m.Stats[c], marks[pid*words:(pid+1)*words], values)
		}
	}
	p.stats.load(c, p.meta)
	p.built[c].Store(true)
	if p.left--; p.left == 0 {
		p.data = nil
		p.complete.Store(true)
	}
}

// span is one partition's running [min, max] over a numeric column.
type span[T int64 | float64] struct{ min, max T }

// sweepInts folds an int column into per-partition spans in one pass
// over assign. An int span is the same whatever order its values arrive
// in, so it takes the branch-free min and max.
func sweepInts(assign []int, col []int64, s []span[int64]) {
	for i := range s {
		s[i] = span[int64]{math.MaxInt64, math.MinInt64}
	}
	for r, pid := range assign {
		x, v := &s[pid], col[r]
		x.min, x.max = min(x.min, v), max(x.max, v)
	}
}

// sweepFloats is sweepInts for a float column, with AddFloat's own
// comparisons in ascending row order: the builtin min and max would let
// a NaN cell win and order -0 below +0, where AddFloat skips the one
// and keeps whichever zero came first.
func sweepFloats(assign []int, col []float64, s []span[float64]) {
	for i := range s {
		s[i] = span[float64]{math.Inf(1), math.Inf(-1)}
	}
	for r, pid := range assign {
		x, v := &s[pid], col[r]
		if v < x.min {
			x.min = v
		}
		if v > x.max {
			x.max = v
		}
	}
}

// sweepMarks marks, for a column whose codes are all below 64, each
// code a partition's rows exhibit in the partition's word.
func sweepMarks(assign []int, codes []uint32, marks []uint64) {
	for r, pid := range assign {
		marks[pid] |= 1 << (codes[r] & 63)
	}
}

// foldMarked folds the dictionary values whose codes are marked into
// cs, an empty String column's stats: the distinct set is allocated at
// its final size, or at the size that overflows it into a Bloom filter.
func foldMarked(cs *ColumnStats, marked []uint64, values []string) {
	n := 0
	for _, w := range marked {
		n += bits.OnesCount64(w)
	}
	cs.Distinct = make(map[string]struct{}, min(n, MaxTrackedDistinct+1))
	for i, w := range marked {
		for ; w != 0; w &= w - 1 {
			cs.AddString(values[i*64+bits.TrailingZeros64(w)])
		}
	}
}

// RowsInPartition returns the row count of partition pid.
func (p *Partitioning) RowsInPartition(pid int) int {
	return p.stats.Rows[pid]
}

// NonEmptyPartitions returns the number of partitions holding at least
// one row.
func (p *Partitioning) NonEmptyPartitions() int {
	n := 0
	for _, w := range p.stats.NonEmpty {
		n += bits.OnesCount64(w)
	}
	return n
}
