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
// assignment and computes all partition metadata, one pass per column.
// assign must have one entry per dataset row; IDs must be in [0, k).
//
// The result is field-for-field what folding every row through
// PartitionMeta.AddRow in ascending row order leaves (the reference the
// equivalence tests and fuzz target compare against). Numeric columns
// run AddInt/AddFloat's comparisons over per-partition min/max arrays in
// that same row order, so NaN cells and the sign of a zero extreme fall
// exactly as they do there. String columns mark each (partition, code)
// pair a row exhibits in a bitmap, then fold each partition's marked
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

	type rangeI struct{ min, max int64 }
	type rangeF struct{ min, max float64 }
	ri, rf := make([]rangeI, k), make([]rangeF, k)
	var marks []uint64 // k rows of one bit per dictionary code
	for c := 0; c < schema.NumCols(); c++ {
		switch schema.Col(c).Type {
		case Int64:
			for i := range ri {
				ri[i] = rangeI{math.MaxInt64, math.MinInt64}
			}
			col := d.ints[c][:len(assign)]
			for r, pid := range assign {
				v, x := col[r], &ri[pid]
				if v < x.min {
					x.min = v
				}
				if v > x.max {
					x.max = v
				}
			}
			for pid, m := range p.Meta {
				cs := &m.Stats[c]
				cs.MinI, cs.MaxI, cs.seen = ri[pid].min, ri[pid].max, m.NumRows > 0
			}
		case Float64:
			for i := range rf {
				rf[i] = rangeF{math.Inf(1), math.Inf(-1)}
			}
			col := d.floats[c][:len(assign)]
			for r, pid := range assign {
				v, x := col[r], &rf[pid]
				if v < x.min {
					x.min = v
				}
				if v > x.max {
					x.max = v
				}
			}
			for pid, m := range p.Meta {
				cs := &m.Stats[c]
				cs.MinF, cs.MaxF, cs.seen = rf[pid].min, rf[pid].max, m.NumRows > 0
			}
		case String:
			codes, values := d.codes[c][:len(assign)], d.dicts[c].values
			words := (len(values) + 63) / 64
			if need := k * words; cap(marks) < need {
				marks = make([]uint64, need)
			} else {
				marks = marks[:need]
				for i := range marks {
					marks[i] = 0
				}
			}
			for r, pid := range assign {
				code := codes[r]
				marks[pid*words+int(code>>6)] |= 1 << (code & 63)
			}
			for pid, m := range p.Meta {
				marked := marks[pid*words : (pid+1)*words]
				n := 0
				for _, w := range marked {
					n += bits.OnesCount64(w)
				}
				cs := &m.Stats[c]
				if 0 < n && n <= MaxTrackedDistinct {
					cs.Distinct = make(map[string]struct{}, n)
				}
				for i, w := range marked {
					for ; w != 0; w &= w - 1 {
						cs.AddString(values[i*64+bits.TrailingZeros64(w)])
					}
				}
			}
		}
	}
	// Materialize the column-major statistics mirror now that Meta is
	// frozen, so the first query never pays the transpose.
	p.Stats()
	return p, nil
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
