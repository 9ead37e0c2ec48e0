package table

// StatsBlock is a column-major (struct-of-arrays) mirror of a
// partitioning's per-partition metadata, consumed by the compiled
// pruning engine (internal/prune).
//
// The row-wise representation — Meta()[pid].Stats[ci] — is convenient
// to build incrementally but hostile to the cost hot path: evaluating
// one predicate against every partition chases one pointer per
// partition and strides across interleaved ColumnStats structs. The
// block transposes the numeric statistics into flat per-column arrays
// so that a range predicate on column ci scans two contiguous slices in
// partition order, which is the access pattern the hardware prefetcher
// rewards.
//
// Rows and NonEmpty are filled when the partitioning is built. The
// column arrays are reached only through Column and Columns, which
// build the columns they return on first read (see Partitioning).
//
// String-column membership tests still need the partition's distinct
// set or Bloom filter; ColumnBlock.Col keeps a flat pointer table back
// into the original ColumnStats for those. All numeric fields are
// copied verbatim (including the zero values a ColumnStats holds for
// slots of another type), so metadata evaluation over the block is
// bit-for-bit identical to evaluation over Meta.
type StatsBlock struct {
	// NumParts is the partition dimension: the partitioning's
	// NumPartitions.
	NumParts int
	// NumCols is the column dimension, taken from the partition metadata.
	NumCols int

	// Rows[pid] is the partition's row count.
	Rows []int

	// NonEmpty is a bitset over partition IDs with Rows > 0; word w bit b
	// covers partition w*64+b. Pruning starts from this mask (empty
	// partitions can never be scanned) and clears bits per predicate.
	NonEmpty []uint64

	part *Partitioning // builds unbuilt columns
	cols ColumnBlock   // indexed by ci*NumParts + pid
}

// ColumnBlock holds column statistics across partitions: one column's,
// indexed by partition ID, from StatsBlock.Column, or every column's,
// indexed by ci*NumParts + pid, from StatsBlock.Columns.
type ColumnBlock struct {
	MinI, MaxI []int64
	MinF, MaxF []float64
	// Seen mirrors !ColumnStats.Empty() per (column, partition).
	Seen []bool
	// Col points back at the source ColumnStats per (column, partition),
	// for string distinct-set / Bloom membership tests.
	Col []*ColumnStats
}

// Column returns column ci's statistics, indexed by partition ID,
// building the column on first read.
func (b *StatsBlock) Column(ci int) ColumnBlock {
	b.part.column(ci)
	lo, hi := ci*b.NumParts, (ci+1)*b.NumParts
	c := &b.cols
	return ColumnBlock{
		MinI: c.MinI[lo:hi:hi], MaxI: c.MaxI[lo:hi:hi],
		MinF: c.MinF[lo:hi:hi], MaxF: c.MaxF[lo:hi:hi],
		Seen: c.Seen[lo:hi:hi], Col: c.Col[lo:hi:hi],
	}
}

// Columns returns every column's statistics, indexed by
// ci*NumParts + pid, building every column first.
func (b *StatsBlock) Columns() ColumnBlock {
	b.part.Meta()
	return b.cols
}

// newStatsBlock allocates p's block for nc columns and fills its row
// counts from p's metadata; nil entries behave as empty partitions.
func newStatsBlock(p *Partitioning, nc int) *StatsBlock {
	np := len(p.meta)
	b := &StatsBlock{
		NumParts: np,
		NumCols:  nc,
		Rows:     make([]int, np),
		NonEmpty: make([]uint64, (np+63)/64),
		part:     p,
		cols: ColumnBlock{
			MinI: make([]int64, nc*np),
			MaxI: make([]int64, nc*np),
			MinF: make([]float64, nc*np),
			MaxF: make([]float64, nc*np),
			Seen: make([]bool, nc*np),
			Col:  make([]*ColumnStats, nc*np),
		},
	}
	for pid, m := range p.meta {
		if m != nil && m.NumRows > 0 {
			b.Rows[pid] = m.NumRows
			b.NonEmpty[pid/64] |= 1 << (pid % 64)
		}
	}
	return b
}

// load copies column ci of meta into the block. Partitions that are nil
// or lack the column keep the zero entry.
func (b *StatsBlock) load(ci int, meta []*PartitionMeta) {
	c := &b.cols
	for pid, m := range meta {
		if m == nil || ci >= len(m.Stats) {
			continue
		}
		cs := &m.Stats[ci]
		idx := ci*b.NumParts + pid
		c.MinI[idx], c.MaxI[idx] = cs.MinI, cs.MaxI
		c.MinF[idx], c.MaxF[idx] = cs.MinF, cs.MaxF
		c.Seen[idx] = !cs.Empty()
		c.Col[idx] = cs
	}
}
