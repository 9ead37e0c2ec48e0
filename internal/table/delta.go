package table

import "fmt"

// Delta is the append-only tail of a live table: rows that have arrived
// since the last compaction, kept in one unpartitioned column block
// with incrementally-maintained per-column statistics. A Delta is the
// write-side counterpart of the immutable Dataset — the serving layer
// appends into it off the read path and periodically folds it into the
// partitioned base.
//
// Concurrency model: all mutation (AppendDataset, Reset) must be
// serialized by the owner (the serving layer funnels appends through
// one consumer goroutine per table). Readers never touch the Delta
// itself; they hold a DeltaView taken with View, which is immutable —
// its Dataset exposes the first n rows over the shared backing arrays,
// and appends past n either write beyond every view's length or
// reallocate the backing array entirely, so published views are stable
// either way. String dictionaries follow the same rule: a view's
// StringDict covers the first m values of the append-only value list,
// and the value→code map the delta encodes against stays private to
// the writer.
type Delta struct {
	schema *Schema
	ints   [][]int64
	floats [][]float64
	dicts  []dictWriter
	codes  [][]uint32
	// pub caches, per string column, the dictionary last handed to a
	// view; reused while the column has gained no value since.
	pub   []*StringDict
	rows  int
	stats []ColumnStats

	// view caches the last snapshot; invalidated on append, so
	// back-to-back View calls with no intervening writes are free.
	view *DeltaView
}

// DeltaView is an immutable snapshot of a delta segment: the rows as a
// read-only Dataset plus per-column stats covering exactly those rows.
// Views are safe to share across goroutines and remain valid after
// further appends to the originating Delta.
type DeltaView struct {
	// Data holds the snapshot's rows. Never nil; zero rows when the
	// delta was empty at snapshot time.
	Data *Dataset
	// Stats holds one ColumnStats per schema column, in schema order,
	// covering exactly Data's rows. Exact (not an approximation): the
	// delta is append-only, so mins/maxes never need to shrink.
	Stats []ColumnStats
}

// Rows returns the number of rows in the view.
func (v *DeltaView) Rows() int { return v.Data.NumRows() }

// NewDelta returns an empty delta segment over the schema.
func NewDelta(schema *Schema) *Delta {
	d := &Delta{
		schema: schema,
		ints:   make([][]int64, schema.NumCols()),
		floats: make([][]float64, schema.NumCols()),
		dicts:  make([]dictWriter, schema.NumCols()),
		codes:  make([][]uint32, schema.NumCols()),
		pub:    make([]*StringDict, schema.NumCols()),
		stats:  make([]ColumnStats, schema.NumCols()),
	}
	for i := 0; i < schema.NumCols(); i++ {
		d.stats[i] = newColumnStats(schema.Col(i).Type)
	}
	return d
}

// Schema returns the delta's schema.
func (d *Delta) Schema() *Schema { return d.schema }

// Rows returns the number of rows currently in the delta.
func (d *Delta) Rows() int { return d.rows }

// AppendDataset appends every row of src and folds the new cells into
// the incremental stats. The source must have been built over the
// delta's exact schema (pointer identity, like Builder.AppendRows);
// anything else is a programming error upstream of the write path.
// String cells are re-coded against the delta's own dictionaries, which
// grow in first-appearance order; their stats fold once per distinct
// value of the batch, which leaves the same ColumnStats as folding
// every cell (min/max, the distinct set and Bloom bits are all
// functions of the value set alone).
func (d *Delta) AppendDataset(src *Dataset) {
	if src.schema != d.schema {
		panic("table: Delta.AppendDataset across different schemas")
	}
	if src.numRows == 0 {
		return
	}
	for c := 0; c < d.schema.NumCols(); c++ {
		switch d.schema.Col(c).Type {
		case Int64:
			for _, v := range src.ints[c] {
				d.stats[c].AddInt(v)
			}
			d.ints[c] = append(d.ints[c], src.ints[c]...)
		case Float64:
			for _, v := range src.floats[c] {
				d.stats[c].AddFloat(v)
			}
			d.floats[c] = append(d.floats[c], src.floats[c]...)
		case String:
			start := len(d.codes[c])
			d.codes[c] = append(d.codes[c], src.codes[c]...)
			d.dicts[c].recode(d.codes[c][start:], src.dicts[c], d.stats[c].AddString)
		}
	}
	d.rows += src.numRows
	d.view = nil
}

// Reset empties the delta after its rows have been folded into the
// base. folded guards against compacting a stale snapshot: it must
// equal the current row count, or Reset panics — a row that arrived
// between snapshot and fold would otherwise be silently dropped.
func (d *Delta) Reset(folded int) {
	if folded != d.rows {
		panic(fmt.Sprintf("table: Delta.Reset(%d) with %d rows — rows appended since the compaction snapshot", folded, d.rows))
	}
	for c := 0; c < d.schema.NumCols(); c++ {
		d.ints[c] = nil
		d.floats[c] = nil
		d.dicts[c] = dictWriter{}
		d.codes[c] = nil
		d.pub[c] = nil
		d.stats[c] = newColumnStats(d.schema.Col(c).Type)
	}
	d.rows = 0
	d.view = nil
}

// View returns an immutable snapshot of the delta's current rows and
// stats. The result is cached until the next append, so repeated calls
// on a quiet delta return the same pointer.
func (d *Delta) View() *DeltaView {
	if d.view != nil {
		return d.view
	}
	ds := &Dataset{
		schema:  d.schema,
		numRows: d.rows,
		ints:    make([][]int64, len(d.ints)),
		floats:  make([][]float64, len(d.floats)),
		dicts:   make([]*StringDict, len(d.dicts)),
		codes:   make([][]uint32, len(d.codes)),
	}
	stats := make([]ColumnStats, len(d.stats))
	for c := 0; c < d.schema.NumCols(); c++ {
		switch d.schema.Col(c).Type {
		case Int64:
			ds.ints[c] = d.ints[c][:d.rows:d.rows]
		case Float64:
			ds.floats[c] = d.floats[c][:d.rows:d.rows]
		case String:
			ds.codes[c] = d.codes[c][:d.rows:d.rows]
			if n := len(d.dicts[c].values); d.pub[c] == nil || d.pub[c].Len() != n {
				d.pub[c] = &StringDict{values: d.dicts[c].values[:n:n]}
			}
			ds.dicts[c] = d.pub[c]
		}
		stats[c] = d.stats[c].Clone()
	}
	d.view = &DeltaView{Data: ds, Stats: stats}
	return d.view
}

// Concat returns a new dataset holding base's rows followed by tail's,
// sharing base's schema. Compaction grows a table's base this way; both
// inputs are left untouched. The tail must share the base's schema
// pointer, the same contract as Builder.AppendRows. The result shares
// base's string dictionaries unless the tail holds a value they lack,
// in which case that column gets base's dictionary extended by the
// tail's new values in first-appearance order (base codes unchanged).
func Concat(base, tail *Dataset) *Dataset {
	if tail.schema != base.schema {
		panic("table: Concat across different schemas")
	}
	b := NewBuilder(base.schema, base.numRows+tail.numRows)
	b.appendAll(base)
	b.appendAll(tail)
	return b.Build()
}
