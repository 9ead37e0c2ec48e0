package table

import (
	"fmt"
	"slices"
)

// Dataset is an immutable, column-oriented table. Each column is stored
// as a typed slice so that scans, sorts, and layout construction touch
// contiguous memory; string columns are dictionary-coded — one
// immutable StringDict per column plus a []uint32 code per row — so a
// dataset holds no per-row string headers and nothing the collector has
// to scan. Datasets are cheap to share: all accessors are read-only
// after construction.
type Dataset struct {
	schema  *Schema
	numRows int
	ints    [][]int64     // indexed by column position; nil unless Int64
	floats  [][]float64   // indexed by column position; nil unless Float64
	dicts   []*StringDict // indexed by column position; nil unless String
	codes   [][]uint32    // indexed by column position; nil unless String
}

// Schema returns the dataset's schema.
func (d *Dataset) Schema() *Schema { return d.schema }

// NumRows returns the number of rows.
func (d *Dataset) NumRows() int { return d.numRows }

// Int64At returns the int64 cell at (col, row). The column must be Int64.
func (d *Dataset) Int64At(col, row int) int64 { return d.ints[col][row] }

// Float64At returns the float64 cell at (col, row). The column must be Float64.
func (d *Dataset) Float64At(col, row int) float64 { return d.floats[col][row] }

// StringAt returns the string cell at (col, row). The column must be String.
func (d *Dataset) StringAt(col, row int) string { return d.dicts[col].values[d.codes[col][row]] }

// ValueAt returns the cell at (col, row) boxed as a Value.
func (d *Dataset) ValueAt(col, row int) Value {
	switch d.schema.Col(col).Type {
	case Int64:
		return Int(d.ints[col][row])
	case Float64:
		return Float(d.floats[col][row])
	case String:
		return Str(d.StringAt(col, row))
	default:
		panic("table: unknown column type")
	}
}

// Int64Col returns the backing slice of an Int64 column. Callers must
// treat the slice as read-only.
func (d *Dataset) Int64Col(col int) []int64 { return d.ints[col] }

// Float64Col returns the backing slice of a Float64 column. Read-only.
func (d *Dataset) Float64Col(col int) []float64 { return d.floats[col] }

// StringCodes returns the backing code slice of a String column:
// StringCodes(col)[r] is row r's value as a code of Dict(col). Read-only.
func (d *Dataset) StringCodes(col int) []uint32 { return d.codes[col] }

// Dict returns the dictionary a String column is coded against, or nil
// for a column of another type. It may be shared with other datasets
// and may hold values none of this dataset's rows use.
func (d *Dataset) Dict(col int) *StringDict { return d.dicts[col] }

// Builder accumulates rows for a Dataset. It is not safe for concurrent
// use. Build may be called once; the builder must not be reused after.
//
// A builder is also a live table's write tail: the serving layer's one
// writer appends each landed batch (AppendDataset) and publishes the
// rows so far with View, while readers hold earlier views.
type Builder struct {
	schema  *Schema
	numRows int
	ints    [][]int64
	floats  [][]float64
	dicts   []dictWriter
	codes   [][]uint32
	built   bool
	// view caches View's result until the next append.
	view *Dataset
}

// NewBuilder returns a builder for the given schema with capacity hints.
func NewBuilder(schema *Schema, capacity int) *Builder {
	b := &Builder{
		schema: schema,
		ints:   make([][]int64, schema.NumCols()),
		floats: make([][]float64, schema.NumCols()),
		dicts:  make([]dictWriter, schema.NumCols()),
		codes:  make([][]uint32, schema.NumCols()),
	}
	for i := 0; i < schema.NumCols(); i++ {
		switch schema.Col(i).Type {
		case Int64:
			b.ints[i] = make([]int64, 0, capacity)
		case Float64:
			b.floats[i] = make([]float64, 0, capacity)
		case String:
			b.codes[i] = make([]uint32, 0, capacity)
		}
	}
	return b
}

// AppendRow appends one row. The values must match the schema's column
// order and types; mismatches panic because they are programming errors.
func (b *Builder) AppendRow(vals ...Value) {
	if len(vals) != b.schema.NumCols() {
		panic(fmt.Sprintf("table: AppendRow got %d values, schema has %d columns",
			len(vals), b.schema.NumCols()))
	}
	for i, v := range vals {
		want := b.schema.Col(i).Type
		if v.Type != want {
			panic(fmt.Sprintf("table: column %q wants %s, got %s",
				b.schema.Col(i).Name, want, v.Type))
		}
		switch want {
		case Int64:
			b.ints[i] = append(b.ints[i], v.I)
		case Float64:
			b.floats[i] = append(b.floats[i], v.F)
		case String:
			b.codes[i] = append(b.codes[i], b.dicts[i].code(v.S))
		}
	}
	b.numRows++
	b.view = nil
}

// AppendRows bulk-appends the rows of d at the given indices. The
// dataset must have been built over the builder's exact schema; cells
// are copied column by column from the typed backing slices, skipping
// the per-cell boxing and re-validation of AppendRow — the fast path
// for regrouping a dataset's rows (the execution layer rebuilds its
// per-partition blocks this way on every reorganization).
//
// String columns: a builder whose column is still empty shares d's
// dictionary and copies codes; so does any later AppendRows from a
// dataset coded against that same dictionary. Otherwise d's codes are
// translated, and the first value the builder's dictionary lacks makes
// it extend a private copy, in first-appearance order.
func (b *Builder) AppendRows(d *Dataset, rows []int) {
	if d.schema != b.schema {
		panic("table: AppendRows across different schemas")
	}
	for c := 0; c < b.schema.NumCols(); c++ {
		switch b.schema.Col(c).Type {
		case Int64:
			b.ints[c] = gather(b.ints[c], d.ints[c], rows)
		case Float64:
			b.floats[c] = gather(b.floats[c], d.floats[c], rows)
		case String:
			start := len(b.codes[c])
			b.codes[c] = gather(b.codes[c], d.codes[c], rows)
			b.recode(c, start, d)
		}
	}
	b.numRows += len(rows)
	b.view = nil
}

// gather appends src's cells at the given rows to dst, growing dst once.
func gather[T any](dst, src []T, rows []int) []T {
	n := len(dst)
	dst = slices.Grow(dst, len(rows))[:n+len(rows)]
	out := dst[n:]
	for j, r := range rows {
		out[j] = src[r]
	}
	return dst
}

// AppendDataset is AppendRows over every row of d, in order, with the
// same schema-identity contract. A dataset with no rows is a no-op.
func (b *Builder) AppendDataset(d *Dataset) {
	if d.schema != b.schema {
		panic("table: AppendDataset across different schemas")
	}
	if d.numRows == 0 {
		return
	}
	for c := 0; c < b.schema.NumCols(); c++ {
		switch b.schema.Col(c).Type {
		case Int64:
			b.ints[c] = append(b.ints[c], d.ints[c]...)
		case Float64:
			b.floats[c] = append(b.floats[c], d.floats[c]...)
		case String:
			start := len(b.codes[c])
			b.codes[c] = append(b.codes[c], d.codes[c]...)
			b.recode(c, start, d)
		}
	}
	b.numRows += d.numRows
	b.view = nil
}

// recode brings string column c's cells from start on, just copied from
// src as src's codes, into the builder's code space. A column with no
// cells before them shares src's dictionary, so the copy already is.
func (b *Builder) recode(c, start int, src *Dataset) {
	w := &b.dicts[c]
	if start == 0 {
		w.adopt(src.dicts[c])
	}
	w.recode(b.codes[c][start:], src.dicts[c])
}

// NumRows returns the number of rows appended so far.
func (b *Builder) NumRows() int { return b.numRows }

// Schema returns the schema the builder appends over.
func (b *Builder) Schema() *Schema { return b.schema }

// View returns the rows appended so far as an immutable Dataset and
// leaves the builder open. Column slices are clipped to the current row
// count, so later appends write past every view's length or reallocate,
// and each string column gets a dictionary snapshot of the values coded
// so far (its value→code map stays the writer's). Views are safe to
// share across goroutines while the builder's owner keeps appending.
// The result is cached until the next append.
func (b *Builder) View() *Dataset {
	if b.view != nil {
		return b.view
	}
	n := b.numRows
	ds := &Dataset{
		schema:  b.schema,
		numRows: n,
		ints:    make([][]int64, len(b.ints)),
		floats:  make([][]float64, len(b.floats)),
		dicts:   make([]*StringDict, len(b.dicts)),
		codes:   make([][]uint32, len(b.codes)),
	}
	for c := 0; c < b.schema.NumCols(); c++ {
		switch b.schema.Col(c).Type {
		case Int64:
			ds.ints[c] = b.ints[c][:n:n]
		case Float64:
			ds.floats[c] = b.floats[c][:n:n]
		case String:
			ds.codes[c] = b.codes[c][:n:n]
			ds.dicts[c] = b.dicts[c].snapshot()
		}
	}
	b.view = ds
	return ds
}

// Build finalizes the dataset. The builder must not be used afterwards.
func (b *Builder) Build() *Dataset {
	if b.built {
		panic("table: Builder.Build called twice")
	}
	b.built = true
	ds := &Dataset{
		schema:  b.schema,
		numRows: b.numRows,
		ints:    b.ints,
		floats:  b.floats,
		dicts:   make([]*StringDict, len(b.dicts)),
		codes:   b.codes,
	}
	for c := range b.dicts {
		if b.schema.Col(c).Type == String {
			ds.dicts[c] = b.dicts[c].freeze()
		}
	}
	return ds
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
	b.AppendDataset(base)
	b.AppendDataset(tail)
	return b.Build()
}
