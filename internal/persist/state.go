package persist

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"oreo/internal/layout"
	"oreo/internal/prune"
	"oreo/internal/table"
)

// State persistence extends the layout format with the warm-start
// payload a long-lived server wants back after a restart: the layout's
// column-major statistics block and the costing engine's memo. A cold
// restart rebuilds metadata in one dataset pass but starts with an
// empty memo, so the first window re-costings after boot pay full
// evaluation cost; LoadStateWithData restores the memo so the serving
// hot path restarts hot.
//
// Soundness: partition metadata is still recomputed from the dataset at
// load — nothing read from disk ever feeds partition skipping. The
// saved statistics block is used purely as an integrity gate for the
// memo: it is compared bit-for-bit (floats by their IEEE-754 bit
// patterns, so NaN-poisoned metadata round-trips exactly) against the
// block recomputed from the dataset, and on any mismatch the memo is
// discarded, because its costs describe different data. A stale state
// file therefore degrades to a cold start, never to wrong answers.
//
// The same framing doubles as the replication snapshot: a leader
// captures its serving state with CaptureState, ships the StateDoc
// inside a stream record, and the follower Binds it against its local
// copy of the data. There the statistics-block gate carries a stronger
// meaning — a mismatch proves the follower's data differs from the
// leader's, so replication treats warm=false as a fatal divergence
// rather than a cold start.

// StateFormatVersion identifies the on-disk warm-start encoding.
// Version 2 added the optional Data section (live-write tail + delta);
// version-1 files carry no data section and still load.
const StateFormatVersion = 2

// stateVersionV1 is the pre-live-writes encoding: layout + stats +
// memo, no Data section.
const stateVersionV1 = 1

// StateDoc is the serialized form of a warm-start snapshot: the layout
// document plus the statistics block and cost memo captured with it,
// and — once a table takes live writes — the data the layout cannot
// reproduce from the boot source alone (rows appended since boot).
type StateDoc struct {
	Version int       `json:"version"`
	Layout  LayoutDoc `json:"layout"`
	Stats   StatsDoc  `json:"stats"`
	Memo    []MemoDoc `json:"memo,omitempty"`
	// Data versions the rows themselves. Nil for tables that never took
	// a live write (and for every version-1 document): the boot source
	// reproduces the dataset exactly, so only the layout needs saving.
	Data *DataDoc `json:"data,omitempty"`
}

// DataDoc records how a table's rows relate to its boot source: the
// first BootRows rows come from the source the process loads at boot
// (CSV file or generated fixture), Tail holds compacted appended rows
// beyond those, and Delta holds rows still in the uncompacted delta
// segment. BootRows pins the split so a restart can verify the boot
// source still matches before grafting the tail on.
type DataDoc struct {
	BootRows int      `json:"boot_rows"`
	Tail     *RowsDoc `json:"tail,omitempty"`
	Delta    *RowsDoc `json:"delta,omitempty"`
}

// RowsDoc is a columnar row batch on the wire: one typed array per
// schema column, floats as IEEE-754 bit patterns (JSON has no NaN, and
// bit patterns keep the follower ≡ leader comparison exact). The same
// framing carries warm-start tails, warm-start deltas, and replication
// append batches.
type RowsDoc struct {
	NumRows int      `json:"num_rows"`
	Columns []string `json:"columns"`
	// Per-column arrays, indexed by schema column position; exactly one
	// of the three is non-nil per position, matching the column's type.
	Ints      [][]int64  `json:"ints,omitempty"`
	FloatBits [][]uint64 `json:"float_bits,omitempty"`
	Strs      [][]string `json:"strs,omitempty"`
}

// CaptureRows snapshots rows [from, to) of the dataset as a wire batch.
func CaptureRows(ds *table.Dataset, from, to int) (*RowsDoc, error) {
	if from < 0 || to > ds.NumRows() || from > to {
		return nil, fmt.Errorf("persist: capture range [%d,%d) outside dataset of %d rows", from, to, ds.NumRows())
	}
	s := ds.Schema()
	f := &RowsDoc{
		NumRows:   to - from,
		Columns:   s.Names(),
		Ints:      make([][]int64, s.NumCols()),
		FloatBits: make([][]uint64, s.NumCols()),
		Strs:      make([][]string, s.NumCols()),
	}
	for c := 0; c < s.NumCols(); c++ {
		switch s.Col(c).Type {
		case table.Int64:
			f.Ints[c] = append([]int64(nil), ds.Int64Col(c)[from:to]...)
		case table.Float64:
			bits := make([]uint64, 0, to-from)
			for _, v := range ds.Float64Col(c)[from:to] {
				bits = append(bits, math.Float64bits(v))
			}
			f.FloatBits[c] = bits
		case table.String:
			strs := make([]string, 0, to-from)
			for r := from; r < to; r++ {
				strs = append(strs, ds.StringAt(c, r))
			}
			f.Strs[c] = strs
		}
	}
	return f, nil
}

// Dataset materializes the batch against the schema, which becomes the
// result's schema (pointer identity — the contract Concat and the delta
// segment require). Shape is validated column by column; a batch saved
// against a different schema is an explicit error, never a
// misinterpreted dataset.
func (f *RowsDoc) Dataset(schema *table.Schema) (*table.Dataset, error) {
	if len(f.Columns) != schema.NumCols() {
		return nil, fmt.Errorf("persist: row batch has %d columns, schema has %d", len(f.Columns), schema.NumCols())
	}
	for i, name := range f.Columns {
		if schema.Col(i).Name != name {
			return nil, fmt.Errorf("persist: row batch column %d is %q, schema has %q", i, name, schema.Col(i).Name)
		}
	}
	colLen := func(c int) int {
		switch schema.Col(c).Type {
		case table.Int64:
			if c < len(f.Ints) {
				return len(f.Ints[c])
			}
		case table.Float64:
			if c < len(f.FloatBits) {
				return len(f.FloatBits[c])
			}
		case table.String:
			if c < len(f.Strs) {
				return len(f.Strs[c])
			}
		}
		return -1
	}
	b := table.NewBuilder(schema, f.NumRows)
	for c := 0; c < schema.NumCols(); c++ {
		if n := colLen(c); n != f.NumRows {
			return nil, fmt.Errorf("persist: row batch column %q carries %d values, batch declares %d rows", schema.Col(c).Name, n, f.NumRows)
		}
	}
	row := make([]table.Value, schema.NumCols())
	for r := 0; r < f.NumRows; r++ {
		for c := 0; c < schema.NumCols(); c++ {
			switch schema.Col(c).Type {
			case table.Int64:
				row[c] = table.Int(f.Ints[c][r])
			case table.Float64:
				row[c] = table.Float(math.Float64frombits(f.FloatBits[c][r]))
			case table.String:
				row[c] = table.Str(f.Strs[c][r])
			}
		}
		b.AppendRow(row...)
	}
	return b.Build(), nil
}

// StatsDoc mirrors table.StatsBlock's numeric content. Floats are
// stored as IEEE-754 bit patterns: JSON cannot represent NaN (which
// legitimately appears as poisoned float metadata), and bit patterns
// make the load-time comparison exact rather than subject to any
// formatting round trip.
type StatsDoc struct {
	NumParts int      `json:"num_parts"`
	NumCols  int      `json:"num_cols"`
	Rows     []int    `json:"rows"`
	MinI     []int64  `json:"min_i"`
	MaxI     []int64  `json:"max_i"`
	MinFBits []uint64 `json:"min_f_bits"`
	MaxFBits []uint64 `json:"max_f_bits"`
	Seen     []bool   `json:"seen"`
	NonEmpty []uint64 `json:"non_empty"`
}

// MemoDoc is one memo entry: the query's binary structural fingerprint
// (base64, as fingerprints are not valid UTF-8) and its memoized cost.
type MemoDoc struct {
	FP   string  `json:"fp"`
	Cost float64 `json:"cost"`
}

// newStatsDoc snapshots a statistics block.
func newStatsDoc(b *table.StatsBlock) StatsDoc {
	c := b.Columns()
	f := StatsDoc{
		NumParts: b.NumParts,
		NumCols:  b.NumCols,
		Rows:     append([]int(nil), b.Rows...),
		MinI:     append([]int64(nil), c.MinI...),
		MaxI:     append([]int64(nil), c.MaxI...),
		MinFBits: make([]uint64, len(c.MinF)),
		MaxFBits: make([]uint64, len(c.MaxF)),
		Seen:     append([]bool(nil), c.Seen...),
		NonEmpty: append([]uint64(nil), b.NonEmpty...),
	}
	for i, v := range c.MinF {
		f.MinFBits[i] = math.Float64bits(v)
	}
	for i, v := range c.MaxF {
		f.MaxFBits[i] = math.Float64bits(v)
	}
	return f
}

// matchesBlock reports whether the saved statistics equal the block
// recomputed from the live dataset, bit for bit.
func (f *StatsDoc) matchesBlock(b *table.StatsBlock) bool {
	c := b.Columns()
	if f.NumParts != b.NumParts || f.NumCols != b.NumCols ||
		len(f.Rows) != len(b.Rows) || len(f.MinI) != len(c.MinI) ||
		len(f.MaxI) != len(c.MaxI) || len(f.MinFBits) != len(c.MinF) ||
		len(f.MaxFBits) != len(c.MaxF) || len(f.Seen) != len(c.Seen) ||
		len(f.NonEmpty) != len(b.NonEmpty) {
		return false
	}
	for i, v := range b.Rows {
		if f.Rows[i] != v {
			return false
		}
	}
	for i, v := range c.MinI {
		if f.MinI[i] != v {
			return false
		}
	}
	for i, v := range c.MaxI {
		if f.MaxI[i] != v {
			return false
		}
	}
	for i, v := range c.MinF {
		if f.MinFBits[i] != math.Float64bits(v) {
			return false
		}
	}
	for i, v := range c.MaxF {
		if f.MaxFBits[i] != math.Float64bits(v) {
			return false
		}
	}
	for i, v := range c.Seen {
		if f.Seen[i] != v {
			return false
		}
	}
	for i, v := range b.NonEmpty {
		if f.NonEmpty[i] != v {
			return false
		}
	}
	return true
}

// CaptureState builds a warm-start snapshot of the layout in memory:
// the row→partition assignment, the column-major statistics block, and
// the cost memo (least recently used first, preserving eviction order).
func CaptureState(l *layout.Layout) (*StateDoc, error) {
	lf, err := CaptureLayout(l)
	if err != nil {
		return nil, err
	}
	f := &StateDoc{
		Version: StateFormatVersion,
		Layout:  *lf,
		Stats:   newStatsDoc(l.Part.Stats()),
	}
	for _, en := range l.Engine().ExportMemo() {
		f.Memo = append(f.Memo, MemoDoc{
			FP:   base64.StdEncoding.EncodeToString([]byte(en.FP)),
			Cost: en.Cost,
		})
	}
	return f, nil
}

// CaptureStateWithData builds a warm-start snapshot that also carries
// the rows the boot source cannot reproduce: base is the table's
// current compacted dataset (the one l covers), of which the first
// bootRows rows come from the boot source; delta is the uncompacted
// delta segment (nil or empty for none). A table that never took a
// live write (bootRows == base rows, empty delta) gets no Data section
// and the document is readable by version-1 loaders.
func CaptureStateWithData(l *layout.Layout, base *table.Dataset, bootRows int, delta *table.Dataset) (*StateDoc, error) {
	f, err := CaptureState(l)
	if err != nil {
		return nil, err
	}
	if bootRows < 0 || bootRows > base.NumRows() {
		return nil, fmt.Errorf("persist: boot rows %d outside dataset of %d rows", bootRows, base.NumRows())
	}
	d := &DataDoc{BootRows: bootRows}
	dirty := false
	if bootRows < base.NumRows() {
		if d.Tail, err = CaptureRows(base, bootRows, base.NumRows()); err != nil {
			return nil, err
		}
		dirty = true
	}
	if delta != nil && delta.NumRows() > 0 {
		if d.Delta, err = CaptureRows(delta, 0, delta.NumRows()); err != nil {
			return nil, err
		}
		dirty = true
	}
	if dirty {
		f.Data = d
	}
	return f, nil
}

// BindData resolves the document's data section against the boot
// dataset: it returns the base dataset the layout covers (boot plus the
// saved tail) and the saved delta rows (nil when none), both sharing
// the boot schema. Call it before Bind — Bind validates the layout
// against the returned base, and its statistics gate then proves the
// reassembled rows match the ones the document was captured over. A
// boot source that shrank or grew since the save is an explicit error:
// the saved tail would land on the wrong rows.
func (f *StateDoc) BindData(boot *table.Dataset) (base, delta *table.Dataset, err error) {
	if err := f.checkVersion(); err != nil {
		return nil, nil, err
	}
	if f.Data == nil {
		return boot, nil, nil
	}
	if boot.NumRows() != f.Data.BootRows {
		return nil, nil, fmt.Errorf("persist: state was saved over a %d-row boot source, booted with %d rows", f.Data.BootRows, boot.NumRows())
	}
	base = boot
	if f.Data.Tail != nil {
		tail, err := f.Data.Tail.Dataset(boot.Schema())
		if err != nil {
			return nil, nil, fmt.Errorf("persist: rebuilding saved tail: %w", err)
		}
		base = table.Concat(boot, tail)
	}
	if f.Data.Delta != nil {
		if delta, err = f.Data.Delta.Dataset(boot.Schema()); err != nil {
			return nil, nil, fmt.Errorf("persist: rebuilding saved delta: %w", err)
		}
	}
	return base, delta, nil
}

// checkVersion gates every read path on the format version: both
// supported encodings load, anything newer is an explicit error.
func (f *StateDoc) checkVersion() error {
	if f.Version != StateFormatVersion && f.Version != stateVersionV1 {
		return fmt.Errorf("persist: unknown state format version %d (this build reads versions %d-%d)", f.Version, stateVersionV1, StateFormatVersion)
	}
	return nil
}

// SaveStateWithData writes a warm-start snapshot that also carries the
// rows the boot source cannot reproduce; see CaptureStateWithData.
func SaveStateWithData(w io.Writer, l *layout.Layout, base *table.Dataset, bootRows int, delta *table.Dataset) error {
	f, err := CaptureStateWithData(l, base, bootRows, delta)
	if err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(f)
}

// Bind rebinds a state document to the dataset. The layout's partition
// metadata is recomputed from the dataset (as LayoutDoc.Bind does); the
// memo is installed only when the recomputed statistics block matches
// the saved one bit-for-bit. The boolean reports whether the memo was
// installed (a "warm" restart). warm=false with a nil error means the
// layout itself is usable but the saved statistics (or memo) did not
// survive verification — for a restart that is a cold boot, for a
// replication snapshot it is a data divergence the caller must treat as
// fatal.
func (f *StateDoc) Bind(ds *table.Dataset) (*layout.Layout, bool, error) {
	if err := f.checkVersion(); err != nil {
		return nil, false, err
	}
	l, err := f.Layout.Bind(ds)
	if err != nil {
		return nil, false, err
	}
	if !f.Stats.matchesBlock(l.Part.Stats()) {
		// The saved costs describe different data (dataset changed since
		// the snapshot): fall back to a cold memo.
		return l, false, nil
	}
	entries := make([]prune.MemoEntry, 0, len(f.Memo))
	for _, m := range f.Memo {
		fp, err := base64.StdEncoding.DecodeString(m.FP)
		if err != nil || m.Cost < 0 || m.Cost > 1 || math.IsNaN(m.Cost) {
			// The layout itself passed all its integrity checks; a
			// corrupt memo entry costs us the warm start, not the
			// converged layout. Discard the whole memo (its provenance
			// is now suspect) and boot cold.
			return l, false, nil
		}
		entries = append(entries, prune.MemoEntry{FP: string(fp), Cost: m.Cost})
	}
	l.Engine().SeedMemo(entries)
	return l, true, nil
}

// LoadStateWithData reads a snapshot written by SaveStateWithData and
// reassembles the full serving state against the boot dataset: the
// saved tail is re-concatenated onto boot (BindData), the layout is
// rebound against that grown base (Bind, with the usual statistics
// gate deciding warm), and the saved delta segment rows come back as
// their own dataset (nil when the save had none). Version-1 files —
// and version-2 files for tables that never took a live write — load
// with base == boot and a nil delta.
func LoadStateWithData(r io.Reader, boot *table.Dataset) (l *layout.Layout, warm bool, base, delta *table.Dataset, err error) {
	var f StateDoc
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, false, nil, nil, fmt.Errorf("persist: decoding state: %w", err)
	}
	if base, delta, err = f.BindData(boot); err != nil {
		return nil, false, nil, nil, err
	}
	if l, warm, err = f.Bind(base); err != nil {
		return nil, false, nil, nil, err
	}
	return l, warm, base, delta, nil
}
