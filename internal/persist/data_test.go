package persist

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"oreo/internal/layout"
	"oreo/internal/table"
)

// TestRowsDocRoundTrip pins the columnar row-batch framing: every cell
// — including NaN and signed-zero floats — survives a JSON round trip
// bit for bit, and the rebuilt dataset shares the target schema pointer.
func TestRowsDocRoundTrip(t *testing.T) {
	ds, _, _ := stateFixture(t, 120, 9)
	s := ds.Schema()
	b := table.NewBuilder(s, 3)
	b.AppendRow(table.Int(-7), table.Float(math.NaN()), table.Str(""))
	b.AppendRow(table.Int(math.MaxInt64), table.Float(math.Copysign(0, -1)), table.Str("x"))
	b.AppendRow(table.Int(0), table.Float(math.Inf(-1)), table.Str("üñïçödé"))
	weird := b.Build()

	for _, src := range []*table.Dataset{ds, weird} {
		doc, err := CaptureRows(src, 0, src.NumRows())
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		var back RowsDoc
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		got, err := back.Dataset(s)
		if err != nil {
			t.Fatal(err)
		}
		if got.Schema() != s {
			t.Fatal("rebuilt dataset does not share the schema pointer")
		}
		if got.NumRows() != src.NumRows() {
			t.Fatalf("rebuilt %d rows, want %d", got.NumRows(), src.NumRows())
		}
		for r := 0; r < src.NumRows(); r++ {
			if got.Int64At(0, r) != src.Int64At(0, r) ||
				math.Float64bits(got.Float64At(1, r)) != math.Float64bits(src.Float64At(1, r)) ||
				got.StringAt(2, r) != src.StringAt(2, r) {
				t.Fatalf("row %d differs after round trip", r)
			}
		}
	}
}

// TestRowsDocRejects covers the shape-validation paths: wrong column
// names, wrong column count, and a column array shorter than the
// declared row count.
func TestRowsDocRejects(t *testing.T) {
	ds, _, _ := stateFixture(t, 40, 9)
	doc, err := CaptureRows(ds, 0, 10)
	if err != nil {
		t.Fatal(err)
	}

	other := table.NewSchema(
		table.Column{Name: "ts", Type: table.Int64},
		table.Column{Name: "v", Type: table.Float64},
		table.Column{Name: "renamed", Type: table.String},
	)
	if _, err := doc.Dataset(other); err == nil {
		t.Error("mismatched column name accepted")
	}
	narrow := table.NewSchema(table.Column{Name: "ts", Type: table.Int64})
	if _, err := doc.Dataset(narrow); err == nil {
		t.Error("mismatched column count accepted")
	}

	short := *doc
	short.Ints = append([][]int64(nil), doc.Ints...)
	short.Ints[0] = doc.Ints[0][:5]
	if _, err := short.Dataset(ds.Schema()); err == nil {
		t.Error("short column array accepted")
	}

	if _, err := CaptureRows(ds, 30, 50); err == nil {
		t.Error("out-of-range capture accepted")
	}
}

// TestStateWithDataRoundTrip saves state for a table whose dataset has
// grown past its boot source (compacted tail) and still carries delta
// rows, then restores it from the boot source alone: BindData must
// reassemble the exact base, Bind must come back warm against it, and
// the delta rows must match bitwise.
func TestStateWithDataRoundTrip(t *testing.T) {
	boot, _, _ := stateFixture(t, 400, 4)

	// Grow the base past the boot source and build a layout over the
	// grown dataset — the state a leader holds after one compaction.
	base := table.Concat(boot, pickRows(boot, 1, 3, 5, 7, 9, 11, 13, 15))
	grownLayout := layout.NewSortGenerator("ts").Generate(base, nil, 8)

	doc, err := CaptureStateWithData(grownLayout, base, boot.NumRows(), pickRows(boot, 2, 4, 6))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Version != StateFormatVersion || doc.Data == nil || doc.Data.Tail == nil || doc.Data.Delta == nil {
		t.Fatalf("unexpected document shape: version=%d data=%+v", doc.Version, doc.Data)
	}

	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(doc); err != nil {
		t.Fatal(err)
	}
	var back StateDoc
	if err := json.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatal(err)
	}

	gotBase, gotDelta, err := back.BindData(boot)
	if err != nil {
		t.Fatal(err)
	}
	if gotBase.NumRows() != base.NumRows() {
		t.Fatalf("restored base has %d rows, want %d", gotBase.NumRows(), base.NumRows())
	}
	for r := 0; r < base.NumRows(); r++ {
		if base.Int64At(0, r) != gotBase.Int64At(0, r) ||
			math.Float64bits(base.Float64At(1, r)) != math.Float64bits(gotBase.Float64At(1, r)) ||
			base.StringAt(2, r) != gotBase.StringAt(2, r) {
			t.Fatalf("restored base row %d differs", r)
		}
	}
	if gotDelta == nil || gotDelta.NumRows() != 3 {
		t.Fatalf("restored delta = %v", gotDelta)
	}
	if _, warm, err := back.Bind(gotBase); err != nil || !warm {
		t.Fatalf("Bind against reassembled base: warm=%v err=%v", warm, err)
	}

	// A shrunk/grown boot source must be an explicit error.
	if _, _, err := back.BindData(pickRows(boot, 0, 1, 2)); err == nil {
		t.Error("mismatched boot source accepted")
	}
}

// TestStateV1StillLoads pins backward compatibility: a version-1 state
// document (no data section) binds cleanly under the version-2 reader,
// and BindData passes the boot dataset through untouched.
func TestStateV1StillLoads(t *testing.T) {
	ds, l, _ := stateFixture(t, 300, 6)
	doc, err := CaptureState(l)
	if err != nil {
		t.Fatal(err)
	}
	doc.Version = stateVersionV1 // what an old build would have written
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}

	got, warm, err := loadState(bytes.NewReader(data), ds)
	if err != nil {
		t.Fatal(err)
	}
	if !warm || got == nil {
		t.Fatalf("v1 document loaded cold: warm=%v", warm)
	}
	var back StateDoc
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	base, delta, err := back.BindData(ds)
	if err != nil {
		t.Fatal(err)
	}
	if base != ds || delta != nil {
		t.Fatal("v1 BindData must pass the boot dataset through")
	}
}

// TestUnknownVersionsRejected pins the explicit forward-compat errors
// on both document types, on every read path (stream Bind included).
func TestUnknownVersionsRejected(t *testing.T) {
	ds, l, _ := stateFixture(t, 200, 8)

	sd, err := CaptureState(l)
	if err != nil {
		t.Fatal(err)
	}
	sd.Version = StateFormatVersion + 1
	if _, _, err := sd.Bind(ds); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("future state version: err=%v", err)
	}
	if _, _, err := sd.BindData(ds); err == nil {
		t.Error("future state version accepted by BindData")
	}

	ld, err := CaptureLayout(l)
	if err != nil {
		t.Fatal(err)
	}
	ld.Version = FormatVersion + 1
	if _, err := ld.Bind(ds); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("future layout version: err=%v", err)
	}
}

// TestSaveLoadStateWithData pins the file-level wrappers oreoserve's
// shutdown/boot cycle uses: SaveStateWithData then LoadStateWithData
// against the boot source reassembles the grown base, loads warm, and
// returns the delta; a write-free table round-trips with base == boot
// and no delta.
func TestSaveLoadStateWithData(t *testing.T) {
	boot, _, _ := stateFixture(t, 300, 4)

	tailSrc := pickRows(boot, 10, 20, 30, 40, 50)
	base := table.Concat(boot, tailSrc)
	grown := layout.NewSortGenerator("ts").Generate(base, nil, 6)
	deltaSrc := pickRows(boot, 60, 70)

	var buf bytes.Buffer
	if err := SaveStateWithData(&buf, grown, base, boot.NumRows(), deltaSrc); err != nil {
		t.Fatal(err)
	}
	l, warm, gotBase, gotDelta, err := LoadStateWithData(&buf, boot)
	if err != nil {
		t.Fatal(err)
	}
	if !warm {
		t.Error("restore came back cold")
	}
	if l.Part.TotalRows != base.NumRows() || gotBase.NumRows() != base.NumRows() {
		t.Fatalf("restored layout covers %d rows over a %d-row base, want %d",
			l.Part.TotalRows, gotBase.NumRows(), base.NumRows())
	}
	if gotDelta == nil || gotDelta.NumRows() != 2 {
		t.Fatalf("restored delta = %v, want 2 rows", gotDelta)
	}
	for r := 0; r < 2; r++ {
		if gotDelta.Int64At(0, r) != deltaSrc.Int64At(0, r) ||
			math.Float64bits(gotDelta.Float64At(1, r)) != math.Float64bits(deltaSrc.Float64At(1, r)) ||
			gotDelta.StringAt(2, r) != deltaSrc.StringAt(2, r) {
			t.Fatalf("restored delta row %d differs", r)
		}
	}

	// No tail, no delta: the document degrades to the plain state
	// encoding and loads with base == boot.
	ds, lay, _ := stateFixture(t, 200, 4)
	buf.Reset()
	if err := SaveStateWithData(&buf, lay, ds, ds.NumRows(), nil); err != nil {
		t.Fatal(err)
	}
	l2, warm2, base2, delta2, err := LoadStateWithData(&buf, ds)
	if err != nil {
		t.Fatal(err)
	}
	if !warm2 || l2 == nil || base2 != ds || delta2 != nil {
		t.Fatalf("write-free round trip: warm=%v base==boot=%v delta=%v", warm2, base2 == ds, delta2)
	}
}

// pickRows copies the given rows of d, in order, into a new dataset
// over d's schema and dictionaries.
func pickRows(d *table.Dataset, rows ...int) *table.Dataset {
	b := table.NewBuilder(d.Schema(), len(rows))
	b.AppendRows(d, rows)
	return b.Build()
}
