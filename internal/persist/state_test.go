package persist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"oreo/internal/layout"
	"oreo/internal/query"
	"oreo/internal/table"
)

// stateFixture builds a dataset (with NaN-poisoned float metadata to
// exercise the bit-pattern encoding), a layout over it, and a workload
// that warms the layout's memo.
func stateFixture(t *testing.T, rows int, seed int64) (*table.Dataset, *layout.Layout, []query.Query) {
	t.Helper()
	schema := table.NewSchema(
		table.Column{Name: "ts", Type: table.Int64},
		table.Column{Name: "v", Type: table.Float64},
		table.Column{Name: "tag", Type: table.String},
	)
	rng := rand.New(rand.NewSource(seed))
	b := table.NewBuilder(schema, rows)
	for i := 0; i < rows; i++ {
		v := rng.NormFloat64() * 50
		if rng.Intn(25) == 0 {
			v = math.NaN()
		}
		b.AppendRow(table.Int(int64(i)), table.Float(v), table.Str(fmt.Sprintf("t%02d", rng.Intn(30))))
	}
	ds := b.Build()
	l := layout.NewSortGenerator("ts").Generate(ds, nil, 8)

	qs := make([]query.Query, 40)
	for i := range qs {
		switch i % 3 {
		case 0:
			lo := rng.Int63n(int64(rows))
			qs[i] = query.Query{ID: i, Preds: []query.Predicate{query.IntRange("ts", lo, lo+50)}}
		case 1:
			qs[i] = query.Query{ID: i, Preds: []query.Predicate{query.FloatGE("v", rng.NormFloat64()*20)}}
		default:
			qs[i] = query.Query{ID: i, Preds: []query.Predicate{query.StrEq("tag", fmt.Sprintf("t%02d", rng.Intn(30)))}}
		}
	}
	for _, q := range qs {
		l.Cost(q) // warm the memo
	}
	return ds, l, qs
}

// saveState and loadState are the WithData pair over a table that never
// took a live write: a layout snapshot with no data section.
func saveState(w io.Writer, l *layout.Layout, ds *table.Dataset) error {
	return SaveStateWithData(w, l, ds, ds.NumRows(), nil)
}

func loadState(r io.Reader, ds *table.Dataset) (*layout.Layout, bool, error) {
	l, warm, _, _, err := LoadStateWithData(r, ds)
	return l, warm, err
}

// TestStateRoundTrip saves a warm layout and loads it against the same
// dataset: the restart must come back warm, with every memoized cost
// answered from the memo, bitwise-equal to the pre-save values.
func TestStateRoundTrip(t *testing.T) {
	ds, l, qs := stateFixture(t, 600, 1)
	if l.Engine().Stats().Entries == 0 {
		t.Fatal("fixture memo is cold")
	}
	wantCosts := make([]float64, len(qs))
	for i, q := range qs {
		wantCosts[i] = l.Cost(q)
	}

	var buf bytes.Buffer
	if err := saveState(&buf, l, ds); err != nil {
		t.Fatal(err)
	}
	got, warm, err := loadState(bytes.NewReader(buf.Bytes()), ds)
	if err != nil {
		t.Fatal(err)
	}
	if !warm {
		t.Fatal("round trip against the same dataset reported a cold restart")
	}
	if got.Name != l.Name {
		t.Errorf("layout name %q, want %q", got.Name, l.Name)
	}
	if ge, we := got.Engine().Stats().Entries, l.Engine().Stats().Entries; ge != we {
		t.Errorf("restored memo holds %d entries, want %d", ge, we)
	}
	before := got.Engine().Stats()
	for i, q := range qs {
		if c := got.Cost(q); c != wantCosts[i] {
			t.Fatalf("query %d: restored cost %v, want %v", i, c, wantCosts[i])
		}
	}
	after := got.Engine().Stats()
	if hits := after.Hits - before.Hits; hits != uint64(len(qs)) {
		t.Errorf("restored engine served %d memo hits for %d warmed queries", hits, len(qs))
	}
}

// TestStateStaleDatasetGoesCold replays a state file against a dataset
// whose content (not shape) changed: the layout must still load — its
// metadata is recomputed, so skipping stays sound — but the memo must
// be discarded because the statistics block no longer matches.
func TestStateStaleDatasetGoesCold(t *testing.T) {
	ds, l, _ := stateFixture(t, 600, 1)
	var buf bytes.Buffer
	if err := saveState(&buf, l, ds); err != nil {
		t.Fatal(err)
	}

	other, _, _ := stateFixture(t, 600, 2) // same schema and row count, different values
	got, warm, err := loadState(bytes.NewReader(buf.Bytes()), other)
	if err != nil {
		t.Fatal(err)
	}
	if warm {
		t.Fatal("memo installed against a dataset with different statistics")
	}
	if got.Engine().Stats().Entries != 0 {
		t.Errorf("cold restart still holds %d memo entries", got.Engine().Stats().Entries)
	}
}

// TestStateRejects covers the hard error paths (garbage input, a bad
// version) and the graceful one: a corrupt memo entry must cost the
// warm start — the memo's provenance is suspect — but never the
// validated layout, which an operator would otherwise lose to a
// re-sort from scratch.
func TestStateRejects(t *testing.T) {
	ds, l, _ := stateFixture(t, 200, 3)
	var buf bytes.Buffer
	if err := saveState(&buf, l, ds); err != nil {
		t.Fatal(err)
	}

	if _, _, err := loadState(strings.NewReader("not json"), ds); err == nil {
		t.Error("garbage accepted")
	}
	if _, _, err := loadState(strings.NewReader(`{"version":99}`), ds); err == nil {
		t.Error("unknown version accepted")
	}

	checkColdButLoaded := func(name, state string) {
		t.Helper()
		got, warm, err := loadState(strings.NewReader(state), ds)
		if err != nil {
			t.Errorf("%s: corrupt memo must degrade, not fail: %v", name, err)
			return
		}
		if warm || got == nil || got.Engine().Stats().Entries != 0 {
			t.Errorf("%s: want cold layout with empty memo, got warm=%v layout=%v", name, warm, got)
		}
		if got != nil && got.Name != l.Name {
			t.Errorf("%s: layout name %q, want %q", name, got.Name, l.Name)
		}
	}
	bad := strings.Replace(buf.String(), `"memo":[{"fp":"`, `"memo":[{"fp":"!!!not-base64!!!`, 1)
	if bad == buf.String() {
		t.Fatal("fixture state has no memo entries to corrupt")
	}
	checkColdButLoaded("bad base64", bad)
	bad = strings.Replace(buf.String(), `"cost":0.`, `"cost":7.`, 1)
	if bad != buf.String() {
		checkColdButLoaded("out-of-range cost", bad)
	}
}

// TestCaptureBindInMemory pins the in-memory framing replication rides
// on: CaptureState/Bind round-trip a layout without touching an
// io.Writer, JSON-marshal losslessly (the wire embeds the documents
// verbatim), and the statistics gate behaves identically to the
// file path.
func TestCaptureBindInMemory(t *testing.T) {
	ds, l, qs := stateFixture(t, 600, 3)

	doc, err := CaptureState(l)
	if err != nil {
		t.Fatal(err)
	}
	// The wire embeds the document inside a larger record: it must
	// survive a JSON round trip bit-for-bit.
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var back StateDoc
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	got, warm, err := back.Bind(ds)
	if err != nil {
		t.Fatal(err)
	}
	if !warm {
		t.Fatal("in-memory round trip reported cold")
	}
	for i, q := range qs {
		if a, b := l.Cost(q), got.Cost(q); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("query %d: cost %v after round trip, want %v", i, b, a)
		}
	}

	// The layout document alone round-trips too (decision records ship
	// switched layouts this way, without stats or memo).
	ld, err := CaptureLayout(l)
	if err != nil {
		t.Fatal(err)
	}
	rebound, err := ld.Bind(ds)
	if err != nil {
		t.Fatal(err)
	}
	if rebound.Name != l.Name || rebound.Part.NumPartitions != l.Part.NumPartitions {
		t.Fatalf("rebound layout = %s/%d, want %s/%d",
			rebound.Name, rebound.Part.NumPartitions, l.Name, l.Part.NumPartitions)
	}
	for i, q := range qs {
		if a, b := l.Cost(q), rebound.Cost(q); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("query %d: rebound cost %v, want %v", i, b, a)
		}
	}
}
