package persist

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"oreo/client"
	"oreo/internal/datagen"
	"oreo/internal/query"
	"oreo/internal/workload"
)

func TestQueryLogRoundTrip(t *testing.T) {
	qs := []query.Query{
		{ID: 0, Template: 2, Preds: []query.Predicate{query.IntRange("a", -5, 10)}},
		{ID: 1, Preds: []query.Predicate{query.FloatGE("b", 0.25), query.StrEq("c", "x")}},
		{ID: 2, Preds: []query.Predicate{query.StrIn("c", "x", "y", "z")}},
		{ID: 3, Preds: []query.Predicate{query.IntLE("a", 0)}}, // zero bound round-trips
		{ID: 4}, // empty conjunction
	}
	var buf bytes.Buffer
	if err := SaveQueries(&buf, qs); err != nil {
		t.Fatal(err)
	}
	got, err := LoadQueries(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(qs, got) {
		t.Errorf("round trip mismatch:\nwant %+v\ngot  %+v", qs, got)
	}
}

func TestQueryLogRealWorkloadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, ds := range datagen.Names() {
		stream := workload.MustGenerate(workload.TemplatesFor(ds),
			workload.Config{NumQueries: 200, NumSegments: 4}, rng)
		var buf bytes.Buffer
		if err := SaveQueries(&buf, stream.Queries); err != nil {
			t.Fatalf("%s: %v", ds, err)
		}
		got, err := LoadQueries(&buf)
		if err != nil {
			t.Fatalf("%s: %v", ds, err)
		}
		if !reflect.DeepEqual(stream.Queries, got) {
			t.Errorf("%s: workload does not round-trip", ds)
		}
	}
}

func TestQueryLogRejectsCorruption(t *testing.T) {
	cases := []string{
		`{"id":0,"preds":[{"col":""}]}`,                        // empty column
		`{"id":0,"preds":[{"col":"a"}]}`,                       // no bounds, no IN
		`{"id":0,"preds":[{"col":"a","has_lo":true}]} garbage`, // trailing garbage
	}
	for i, c := range cases {
		if _, err := LoadQueries(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestQueryLogEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveQueries(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := LoadQueries(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("empty log decoded %d queries", len(got))
	}
}

func TestQueryLogSaveRejectsInvalid(t *testing.T) {
	var buf bytes.Buffer
	bad := []query.Query{{ID: 0, Preds: []query.Predicate{{Col: "a"}}}}
	if err := SaveQueries(&buf, bad); err == nil {
		t.Error("unbounded numeric predicate accepted at save time")
	}
}

// TestQueryLogReadersShareTheShapeRule holds both readers of a query
// log — this package's and the SDK's — to the predicate rule /v1/query
// enforces: a predicate mixing numeric bounds with an IN set fails the
// log, at its line.
func TestQueryLogReadersShareTheShapeRule(t *testing.T) {
	log := `{"id":1,"preds":[{"col":"order_ts","has_lo":true,"lo_i":1}]}
{"id":1,"preds":[{"col":"order_ts","has_lo":true,"lo_i":1,"in":["a"]}]}
`
	const want = `line 2: pred 0: predicate on "order_ts" mixes numeric bounds and an IN set`
	if _, err := LoadQueries(strings.NewReader(log)); err == nil || !strings.HasSuffix(err.Error(), want) {
		t.Errorf("LoadQueries: %v, want an error ending %q", err, want)
	}
	if _, err := client.LoadTrace(strings.NewReader(log)); err == nil || !strings.HasSuffix(err.Error(), want) {
		t.Errorf("client.LoadTrace: %v, want an error ending %q", err, want)
	}
}

// FuzzLoadQueries feeds the query-log reader arbitrary bytes: it must
// answer with an error or with queries, never panic; what it accepts
// must survive SaveQueries and LoadQueries unchanged, and the SDK's
// reader must accept the same bytes with the same IDs and predicates.
func FuzzLoadQueries(f *testing.F) {
	var buf bytes.Buffer
	stream := workload.MustGenerate(workload.TemplatesFor("tpch"), workload.Config{NumQueries: 4, NumSegments: 2}, rand.New(rand.NewSource(1)))
	if err := SaveQueries(&buf, stream.Queries); err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		buf.String(),
		"",
		"\n \n",
		`{"id":0,"preds":null}`,
		`{"id":1,"template":3,"table":"orders","preds":[{"col":"status","in":["a","b"]}]}`,
		`{"id":1,"preds":[{"col":"order_ts","has_lo":true,"lo_i":1,"in":["a"]}]}`,
		`{"id":1,"preds":[{"col":"amount","has_hi":true,"hi_f":-0}]} {"id":2,"preds":[]}`,
		`{"id":1,"preds":[{"col":"a","has_lo":true}]} garbage`,
		`{"id":1e2,"preds":[]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		qs, err := LoadQueries(bytes.NewReader(data))
		if err != nil {
			return
		}
		var saved bytes.Buffer
		if err := SaveQueries(&saved, qs); err != nil {
			t.Fatalf("%q loaded, but does not save: %v", data, err)
		}
		again, err := LoadQueries(&saved)
		if err != nil || !reflect.DeepEqual(again, qs) {
			t.Fatalf("%q: saved as %q, which loads as %+v, %v; want %+v", data, saved.Bytes(), again, err, qs)
		}
		trace, err := client.LoadTrace(bytes.NewReader(data))
		if err != nil || len(trace) != len(qs) {
			t.Fatalf("%q: LoadQueries read %d queries, client.LoadTrace %d, %v", data, len(qs), len(trace), err)
		}
		for i, q := range qs {
			if trace[i].ID != q.ID || !reflect.DeepEqual(query.FromWire(trace[i].Preds), q.Preds) {
				t.Fatalf("%q: query %d: client.LoadTrace read %+v, LoadQueries %+v", data, i, trace[i], q)
			}
		}
	})
}
