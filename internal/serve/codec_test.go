package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"oreo/internal/wire"
)

// declinedSeeds are bodies the purpose-built decoder must hand to
// encoding/json — some of which encoding/json then accepts, some of
// which it refuses in its own words.
var declinedSeeds = []string{
	`01`,
	`+1`,
	`1e400`,
	`{"preds":[{"col":"order_ts","has_lo":true,"lo_i":01}]}`,
	`{"preds":[{"col":"order_ts","has_lo":true,"lo_i":+1}]}`,
	`{"preds":[{"col":"amount","has_lo":true,"lo_f":1e400}]}`,
	`{"preds":[{"col":"order_ts","has_lo":true,"lo_i":1.5}]}`,
	`{"preds":[{"col":"order_ts","has_lo":true,"lo_i":9223372036854775808}]}`,
	`{"id":1e2,"preds":[{"col":"order_ts","has_lo":true,"lo_i":1}]}`,
	`{"preds":[{"col":"order_ts","has_lo":true,"lo_i":1}],"preds":[{"col":"order_ts","has_hi":true,"hi_i":9}]}`,
	`{"preds":[]} x`,
	`{"preds":[{"col":"order_ts","has_lo":true,"lo_i":1}]} {"again":1}`,
	`{"preds":null}`,
	`{"table":null,"preds":[{"col":"order_ts","has_lo":true,"lo_i":1}]}`,
	`{"Preds":[{"col":"order_ts","has_lo":true,"lo_i":1}]}`,
	`{"preds":[{"COL":"order_ts","has_lo":true,"lo_i":1}]}`,
	`{"preds":[{"col":"order_ts","has_lo":true,"lo_i":1}],"comment":"unknown key"}`,
	`{"preds":[{"col":"order\u005fts","has_lo":true,"lo_i":1}]}`,
	`{"table":"orders","preds":[{"col":"status","in":["délivré"]}]}`,
	`{"table":"orders","preds":[{"col":"status","in":["a\"b"]}]}`,
	`{"preds":[{"col":"order_ts","has_lo":1,"lo_i":1}]}`,
	`{"preds":[{"col":"order_ts","has_lo":true,"lo_i":1},]}`,
	`{"preds":[{"col":"order_ts","has_lo":true,"lo_i":1}]`,
	`{"preds":[{"col":"order_ts" "has_lo":true}]}`,
	`[]`,
	`"preds"`,
	``,
	` `,
}

// canonicalSeeds are request bodies in the shape clients send (the
// golden scenario's, with their out-of-struct key order and spacing
// variations): the purpose-built decoder must take every one.
var canonicalSeeds = []string{
	`{"table":"orders","id":7,"preds":[{"col":"order_ts","has_lo":true,"has_hi":true,"lo_i":500,"hi_i":900}]}`,
	`{"preds":[{"col":"order_ts","has_lo":true,"lo_i":3000},{"col":"user","in":["alice","bob"]}]}`,
	`{"table":"orders","execute":true,"preds":[{"col":"order_ts","has_lo":true,"has_hi":true,"lo_i":100,"hi_i":199}],"aggs":[{"op":"count"},{"op":"sum","col":"amount"},{"op":"min","col":"status"}]}`,
	`{"id":1,"table":"orders","preds":[{"col":"order_ts","has_lo":true,"lo_i":3500}]}`,
	`{"table":"orders","preds":[{"col":"order_ts"}]}`,
	`{"table":"orders","preds":[{"col":"amount","has_lo":true,"has_hi":true,"lo_f":-0.0,"hi_f":1.5e-7}]}`,
	`{"table":"orders","preds":[{"col":"order_ts","has_lo":true,"lo_i":-9223372036854775808,"hi_i":9223372036854775807}]}`,
	" {\n\t\"preds\" : [ { \"col\" : \"order_ts\" , \"has_lo\" : true , \"lo_i\" : -0 } ] ,\r\n \"aggs\" : [ ] }\n",
	`{"preds":[]}`,
	`{"preds":[{"col":"status","in":[]}]}`,
	`{}`,
}

func goldenBodies(t testing.TB) [][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "golden", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no golden bodies: %v", err)
	}
	var out [][]byte
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, data)
	}
	return out
}

// checkQueryRequestCodec is the differential property of the request
// decoder on arbitrary bytes: whatever it accepts, json.Unmarshal
// accepts, to the same value — and that value owns its strings.
func checkQueryRequestCodec(t *testing.T, data []byte) (accepted bool) {
	t.Helper()
	var want QueryRequest
	wantErr := json.Unmarshal(data, &want)

	// An exact-capacity copy: a read past the end is an index panic, and
	// scribbling over it afterwards shows any string still aliasing it.
	buf := append(make([]byte, 0, len(data)), data...)
	var got QueryRequest
	if !wire.DecodeQueryRequest(buf, &got) {
		if !reflect.DeepEqual(got, QueryRequest{}) {
			t.Fatalf("declined %q but wrote %+v", data, got)
		}
		return false
	}
	for i := range buf {
		buf[i] = 'x'
	}
	if wantErr != nil {
		t.Fatalf("accepted %q, which json.Unmarshal refuses: %v", data, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoding %q:\n got %#v\nwant %#v", data, got, want)
	}

	// The batch decoder is the same scanner one level down.
	batch := []byte(`{"queries":[` + string(data) + `,` + string(data) + `]}`)
	var gotB, wantB BatchRequest
	if !wire.DecodeBatchRequest(batch, &gotB) {
		t.Fatalf("batch of accepted %q declined", data)
	}
	if err := json.Unmarshal(batch, &wantB); err != nil || !reflect.DeepEqual(gotB, wantB) {
		t.Fatalf("batch of %q: got %#v, want %#v (%v)", data, gotB, wantB, err)
	}
	return true
}

func FuzzQueryRequestCodec(f *testing.F) {
	for _, s := range declinedSeeds {
		f.Add([]byte(s))
	}
	for _, s := range canonicalSeeds {
		f.Add([]byte(s))
	}
	for _, b := range goldenBodies(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkQueryRequestCodec(t, data)
	})
}

// TestQueryRequestCodecSeeds holds both sides of the selection: the
// canonical bodies take the purpose-built path, the seed list of
// near-misses does not, and each agrees with encoding/json either way.
func TestQueryRequestCodecSeeds(t *testing.T) {
	for _, s := range canonicalSeeds {
		if !checkQueryRequestCodec(t, []byte(s)) {
			t.Errorf("canonical body declined: %s", s)
		}
	}
	for _, s := range declinedSeeds {
		if checkQueryRequestCodec(t, []byte(s)) {
			t.Errorf("body outside the canonical shape accepted: %s", s)
		}
	}
	for _, b := range goldenBodies(t) {
		checkQueryRequestCodec(t, b)
	}
}

// TestDeclinedBodiesAnswerAsGeneral posts every seed to the three query
// endpoints and compares status and body with what the general path
// answers — encoding/json over the same bytes, Core, json.Marshal —
// and checks oreo_wire_fallback_total saw exactly the declined ones.
func TestDeclinedBodiesAnswerAsGeneral(t *testing.T) {
	s, ts := newFixtureServer(t, 1024)
	ctx := context.Background()

	general := func(status int, v any) (int, string) {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return status, string(data) + "\n"
	}
	decodeErr := func(err error) (int, string) {
		return general(http.StatusBadRequest, ErrorResponse{Error: "decoding request: " + err.Error()})
	}
	wantQuery := func(body string) (int, string) {
		var req QueryRequest
		if err := json.NewDecoder(strings.NewReader(body)).Decode(&req); err != nil {
			return decodeErr(err)
		}
		results, err := s.Core().Answer(ctx, req)
		if err != nil {
			return general(httpStatus(err), ErrorResponse{Error: err.Error()})
		}
		return general(http.StatusOK, QueryResponse{Results: results})
	}
	wantBatch := func(body string) (int, string) {
		var req BatchRequest
		if err := json.NewDecoder(strings.NewReader(body)).Decode(&req); err != nil {
			return decodeErr(err)
		}
		resp, err := s.Core().Batch(ctx, req)
		if err != nil {
			return general(httpStatus(err), ErrorResponse{Error: err.Error()})
		}
		return general(http.StatusOK, resp)
	}
	wantStream := func(lines []string) string {
		var out strings.Builder
		idx := 0
		for _, line := range lines {
			if strings.TrimSpace(line) == "" {
				continue
			}
			item := BatchItem{Index: idx}
			var req QueryRequest
			if err := json.Unmarshal([]byte(line), &req); err != nil {
				item.Error = fmt.Sprintf("decoding request: %v", err)
			} else if results, err := s.Core().Answer(ctx, req); err != nil {
				item.ID, item.Error = req.ID, err.Error()
			} else {
				item.ID, item.Results = req.ID, results
			}
			_, body := general(0, item)
			out.WriteString(body)
			idx++
		}
		return out.String()
	}
	post := func(path, body string) (int, string) {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(data)
	}
	fallbacks := func(endpoint string) float64 {
		return sampleValue(t, scrape(t, ts), `oreo_wire_fallback_total{endpoint="`+endpoint+`"}`)
	}

	for _, tc := range []struct {
		bodies   []string
		declined bool
	}{{canonicalSeeds, false}, {declinedSeeds, true}} {
		rise := 0.0
		if tc.declined {
			rise = 1
		}
		for _, body := range tc.bodies {
			before := fallbacks("query")
			wantStatus, want := wantQuery(body)
			if status, got := post("/v1/query", body); status != wantStatus || got != want {
				t.Errorf("POST /v1/query %q:\n got %d %s\nwant %d %s", body, status, got, wantStatus, want)
			}
			if d := fallbacks("query") - before; d != rise {
				t.Errorf("POST /v1/query %q: fallback counter rose by %v, want %v", body, d, rise)
			}

			batch := `{"queries":[` + body + `]}`
			before = fallbacks("batch")
			wantStatus, want = wantBatch(batch)
			if status, got := post("/v2/query/batch", batch); status != wantStatus || got != want {
				t.Errorf("POST /v2/query/batch %q:\n got %d %s\nwant %d %s", batch, status, got, wantStatus, want)
			}
			// A batch of one blank is `{"queries":[]}`: canonical, and
			// refused by Core, not by a decoder.
			if d := fallbacks("batch") - before; d != rise && strings.TrimSpace(body) != "" {
				t.Errorf("POST /v2/query/batch %q: fallback counter rose by %v, want %v", batch, d, rise)
			}
		}

		// The stream is line-framed: one seed per line, each judged alone.
		var lines []string
		nonBlank := 0.0
		for _, body := range tc.bodies {
			line := strings.NewReplacer("\n", " ", "\r", " ").Replace(body)
			lines = append(lines, line)
			if strings.TrimSpace(line) != "" {
				nonBlank++
			}
		}
		before := fallbacks("stream")
		want := wantStream(lines)
		if status, got := post("/v2/query/stream", strings.Join(lines, "\n")+"\n"); status != http.StatusOK || got != want {
			t.Errorf("POST /v2/query/stream:\n got %d %s\nwant %s", status, got, want)
		}
		if d := fallbacks("stream") - before; d != rise*nonBlank {
			t.Errorf("POST /v2/query/stream: fallback counter rose by %v, want %v", d, rise*nonBlank)
		}
	}
}

// wireValues draws wire structs over every field combination the tags
// allow: omitempty zeros beside non-zeros, nil beside empty slices,
// strings that need each kind of escape, floats on both sides of the
// exponent cutoffs and, when nonFinite, values JSON cannot spell.
type wireValues struct {
	rng       *rand.Rand
	nonFinite bool
}

func (g wireValues) str() string {
	pool := []string{"", "orders", "sort(order_ts)", "qd-tree#12", `a"b`, `back\slash`, "<tag>&amp;", "tab\there",
		"line\nfeed", "délivré", "日本", "\x00\x1f\x7f", "bad\xffutf8", "\u2028sep\u2029", "plain ascii ~!@#$%^*()_+-=[]{};':,./?"}
	return pool[g.rng.Intn(len(pool))]
}

func (g wireValues) num() int {
	pool := []int{0, 0, 1, -1, 7, 4000, math.MaxInt64, math.MinInt64}
	return pool[g.rng.Intn(len(pool))]
}

func (g wireValues) float() float64 {
	pool := []float64{0, math.Copysign(0, -1), 1, 0.0625, -14975, 1e-6, 1e-7, 9.5e-7, -1e-7, 1e20, 1e21, -1e21, 1.5e300,
		math.SmallestNonzeroFloat64, math.MaxFloat64, 0.1 + 0.2, 1.0 / 3}
	if g.nonFinite && g.rng.Intn(4) == 0 {
		return []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[g.rng.Intn(3)]
	}
	return pool[g.rng.Intn(len(pool))]
}

func (g wireValues) flag() bool { return g.rng.Intn(2) == 0 }

func (g wireValues) tableResult() TableResult {
	r := TableResult{Table: g.str(), Cost: g.float(), Layout: g.str(), NumPartitions: g.num(),
		Reorganizing: g.flag(), PendingLayout: g.str(), DeltaRows: g.num(), Observed: g.flag(), QueryID: g.num()}
	switch g.rng.Intn(3) {
	case 0:
		r.SurvivorPartitions = []int{}
	case 1:
		for i, n := 0, 1+g.rng.Intn(40); i < n; i++ {
			r.SurvivorPartitions = append(r.SurvivorPartitions, g.num())
		}
	}
	if g.flag() {
		e := &ExecutionJSON{MatchedRows: g.num(), PartitionsRead: g.num(), PartitionsTotal: g.num(),
			RowsExamined: g.num(), RowsTotal: g.num(), DeltaRows: g.num()}
		switch g.rng.Intn(3) {
		case 0:
			e.Aggregates = []AggregateResultJSON{}
		case 1:
			for i, n := 0, 1+g.rng.Intn(4); i < n; i++ {
				e.Aggregates = append(e.Aggregates, AggregateResultJSON{Op: g.str(), Col: g.str(), Type: g.str(),
					Valid: g.flag(), ValueI: int64(g.num()), ValueF: g.float(), ValueS: g.str()})
			}
		}
		r.Execution = e
	}
	return r
}

func (g wireValues) tableResults() []TableResult {
	switch g.rng.Intn(4) {
	case 0:
		return nil
	case 1:
		return []TableResult{}
	}
	out := make([]TableResult, 1+g.rng.Intn(3))
	for i := range out {
		out[i] = g.tableResult()
	}
	return out
}

func (g wireValues) batchItem() BatchItem {
	return BatchItem{Index: g.num(), ID: g.num(), Results: g.tableResults(), Error: g.str()}
}

// TestAppendMatchesMarshal is the encoder's contract: on every value,
// the bytes json.Marshal writes — or, for a value JSON cannot spell, an
// error where json.Marshal returns one.
func TestAppendMatchesMarshal(t *testing.T) {
	check := func(name string, v any, got []byte, gotErr error) {
		t.Helper()
		want, wantErr := json.Marshal(v)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("%s %+v: error %v, json.Marshal's %v", name, v, gotErr, wantErr)
		}
		if gotErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("%s: error %q, json.Marshal's %q", name, gotErr, wantErr)
			}
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s:\n got %s\nwant %s", name, got, want)
		}
	}
	for _, nonFinite := range []bool{false, true} {
		g := wireValues{rng: rand.New(rand.NewSource(15)), nonFinite: nonFinite}
		for i := 0; i < 3000; i++ {
			resp := QueryResponse{Results: g.tableResults()}
			got, err := wire.AppendQueryResponse(nil, &resp)
			check("QueryResponse", resp, got, err)

			item := g.batchItem()
			got, err = wire.AppendBatchItem([]byte("prefix"), &item)
			check("BatchItem", item, bytes.TrimPrefix(got, []byte("prefix")), err)

			var batch BatchResponse
			if g.rng.Intn(4) > 0 {
				batch.Results = make([]BatchItem, g.rng.Intn(4))
				for j := range batch.Results {
					batch.Results[j] = g.batchItem()
				}
			}
			got, err = wire.AppendBatchResponse(nil, &batch)
			check("BatchResponse", batch, got, err)
		}
	}
}

// TestUnencodableAnswerIs500 pins what handleQuery does with an answer
// JSON cannot spell: the honest 500, not an empty body under a 200.
func TestUnencodableAnswerIs500(t *testing.T) {
	body := []byte{}
	body, err := wire.AppendQueryResponse(body, &QueryResponse{Results: []TableResult{{Table: "t", Cost: math.NaN()}}})
	if err == nil {
		t.Fatal("NaN cost encoded")
	}
	rec := httptest.NewRecorder()
	writeEncoded(rec, http.StatusOK, &body, err)
	if rec.Code != http.StatusInternalServerError || rec.Body.String() != `{"error":"response not encodable"}`+"\n" {
		t.Errorf("answered %d %q", rec.Code, rec.Body.String())
	}
	if got, want := rec.Header().Get("Content-Length"), fmt.Sprint(rec.Body.Len()); got != want {
		t.Errorf("Content-Length %q, body is %s bytes", got, want)
	}
}

// BenchmarkWireCodec sets the purpose-built codec beside encoding/json
// on the server's two halves of a costing-only query: decoding the
// request and encoding a one-table answer with 28 survivors.
func BenchmarkWireCodec(b *testing.B) {
	request := []byte(`{"table":"lineitem","id":4211,"preds":[{"col":"l_shipdate","has_lo":true,"has_hi":true,"lo_i":9131,"hi_i":9496},{"col":"l_discount","has_lo":true,"has_hi":true,"lo_f":0.05,"hi_f":0.07},{"col":"l_quantity","has_hi":true,"hi_f":24}]}`)
	survivors := make([]int, 28)
	for i := range survivors {
		survivors[i] = 3 * i
	}
	answer := QueryResponse{Results: []TableResult{{Table: "lineitem", Cost: 0.21875, Layout: "sort(l_shipdate)", NumPartitions: 128,
		SurvivorPartitions: survivors, Observed: true, QueryID: 4211}}}

	b.Run("request-decode/general", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req QueryRequest
			if err := json.NewDecoder(bytes.NewReader(request)).Decode(&req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("request-decode/purpose-built", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req QueryRequest
			if !wire.DecodeQueryRequest(request, &req) {
				b.Fatal("declined")
			}
		}
	})
	b.Run("answer-encode/general", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(answer); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("answer-encode/purpose-built", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			var err error
			if buf, err = wire.AppendQueryResponse(buf[:0], &answer); err != nil {
				b.Fatal(err)
			}
		}
	})
}
