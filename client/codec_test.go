package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
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

// goldenAnswers are the server's pinned /v1 response bodies: real
// answers, and the fuzz targets' seed corpus.
func goldenAnswers(t testing.TB) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "internal", "serve", "testdata", "golden", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no golden bodies: %v", err)
	}
	out := make(map[string][]byte, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(p)] = data
	}
	return out
}

// answerSeeds are bodies at the edge of the canonical answer shape.
var answerSeeds = []string{
	`{"results":[]}`,
	`{}`,
	`{"results":null}`,
	`{"results":[{"table":"t","cost":1e400,"layout":"l","num_partitions":1,"survivor_partitions":[],"observed":true}]}`,
	`{"results":[{"table":"t","cost":01,"layout":"l","num_partitions":1,"survivor_partitions":[0],"observed":true}]}`,
	`{"results":[{"table":"t","cost":0.5,"layout":"l","num_partitions":+1,"survivor_partitions":[0],"observed":true}]}`,
	`{"results":[{"table":"t","cost":0.5,"layout":"l","num_partitions":1,"survivor_partitions":[0,1.0],"observed":true}]}`,
	`{"results":[{"table":"t","cost":0.5,"layout":"l","num_partitions":1,"survivor_partitions":null,"observed":true}]}`,
	`{"results":[{"table":"t","cost":-0,"layout":"l","num_partitions":1,"survivor_partitions":[ 1 , 2 ],"observed":false,"execution":{"matched_rows":1,"aggregates":[]}}]}`,
	`{"results":[{"table":"t","table":"u"}]}`,
	`{"results":[],"results":[]}`,
	`{"results":[]} x`,
	`{"Results":[]}`,
	`{"index":3,"id":9,"error":"table \"orders\" has no column \"ghost\""}`,
	`{"index":3,"error":"reading stream: line exceeds 2048 bytes"}`,
	`{"index":0,"results":[{"table":"t","cost":0.25,"layout":"l","num_partitions":4,"survivor_partitions":[3],"observed":true,"query_id":1}]}` + "\n",
}

// checkAnswerCodec is the differential property of the answer decoders
// on arbitrary bytes: whatever one accepts, json.Unmarshal accepts, to
// the same value — and that value owns its strings.
func checkAnswerCodec(t *testing.T, data []byte) (unary, item bool) {
	t.Helper()
	var wantU wire.QueryResponse
	errU := json.Unmarshal(data, &wantU)
	var wantB wire.BatchResponse
	errB := json.Unmarshal(data, &wantB)
	var wantI BatchItem
	errI := json.Unmarshal(data, &wantI)

	// An exact-capacity copy per decoder: a read past the end is an index
	// panic, and scribbling over it afterwards shows any string still
	// aliasing it.
	scratch := func() []byte { return append(make([]byte, 0, len(data)), data...) }
	scribble := func(b []byte) {
		for i := range b {
			b[i] = 'x'
		}
	}

	buf := scratch()
	var gotU wire.QueryResponse
	if unary = wire.DecodeQueryResponse(buf, &gotU); unary {
		scribble(buf)
		if errU != nil {
			t.Fatalf("unary answer %q accepted, which json.Unmarshal refuses: %v", data, errU)
		}
		if !reflect.DeepEqual(gotU, wantU) {
			t.Fatalf("unary answer %q:\n got %#v\nwant %#v", data, gotU, wantU)
		}
	} else if gotU.Results != nil {
		t.Fatalf("unary answer %q declined but wrote %#v", data, gotU)
	}

	buf = scratch()
	var gotB wire.BatchResponse
	if wire.DecodeBatchResponse(buf, &gotB) {
		scribble(buf)
		if errB != nil {
			t.Fatalf("batch answer %q accepted, which json.Unmarshal refuses: %v", data, errB)
		}
		if !reflect.DeepEqual(gotB, wantB) {
			t.Fatalf("batch answer %q:\n got %#v\nwant %#v", data, gotB, wantB)
		}
	}

	buf = scratch()
	var gotI BatchItem
	if item = wire.DecodeBatchItem(buf, &gotI); item {
		scribble(buf)
		if errI != nil {
			t.Fatalf("stream answer %q accepted, which json.Unmarshal refuses: %v", data, errI)
		}
		if !reflect.DeepEqual(gotI, wantI) {
			t.Fatalf("stream answer %q:\n got %#v\nwant %#v", data, gotI, wantI)
		}
	}
	return unary, item
}

func FuzzTableResultCodec(f *testing.F) {
	for _, b := range goldenAnswers(f) {
		f.Add(b)
	}
	for _, s := range answerSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAnswerCodec(t, data)
	})
}

// TestAnswerCodecSeeds runs the seed corpus as a plain test, and holds
// the selection's near side: the answers a server really writes take
// the purpose-built path — all but the batch whose items quote a table
// name in an error message, which is exactly the kind of string the
// scanner leaves to encoding/json.
func TestAnswerCodecSeeds(t *testing.T) {
	for name, body := range goldenAnswers(t) {
		unary, _ := checkAnswerCodec(t, body)
		if strings.HasPrefix(name, "query") && !unary {
			t.Errorf("%s: a real unary answer was declined: %s", name, body)
		}
	}
	for _, s := range answerSeeds {
		checkAnswerCodec(t, []byte(s))
	}
	var batch wire.BatchResponse
	if wire.DecodeBatchResponse(goldenAnswers(t)["batch.json"], &batch) {
		t.Error("batch.json carries escaped quotes and was not declined")
	}
	clean := `{"results":[{"index":0,"id":1,"results":[{"table":"orders","cost":0.125,"layout":"sort(order_ts)","num_partitions":16,"survivor_partitions":[14,15],"observed":true,"query_id":1}]},{"index":1,"error":"empty query"}]}`
	if !wire.DecodeBatchResponse([]byte(clean), &batch) || len(batch.Results) != 2 || batch.Results[1].Error != "empty query" {
		t.Errorf("a batch answer without escapes was declined, or misread: %+v", batch)
	}
}

// queryValues draws Query values over every field combination the tags
// allow: omitempty zeros beside non-zeros, nil beside empty slices,
// strings that need each kind of escape, floats on both sides of the
// exponent cutoffs and, when nonFinite, bounds JSON cannot spell.
type queryValues struct {
	rng       *rand.Rand
	nonFinite bool
}

func (g queryValues) str() string {
	pool := []string{"", "orders", "l_shipdate", `a"b`, `back\slash`, "<tag>&amp;", "tab\there", "délivré",
		"\x00\x1f\x7f", "bad\xffutf8", "\u2028sep\u2029", "plain ascii ~!@#$%^*()_+-=[]{};':,./?"}
	return pool[g.rng.Intn(len(pool))]
}

func (g queryValues) num() int64 {
	pool := []int64{0, 0, 1, -1, 9131, math.MaxInt64, math.MinInt64}
	return pool[g.rng.Intn(len(pool))]
}

func (g queryValues) float() float64 {
	pool := []float64{0, 0, math.Copysign(0, -1), 1, 0.05, -24, 1e-6, 1e-7, 9.5e-7, 1e20, 1e21, -1e21,
		math.SmallestNonzeroFloat64, math.MaxFloat64, 0.1 + 0.2}
	if g.nonFinite && g.rng.Intn(6) == 0 {
		return []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[g.rng.Intn(3)]
	}
	return pool[g.rng.Intn(len(pool))]
}

func (g queryValues) flag() bool { return g.rng.Intn(2) == 0 }

func (g queryValues) strs() []string {
	switch g.rng.Intn(3) {
	case 0:
		return nil
	case 1:
		return []string{}
	}
	out := make([]string, 1+g.rng.Intn(3))
	for i := range out {
		out[i] = g.str()
	}
	return out
}

func (g queryValues) query() Query {
	q := Query{Table: g.str(), ID: int(g.num()), Execute: g.flag()}
	switch g.rng.Intn(4) {
	case 0:
	case 1:
		q.Preds = []Predicate{}
	default:
		for i, n := 0, 1+g.rng.Intn(3); i < n; i++ {
			q.Preds = append(q.Preds, Predicate{Col: g.str(), HasLo: g.flag(), HasHi: g.flag(),
				LoI: g.num(), HiI: g.num(), LoF: g.float(), HiF: g.float(), In: g.strs()})
		}
	}
	switch g.rng.Intn(3) {
	case 0:
		q.Aggs = []Aggregate{}
	case 1:
		for i, n := 0, 1+g.rng.Intn(3); i < n; i++ {
			q.Aggs = append(q.Aggs, Aggregate{Op: g.str(), Col: g.str()})
		}
	}
	return q
}

// TestAppendMatchesMarshal is the encoder's contract: on every value,
// the bytes json.Marshal writes — or, for a bound JSON cannot spell,
// the error json.Marshal returns.
func TestAppendMatchesMarshal(t *testing.T) {
	check := func(name string, v any, got []byte, gotErr error) {
		t.Helper()
		want, wantErr := json.Marshal(v)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("%s %+v: error %v, json.Marshal's %v", name, v, gotErr, wantErr)
		}
		if gotErr != nil {
			var unsupported *json.UnsupportedValueError
			if gotErr.Error() != wantErr.Error() || !errors.As(gotErr, &unsupported) {
				t.Fatalf("%s: error %#v, json.Marshal's %#v", name, gotErr, wantErr)
			}
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s:\n got %s\nwant %s", name, got, want)
		}
	}
	for _, nonFinite := range []bool{false, true} {
		g := queryValues{rng: rand.New(rand.NewSource(15)), nonFinite: nonFinite}
		for i := 0; i < 3000; i++ {
			q := g.query()
			got, err := wire.AppendQueryRequest([]byte("prefix"), &q)
			check("Query", q, bytes.TrimPrefix(got, []byte("prefix")), err)

			var batch wire.BatchRequest
			if g.rng.Intn(4) > 0 {
				batch.Queries = make([]Query, g.rng.Intn(4))
				for j := range batch.Queries {
					batch.Queries[j] = g.query()
				}
			}
			got, err = wire.AppendBatchRequest(nil, &batch)
			check("batch", batch, got, err)
		}
	}
}

// TestStreamRecvFollowsJSONDecoder feeds Recv answer streams no OREO
// server writes — values spread over lines, two on a line, blank lines,
// escapes, a missing final newline, garbage at the end — mixed with
// canonical lines, and holds it to the sequence of items and errors a
// json.Decoder produces over the same bytes: the purpose-built line
// decoder and the general one hand the stream back and forth without
// losing or repeating a byte.
func TestStreamRecvFollowsJSONDecoder(t *testing.T) {
	canonical := `{"index":0,"id":1,"results":[{"table":"orders","cost":0.125,"layout":"sort(order_ts)","num_partitions":16,"survivor_partitions":[14,15],"observed":true,"query_id":1}]}`
	escaped := `{"index":1,"id":2,"error":"unknown table \"nope\""}`
	spread := "{\n  \"index\": 2,\n  \"error\": \"spread over lines\"\n}"
	long := `{"index":3,"error":"` + strings.Repeat("long ", 4000) + `"}`
	for name, body := range map[string]string{
		"canonical":       canonical + "\n" + canonical + "\n",
		"mixed":           canonical + "\n" + escaped + "\n" + canonical + "\n" + spread + "\n" + canonical + "\n",
		"two on a line":   canonical + " " + escaped + "\n" + canonical + canonical + "\n",
		"blank lines":     "\n\n" + canonical + "\n \t\r\n" + escaped + "\n\n",
		"no last newline": canonical + "\n" + canonical,
		"general at end":  canonical + "\n" + spread,
		"long lines":      long + "\n" + canonical + "\n" + long + "\n" + escaped + "\n" + long,
		"garbage":         canonical + "\n" + `{"index":` + "\n" + canonical + "\n",
		"truncated":       canonical + "\n" + `{"index":4,"err`,
		"empty":           "",
		"only space":      " \n ",
	} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			_, _ = io.Copy(io.Discard, r.Body)
			// Written in small pieces, so lines straddle reads.
			for b := []byte(body); len(b) > 0; {
				n := min(len(b), 1000)
				_, _ = w.Write(b[:n])
				w.(http.Flusher).Flush()
				b = b[n:]
			}
		}))
		c, err := New(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		st, err := c.OpenStream(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if err := st.CloseSend(); err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(strings.NewReader(body))
		for i := 0; ; i++ {
			var want BatchItem
			wantErr := dec.Decode(&want)
			got, gotErr := st.Recv()
			if wantErr == io.EOF {
				if gotErr != io.EOF {
					t.Errorf("%s: answer %d: got %+v, %v; want io.EOF", name, i, got, gotErr)
				}
				break
			}
			if wantErr != nil {
				if gotErr == nil || gotErr.Error() != "client: decoding stream answer: "+wantErr.Error() {
					t.Errorf("%s: answer %d: error %v, want %v", name, i, gotErr, wantErr)
				}
				break
			}
			if gotErr != nil || !reflect.DeepEqual(*got, want) {
				t.Errorf("%s: answer %d:\n got %+v, %v\nwant %+v", name, i, got, gotErr, want)
				break
			}
		}
		st.Close()
		ts.Close()
	}
}

// BenchmarkWireCodec sets the purpose-built decoder beside
// encoding/json on the client's half of a costing-only query: a
// one-table answer with 28 survivors. (The request decode and answer
// encode halves are in internal/serve.)
func BenchmarkWireCodec(b *testing.B) {
	answer := []byte(`{"results":[{"table":"lineitem","cost":0.21875,"layout":"sort(l_shipdate)","num_partitions":128,"survivor_partitions":[0,3,6,9,12,15,18,21,24,27,30,33,36,39,42,45,48,51,54,57,60,63,66,69,72,75,78,81],"observed":true,"query_id":4211}]}` + "\n")
	b.Run("answer-decode/general", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var resp wire.QueryResponse
			if err := json.NewDecoder(bytes.NewReader(answer)).Decode(&resp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("answer-decode/purpose-built", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var resp wire.QueryResponse
			if !wire.DecodeQueryResponse(answer, &resp) {
				b.Fatal("declined")
			}
		}
	})
}
