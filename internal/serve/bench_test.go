package serve

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"oreo"
	"oreo/internal/metrics"
)

// benchFixture builds a 50k-row table, an optimizer over it, and a
// pre-generated query mix, shared by the serving benchmarks.
func benchFixture(b *testing.B) (*oreo.Dataset, *oreo.Optimizer, []oreo.Query) {
	b.Helper()
	schema := oreo.NewSchema(
		oreo.Column{Name: "order_ts", Type: oreo.Int64},
		oreo.Column{Name: "status", Type: oreo.String},
		oreo.Column{Name: "amount", Type: oreo.Float64},
	)
	rng := rand.New(rand.NewSource(9))
	const rows = 50000
	db := oreo.NewDatasetBuilder(schema, rows)
	statuses := []string{"cancelled", "delivered", "pending", "returned"}
	for i := 0; i < rows; i++ {
		db.AppendRow(oreo.Int(int64(i)), oreo.Str(statuses[rng.Intn(4)]), oreo.Float(rng.Float64()*500))
	}
	ds := db.Build()
	opt, err := oreo.New(ds, oreo.Config{
		Partitions: 64, InitialSort: []string{"order_ts"}, Seed: 12,
	})
	if err != nil {
		b.Fatal(err)
	}
	queries := make([]oreo.Query, 512)
	for i := range queries {
		if i%2 == 0 {
			lo := rng.Int63n(rows - 2000)
			queries[i] = oreo.Query{ID: i, Preds: []oreo.Predicate{oreo.IntRange("order_ts", lo, lo+2000)}}
		} else {
			queries[i] = oreo.Query{ID: i, Preds: []oreo.Predicate{oreo.StrEq("status", statuses[i%4])}}
		}
	}
	return ds, opt, queries
}

// BenchmarkServingSnapshotQPS is the serving read path: lock-free
// costing and skip-list extraction against the published snapshot, with
// the observation handoff included (consumer running), exactly what
// POST /v1/query does per request.
func BenchmarkServingSnapshotQPS(b *testing.B) {
	ds, opt, queries := benchFixture(b)
	sh := newShard("orders", ds, opt, Config{QueueSize: DefaultQueueSize, ScanParallelism: 1, CompactThreshold: DefaultCompactThreshold}, metrics.NewRegistry())
	defer sh.close()
	var i atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			q := queries[i.Add(1)%uint64(len(queries))]
			sh.answer(context.Background(), q, false, nil)
		}
	})
}

// replayFixture boots a full HTTP server over the bench fixture table
// and renders a 1k-query replay in both wire forms: individual
// /v1/query bodies and one /v2/query/stream NDJSON payload.
func replayFixture(b testing.TB) (*httptest.Server, []string, string) {
	b.Helper()
	schema := oreo.NewSchema(
		oreo.Column{Name: "order_ts", Type: oreo.Int64},
		oreo.Column{Name: "status", Type: oreo.String},
		oreo.Column{Name: "amount", Type: oreo.Float64},
	)
	rng := rand.New(rand.NewSource(9))
	const rows = 50000
	db := oreo.NewDatasetBuilder(schema, rows)
	statuses := []string{"cancelled", "delivered", "pending", "returned"}
	for i := 0; i < rows; i++ {
		db.AppendRow(oreo.Int(int64(i)), oreo.Str(statuses[rng.Intn(4)]), oreo.Float(rng.Float64()*500))
	}
	m := oreo.NewMulti()
	if err := m.AddTable("orders", db.Build(), oreo.Config{
		Partitions: 64, InitialSort: []string{"order_ts"}, Seed: 12,
	}); err != nil {
		b.Fatal(err)
	}
	s, err := New(m, Config{})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(func() { ts.Close(); s.Close() })

	const replay = 1000
	bodies := make([]string, replay)
	var stream strings.Builder
	for i := 0; i < replay; i++ {
		var body string
		if i%2 == 0 {
			lo := rng.Int63n(rows - 2000)
			body = fmt.Sprintf(`{"id":%d,"table":"orders","preds":[{"col":"order_ts","has_lo":true,"has_hi":true,"lo_i":%d,"hi_i":%d}]}`, i+1, lo, lo+2000)
		} else {
			body = fmt.Sprintf(`{"id":%d,"table":"orders","preds":[{"col":"status","in":["%s"]}]}`, i+1, statuses[i%4])
		}
		bodies[i] = body
		stream.WriteString(body)
		stream.WriteByte('\n')
	}
	return ts, bodies, stream.String()
}

// BenchmarkStreamVsUnary measures the redesign's headline claim: a
// 1k-query log replay through POST /v2/query/stream versus the same
// 1000 queries as sequential POST /v1/query requests, both over real
// HTTP against the same server. One op is the full 1k replay; divide
// ns/op by 1000 for per-query cost. The acceptance bar is stream ≥ 3x
// unary per-query throughput (TestStreamThroughputBar enforces it).
func BenchmarkStreamVsUnary(b *testing.B) {
	b.Run("v1-unary", func(b *testing.B) {
		ts, bodies, _ := replayFixture(b)
		client := ts.Client()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			for _, body := range bodies {
				resp, err := client.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := io.Copy(io.Discard, resp.Body); err != nil {
					b.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("status %d", resp.StatusCode)
				}
			}
		}
	})
	b.Run("v2-stream", func(b *testing.B) {
		ts, _, stream := replayFixture(b)
		client := ts.Client()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			streamReplayOnce(b, client, ts.URL, stream)
		}
	})
}

// streamReplayOnce pushes one NDJSON replay through the stream
// endpoint and consumes every response line.
func streamReplayOnce(tb testing.TB, client *http.Client, url, stream string) {
	resp, err := client.Post(url+"/v2/query/stream", "application/x-ndjson", strings.NewReader(stream))
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		tb.Fatalf("status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lines := 0
	for sc.Scan() {
		if bytes.Contains(sc.Bytes(), []byte(`"error"`)) {
			tb.Fatalf("stream error line: %s", sc.Text())
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		tb.Fatal(err)
	}
	if lines != strings.Count(stream, "\n") {
		tb.Fatalf("%d response lines for %d queries", lines, strings.Count(stream, "\n"))
	}
}

// TestStreamThroughputBar is the acceptance criterion of the v2
// redesign measured in-repo: on a 1k-query replay, /v2/query/stream
// must deliver at least 3x the per-query throughput of sequential
// /v1/query requests. The measured gap is typically far larger (one
// connection + one encoder versus 1000 request/response cycles), so a
// 3x bar stays meaningful without being load-sensitive.
func TestStreamThroughputBar(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput measurement skipped in -short mode")
	}
	ts, bodies, stream := replayFixture(t)
	client := ts.Client()

	// Warm both paths once (connection setup, lazy compiles), then time.
	streamReplayOnce(t, client, ts.URL, stream)

	start := time.Now()
	for _, body := range bodies {
		resp, err := client.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
	}
	unary := time.Since(start)

	start = time.Now()
	streamReplayOnce(t, client, ts.URL, stream)
	streamed := time.Since(start)

	ratio := float64(unary) / float64(streamed)
	t.Logf("1k-query replay: v1 unary %v, v2 stream %v (%.1fx)", unary, streamed, ratio)
	if ratio < 3 {
		t.Errorf("stream replay only %.1fx unary, acceptance bar is 3x", ratio)
	}
}

// BenchmarkServingSnapshotBatch32 runs the POST /v1/query/batch shape:
// one op is a 32-query batch on the read path. Divide ns/op by 32 for
// the per-query figure.
func BenchmarkServingSnapshotBatch32(b *testing.B) {
	ds, opt, queries := benchFixture(b)
	sh := newShard("orders", ds, opt, Config{QueueSize: DefaultQueueSize, ScanParallelism: 1, CompactThreshold: DefaultCompactThreshold}, metrics.NewRegistry())
	defer sh.close()
	const batch = 32
	var i atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			base := int(i.Add(batch) % uint64(len(queries)))
			for j := 0; j < batch; j++ {
				sh.answer(context.Background(), queries[(base+j)%len(queries)], false, nil)
			}
		}
	})
}
