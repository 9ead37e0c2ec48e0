package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// scrape fetches /metrics and returns the exposition body.
func scrape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	res, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// sampleValue extracts the value of one exact series line.
func sampleValue(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("series %s: unparsable value %q", series, rest)
			}
			return v
		}
	}
	t.Fatalf("series %s not found in scrape:\n%s", series, body)
	return 0
}

// TestMetricsEndpoint drives the serving surface and checks the scrape
// reflects it: per-endpoint request counters and latency histograms,
// shard serving counters, decision-loop counters, and the leader's
// replication epoch — plus that every non-comment line is well-formed
// exposition text.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newFixtureServerCfg(t, Config{ScanParallelism: 1})

	window := map[string]any{"table": "orders", "preds": []map[string]any{
		{"col": "order_ts", "has_lo": true, "has_hi": true, "lo_i": 0, "hi_i": 99},
	}}
	if resp, _ := postJSON(t, ts.URL+"/v1/query", window); resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d", resp.StatusCode)
	}
	exec := map[string]any{"table": "orders", "execute": true,
		"preds": []map[string]any{
			{"col": "order_ts", "has_lo": true, "has_hi": true, "lo_i": 0, "hi_i": 99},
		},
		"aggs": []map[string]any{{"op": "count"}},
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/query", exec); resp.StatusCode != http.StatusOK {
		t.Fatalf("execute: %d", resp.StatusCode)
	}
	bad := map[string]any{"table": "nope", "preds": []map[string]any{{"col": "x", "in": []string{"a"}}}}
	if resp, _ := postJSON(t, ts.URL+"/v1/query", bad); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown table: %d", resp.StatusCode)
	}
	waitDrained(t, ts.URL, "orders")

	body := scrape(t, ts)

	if got := sampleValue(t, body, `oreo_http_requests_total{code="200",endpoint="query"}`); got != 2 {
		t.Errorf("query 200s = %v, want 2", got)
	}
	if got := sampleValue(t, body, `oreo_http_requests_total{code="404",endpoint="query"}`); got != 1 {
		t.Errorf("query 404s = %v, want 1", got)
	}
	if got := sampleValue(t, body, `oreo_http_request_duration_seconds_count{endpoint="query"}`); got != 3 {
		t.Errorf("query latency samples = %v, want 3", got)
	}
	// Buckets are cumulative and terminate at +Inf == _count.
	if got := sampleValue(t, body, `oreo_http_request_duration_seconds_bucket{endpoint="query",le="+Inf"}`); got != 3 {
		t.Errorf("+Inf bucket = %v, want 3", got)
	}
	if got := sampleValue(t, body, `oreo_queries_served_total{table="orders"}`); got != 2 {
		t.Errorf("served = %v, want 2", got)
	}
	if got := sampleValue(t, body, `oreo_executions_total{table="orders"}`); got != 1 {
		t.Errorf("executions = %v, want 1", got)
	}
	if got := sampleValue(t, body, `oreo_scan_rows_examined_total{table="orders"}`); got <= 0 {
		t.Errorf("scan rows examined = %v, want > 0", got)
	}
	if got := sampleValue(t, body, `oreo_role{role="leader"}`); got != 1 {
		t.Errorf("role gauge = %v, want 1", got)
	}
	if got := sampleValue(t, body, `oreo_scan_parallelism`); got != 1 {
		t.Errorf("scan parallelism = %v, want 1", got)
	}

	// One source of truth: after the drain, served == observed ==
	// decisions == epoch, and the queue reads empty.
	served := sampleValue(t, body, `oreo_queries_served_total{table="orders"}`)
	decided := sampleValue(t, body, `oreo_decisions_total{table="orders"}`)
	if served != decided {
		t.Errorf("after drain: served %v != decisions %v", served, decided)
	}
	if depth := sampleValue(t, body, `oreo_observation_queue_depth{table="orders"}`); depth != 0 {
		t.Errorf("drained queue depth = %v", depth)
	}
	if epoch := sampleValue(t, body, `oreo_replication_epoch{table="orders"}`); epoch != decided {
		t.Errorf("epoch %v != decisions %v on a leader", epoch, decided)
	}

	// Every body so far was in the canonical wire shape, so none went to
	// the general decoder; a column name spelled with an escape does, is
	// answered all the same, and is counted.
	const fallback = `oreo_wire_fallback_total{endpoint="query"}`
	if got := sampleValue(t, body, fallback); got != 0 {
		t.Errorf("wire fallbacks over canonical requests = %v, want 0", got)
	}
	escaped := `{"table":"orders","preds":[{"col":"order\u005fts","has_lo":true,"lo_i":10}]}`
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(escaped))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("escaped column name: %d", resp.StatusCode)
	}
	if got := sampleValue(t, scrape(t, ts), fallback); got != 1 {
		t.Errorf("wire fallbacks after an escaped column name = %v, want 1", got)
	}

	lineRe := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (NaN|[+-]Inf|-?[0-9][0-9eE.+-]*)$`)
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !lineRe.MatchString(line) {
			t.Errorf("malformed exposition line: %q", line)
		}
	}

	// The execution above read order_ts 0..99 out of a block holding
	// 0..249: scanned, not covered. A range made of whole blocks (the
	// boot layout sorts order_ts into 16 blocks of 250) is answered from
	// their summaries, and only then does the covered counter move.
	const covered = `oreo_scan_partitions_covered_total{table="orders"}`
	if got := sampleValue(t, body, covered); got != 0 {
		t.Errorf("covered partitions after an uncovered execution = %v, want 0", got)
	}
	exec["preds"] = []map[string]any{{"col": "order_ts", "has_lo": true, "has_hi": true, "lo_i": 0, "hi_i": 499}}
	if resp, _ := postJSON(t, ts.URL+"/v1/query", exec); resp.StatusCode != http.StatusOK {
		t.Fatalf("covered execute: %d", resp.StatusCode)
	}
	body = scrape(t, ts)
	if got := sampleValue(t, body, covered); got != 2 {
		t.Errorf("covered partitions after a two-block range = %v, want 2", got)
	}
	if got := sampleValue(t, body, `oreo_executions_total{table="orders"}`); got != 2 {
		t.Errorf("executions = %v, want 2", got)
	}
}

// TestMetricsStatsAgree pins the unified-counter contract: /stats,
// /healthz, and the scrape read the same instruments, so the surfaces
// cannot drift — including the Observed = Queries + QueueDepth
// identity /healthz now exposes.
func TestMetricsStatsAgree(t *testing.T) {
	_, ts := newFixtureServer(t, 64)
	q := map[string]any{"table": "orders", "preds": []map[string]any{
		{"col": "order_ts", "has_lo": true, "lo_i": 10},
	}}
	for i := 0; i < 5; i++ {
		if resp, _ := postJSON(t, ts.URL+"/v1/query", q); resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: %d", i, resp.StatusCode)
		}
	}
	waitDrained(t, ts.URL, "orders")

	var stats StatsResponse
	getJSON(t, ts.URL+"/v1/tables/orders/stats", &stats)
	body := scrape(t, ts)
	if got := sampleValue(t, body, `oreo_queries_served_total{table="orders"}`); got != float64(stats.Served) {
		t.Errorf("scrape served %v != /stats served %d", got, stats.Served)
	}
	if got := sampleValue(t, body, `oreo_observations_total{table="orders"}`); got != float64(stats.Observed) {
		t.Errorf("scrape observed %v != /stats observed %d", got, stats.Observed)
	}
	if got := sampleValue(t, body, `oreo_decisions_total{table="orders"}`); got != float64(stats.Queries) {
		t.Errorf("scrape decisions %v != /stats queries %d", got, stats.Queries)
	}

	var health HealthResponse
	getJSON(t, ts.URL+"/healthz", &health)
	if health.Served < stats.Served {
		t.Errorf("/healthz served %d < /stats orders served %d", health.Served, stats.Served)
	}
	if health.Observed != uint64(health.Queries+health.QueueDepth) {
		t.Errorf("identity violated after drain: observed %d != queries %d + queue_depth %d",
			health.Observed, health.Queries, health.QueueDepth)
	}
}
