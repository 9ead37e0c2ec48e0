package cluster

import (
	"strings"
	"testing"
	"time"

	"oreo/internal/metrics"
)

const samplePayload = `# HELP oreo_http_requests_total HTTP requests served.
# TYPE oreo_http_requests_total counter
oreo_http_requests_total{code="200",endpoint="query"} 90
oreo_http_requests_total{code="200",endpoint="healthz"} 10
oreo_http_requests_total{code="500",endpoint="query"} 2
# HELP oreo_replication_lag_epochs Decision epochs the subscriber trails by.
# TYPE oreo_replication_lag_epochs gauge
oreo_replication_lag_epochs{table="orders"} 3
oreo_replication_lag_epochs{table="events"} 7
oreo_role{role="leader"} 1
weird_label{msg="a \"quoted\" value, with, commas\nand a newline"} 1
# TYPE oreo_http_request_duration_seconds histogram
oreo_http_request_duration_seconds_bucket{endpoint="query",le="0.001"} 80
oreo_http_request_duration_seconds_bucket{endpoint="query",le="0.01"} 90
oreo_http_request_duration_seconds_bucket{endpoint="query",le="+Inf"} 92
oreo_http_request_duration_seconds_sum{endpoint="query"} 0.5
oreo_http_request_duration_seconds_count{endpoint="query"} 92
`

func TestParseMetrics(t *testing.T) {
	sc, err := metrics.ParseText(strings.NewReader(samplePayload))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := sc.Value("oreo_http_requests_total", map[string]string{"code": "500"}); !ok || v != 2 {
		t.Fatalf("Value(code=500) = %v,%v; want 2,true", v, ok)
	}
	if _, ok := sc.Value("oreo_http_requests_total", map[string]string{"code": "404"}); ok {
		t.Fatal("Value matched a label set that is not there")
	}
	if got := sc.Sum("oreo_http_requests_total", nil); got != 102 {
		t.Fatalf("Sum = %v, want 102", got)
	}
	if got := sc.Sum("oreo_http_requests_total", map[string]string{"endpoint": "query"}); got != 92 {
		t.Fatalf("Sum(endpoint=query) = %v, want 92", got)
	}
	if got := sc.Max("oreo_replication_lag_epochs", nil); got != 7 {
		t.Fatalf("Max = %v, want 7", got)
	}
	if got := sc.Max("oreo_absent_metric", nil); got != 0 {
		t.Fatalf("Max of absent metric = %v, want 0", got)
	}
	want := "a \"quoted\" value, with, commas\nand a newline"
	if v, ok := sc.Value("weird_label", map[string]string{"msg": want}); !ok || v != 1 {
		t.Fatalf("escaped label value did not round-trip (ok=%v)", ok)
	}
}

func TestParseMetricsRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"no_value_here\n",
		`unterminated{a="b value` + "\n",
		`bad_value{a="b"} not-a-number` + "\n",
	} {
		if _, err := metrics.ParseText(strings.NewReader(bad)); err == nil {
			t.Errorf("payload %q parsed without error", bad)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	sc, err := metrics.ParseText(strings.NewReader(samplePayload))
	if err != nil {
		t.Fatal(err)
	}
	// Absolute reading: rank 0.5×92 = 46 lands in the first bucket
	// (80 observations ≤ 1ms), interpolated from 0.
	if q, ok := sc.HistQuantile("oreo_http_request_duration_seconds", 0.5, nil); !ok || q <= 0 || q > 0.001 {
		t.Fatalf("p50 = %v,%v; want within (0, 0.001]", q, ok)
	}
	// p99: rank 91.08 > 90 falls in the +Inf bucket, which reports the
	// last finite bound instead of infinity.
	if q, ok := sc.HistQuantile("oreo_http_request_duration_seconds", 0.99, nil); !ok || q != 0.01 {
		t.Fatalf("p99 = %v,%v; want 0.01 (last finite bound)", q, ok)
	}

	// Interval reading: against a previous scrape, only the delta
	// counts. 10 new observations, all slow (the 0.001 bucket did not
	// move), so the interval p50 must land above 1ms.
	prev, err := metrics.ParseText(strings.NewReader(`
oreo_http_request_duration_seconds_bucket{endpoint="query",le="0.001"} 80
oreo_http_request_duration_seconds_bucket{endpoint="query",le="0.01"} 81
oreo_http_request_duration_seconds_bucket{endpoint="query",le="+Inf"} 82
`))
	if err != nil {
		t.Fatal(err)
	}
	q, ok := sc.HistQuantile("oreo_http_request_duration_seconds", 0.5, prev)
	if !ok || q <= 0.001 || q > 0.01 {
		t.Fatalf("interval p50 = %v,%v; want within (0.001, 0.01]", q, ok)
	}
	// No traffic in the interval: the quantile must report false, not 0.
	if _, ok := sc.HistQuantile("oreo_http_request_duration_seconds", 0.5, sc); ok {
		t.Fatal("quantile over an empty interval reported a value")
	}
	if _, ok := sc.HistQuantile("oreo_absent_metric", 0.5, nil); ok {
		t.Fatal("quantile of an absent histogram reported a value")
	}
}

func TestThresholdPolicy(t *testing.T) {
	p := ThresholdPolicy{MaxQPSPerNode: 100, MaxP99: 5 * time.Millisecond, MaxLagEpochs: 50}
	cases := []struct {
		name string
		sig  Signals
		want int
	}{
		{"idle", Signals{QPS: 10, P99: time.Millisecond, Followers: 0}, 0},
		{"qps over", Signals{QPS: 150, P99: time.Millisecond, Followers: 0}, 1},
		{"p99 over", Signals{QPS: 10, P99: 20 * time.Millisecond, Followers: 1}, 2},
		{"lag over", Signals{QPS: 10, P99: time.Millisecond, MaxLagEpochs: 80, Followers: 2}, 3},
		// 180 QPS on 2 nodes = 90 each: under the ceiling, but one node
		// fewer would carry 180 > 0.5×100 — hold, no flapping.
		{"hold between bands", Signals{QPS: 180, P99: 2 * time.Millisecond, Followers: 1}, 1},
		// Comfortably idle with followers: scale down by one.
		{"scale down", Signals{QPS: 30, P99: time.Millisecond, Followers: 2}, 1},
		{"never below zero", Signals{QPS: 0, P99: 0, Followers: 0}, 0},
	}
	for _, c := range cases {
		if got := p.Target(c.sig); got != c.want {
			t.Errorf("%s: Target(%+v) = %d, want %d", c.name, c.sig, got, c.want)
		}
	}
}

func TestQueueingPolicy(t *testing.T) {
	p := QueueingPolicy{ServiceRate: 100, TargetWait: 10 * time.Millisecond}
	// No load: no followers needed.
	if got := p.Target(Signals{QPS: 0}); got != 0 {
		t.Fatalf("idle target = %d, want 0", got)
	}
	// λ=70, μ=100: one server runs at ρ=0.7 but waits ~23ms — one
	// follower brings the wait to ~1.4ms, under the target.
	if got := p.Target(Signals{QPS: 70}); got != 1 {
		t.Fatalf("light-load target = %d, want 1", got)
	}
	// λ=30: a single server waits ~4ms — no followers needed.
	if got := p.Target(Signals{QPS: 30}); got != 0 {
		t.Fatalf("very-light-load target = %d, want 0", got)
	}
	// λ=350, μ=100: at least 5 servers for ρ<0.8 → ≥4 followers, and the
	// target must satisfy the wait bound at the returned size.
	got := p.Target(Signals{QPS: 350})
	if got < 4 {
		t.Fatalf("heavy-load target = %d, want >= 4", got)
	}
	c := got + 1
	if wq := erlangCWait(350, 100, c); wq > 0.010 {
		t.Fatalf("returned fleet of %d servers waits %.4fs, above the 10ms target", c, wq)
	}
	// Unconfigured service rate: policy abstains (holds current count).
	if got := (QueueingPolicy{}).Target(Signals{QPS: 500, Followers: 3}); got != 3 {
		t.Fatalf("unconfigured policy moved the target to %d", got)
	}
}

func TestErlangCWait(t *testing.T) {
	// M/M/1 closed form: Wq = ρ/(μ−λ). λ=0.5, μ=1: Wq = 1s.
	if wq := erlangCWait(0.5, 1, 1); wq < 0.999 || wq > 1.001 {
		t.Fatalf("M/M/1 Wq = %v, want 1.0", wq)
	}
	// Saturated: infinite wait.
	if wq := erlangCWait(2, 1, 2); !isInf(wq) {
		t.Fatalf("saturated Wq = %v, want +Inf", wq)
	}
	// More servers, same load: wait strictly shrinks.
	if w2, w4 := erlangCWait(1.5, 1, 2), erlangCWait(1.5, 1, 4); w4 >= w2 {
		t.Fatalf("Wq did not shrink with servers: c=2 %v, c=4 %v", w2, w4)
	}
}

func isInf(f float64) bool { return f > 1e300 }
