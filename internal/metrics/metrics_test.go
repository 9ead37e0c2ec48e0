package metrics

import (
	"bytes"
	"flag"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the exposition golden file")

// TestWriteTextGolden pins the exposition format byte-for-byte: HELP
// and TYPE lines, sample spelling, histogram _bucket/_sum/_count
// expansion with a terminating +Inf, label escaping, and the
// deterministic family/series ordering. If this test fails after an
// encoder change, the bytes are the contract — fix the encoder, or
// deliberately regenerate with -update-golden and review the diff.
func TestWriteTextGolden(t *testing.T) {
	r := NewRegistry()

	c := r.Counter("test_requests_total", "Requests answered.", Labels{"endpoint": "query", "code": "200"})
	c.Add(42)
	r.Counter("test_requests_total", "Requests answered.", Labels{"endpoint": "query", "code": "400"}).Inc()
	r.Counter("test_requests_total", "Requests answered.", Labels{"endpoint": "batch", "code": "200"}).Add(7)

	g := r.Gauge("test_queue_depth", "Observations waiting.", Labels{"table": "orders"})
	g.Set(3)
	r.GaugeFunc("test_epoch", "Current epoch.", Labels{"table": "orders"}, func() float64 { return 1234 })
	r.CounterFunc("test_cost_total", "Cumulative served cost.", nil, func() float64 { return 12.5 })

	h := r.Histogram("test_latency_seconds", "Request latency.", []float64{0.001, 0.01, 0.1, 1}, Labels{"endpoint": "query"})
	for _, v := range []float64{0.0004, 0.002, 0.002, 0.05, 0.05, 0.05, 0.2, 5} {
		h.Observe(v)
	}

	// Label values carrying every escapable byte; help text with a
	// backslash and a newline.
	r.Gauge("test_escapes", "Escape \\ coverage\nsecond line.", Labels{"v": "a\\b\"c\nd"}).Set(1)

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "exposition.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}

	// Two encodes of untouched state are identical — the determinism the
	// golden depends on.
	var again bytes.Buffer
	if err := r.WriteText(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("two encodes of identical state differ")
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_total", "A counter.", nil).Add(3)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	res, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if ct := res.Header.Get("Content-Type"); ct != ContentType {
		t.Errorf("Content-Type = %q, want %q", ct, ContentType)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(res.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "test_total 3\n") {
		t.Errorf("scrape missing sample:\n%s", buf.String())
	}
}

func TestGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "", Labels{"t": "a"})
	b := r.Counter("x_total", "", Labels{"t": "a"})
	if a != b {
		t.Error("same (name, labels) returned distinct counters")
	}
	if c := r.Counter("x_total", "", Labels{"t": "b"}); c == a {
		t.Error("distinct labels returned the same counter")
	}
	h1 := r.Histogram("h_seconds", "", []float64{1, 2}, Labels{"t": "a"})
	h2 := r.Histogram("h_seconds", "", nil, Labels{"t": "a"})
	if h1 != h2 {
		t.Error("same histogram series returned distinct histograms")
	}
}

func TestRegistrationPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.Counter("ok_total", "", nil)
	mustPanic("kind conflict", func() { r.Gauge("ok_total", "", nil) })
	mustPanic("bad metric name", func() { r.Counter("bad-name", "", nil) })
	mustPanic("bad label name", func() { r.Counter("ok2_total", "", Labels{"bad-label": "x"}) })
	mustPanic("reserved le label", func() { r.Counter("ok3_total", "", Labels{"le": "x"}) })
	mustPanic("unordered buckets", func() { r.Histogram("h_seconds", "", []float64{2, 1}, nil) })
	r.Histogram("h2_seconds", "", []float64{1, 2}, nil)
	mustPanic("bucket conflict", func() { r.Histogram("h2_seconds", "", []float64{1, 3}, nil) })
	r.CounterFunc("fn_total", "", nil, func() float64 { return 1 })
	mustPanic("cell over callback", func() { r.Counter("fn_total", "", nil) })
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(ExpBuckets(0.001, 2, 12)) // 1ms .. ~2s
	// 1000 observations uniform over (0, 0.1]: p50 ≈ 0.05, p99 ≈ 0.099.
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) * 0.0001)
	}
	if p50 := h.Quantile(0.50); p50 < 0.03 || p50 > 0.07 {
		t.Errorf("p50 = %v, want ≈0.05", p50)
	}
	if p99 := h.Quantile(0.99); p99 < 0.08 || p99 > 0.11 {
		t.Errorf("p99 = %v, want ≈0.099", p99)
	}
	if got, want := h.Max(), 0.1; math.Abs(got-want) > 1e-12 {
		t.Errorf("Max = %v, want %v", got, want)
	}
	if got, want := h.Count(), uint64(1000); got != want {
		t.Errorf("Count = %d, want %d", got, want)
	}
	if got, want := math.Float64frombits(h.sumBits.Load()), 50.05; math.Abs(got-want) > 1e-6 {
		t.Errorf("Sum = %v, want %v", got, want)
	}
	// An outlier past the last bound lands in +Inf and the tail quantile
	// clamps to the exact max rather than inventing a bound.
	h.Observe(30)
	if p := h.Quantile(0.9999); p != 30 {
		t.Errorf("tail quantile = %v, want the exact max 30", p)
	}

	if q := NewHistogram([]float64{1}).Quantile(0.5); q != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", q)
	}
}

// TestConcurrentScrape hammers every instrument kind from many
// goroutines while scraping concurrently — the -race witness that the
// hot path takes no locks and the encoder reads safely.
func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("stress_total", "", Labels{"t": "x"})
	g := r.Gauge("stress_depth", "", nil)
	h := r.Histogram("stress_seconds", "", LatencyBuckets(), Labels{"t": "x"})
	r.GaugeFunc("stress_fn", "", nil, func() float64 { return float64(c.Load()) })

	const writers, perWriter = 8, 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var buf bytes.Buffer
				if err := r.WriteText(&buf); err != nil {
					t.Error(err)
					return
				}
				// New series appearing mid-stress must not corrupt encoding.
				r.Counter("stress_total", "", Labels{"t": "x"}).Load()
			}
		}()
	}
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(seed int) {
			defer ww.Done()
			for i := 0; i < perWriter; i++ {
				c.Inc()
				g.Set(perWriter)
				h.Observe(float64(seed*perWriter+i) * 1e-6)
				h.ObserveDuration(time.Microsecond)
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()

	if got, want := c.Load(), uint64(writers*perWriter); got != want {
		t.Errorf("counter = %d, want %d", got, want)
	}
	if got, want := g.Load(), float64(perWriter); got != want {
		t.Errorf("gauge = %v, want %v", got, want)
	}
	if got, want := h.Count(), uint64(2*writers*perWriter); got != want {
		t.Errorf("histogram count = %d, want %d", got, want)
	}
}
