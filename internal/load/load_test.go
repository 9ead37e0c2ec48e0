package load

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"oreo"
	"oreo/client"
	"oreo/internal/query"
	"oreo/internal/serve"
	"oreo/internal/workload"
)

// ordersFixture builds the "orders" rows newLoadTarget serves,
// deterministically, so a test can count a query's matches itself.
func ordersFixture(rows int) *oreo.Dataset {
	schema := oreo.NewSchema(
		oreo.Column{Name: "order_ts", Type: oreo.Int64},
		oreo.Column{Name: "status", Type: oreo.String},
		oreo.Column{Name: "amount", Type: oreo.Float64},
	)
	statuses := []string{"cancelled", "delivered", "pending", "returned"}
	rng := rand.New(rand.NewSource(1))
	b := oreo.NewDatasetBuilder(schema, rows)
	for i := 0; i < rows; i++ {
		b.AppendRow(oreo.Int(int64(i)), oreo.Str(statuses[rng.Intn(4)]), oreo.Float(rng.Float64()*500))
	}
	return b.Build()
}

// matchedRows is the closed form of Report.Matched for a run of count
// queries over pool against ordersFixture(rows): the rows each query
// sent matches, summed, skipping the queries at the skip indexes.
func matchedRows(rows int, pool []client.Query, count int, skip ...int) uint64 {
	ds := ordersFixture(rows)
	var n uint64
	for i := 0; i < count; i++ {
		if slices.Contains(skip, i%len(pool)) {
			continue
		}
		q := query.Query{Preds: query.FromWire(pool[i%len(pool)].Preds)}
		for r := 0; r < ds.NumRows(); r++ {
			if q.MatchRow(ds, r) {
				n++
			}
		}
	}
	return n
}

// newLoadTarget boots a fixture server matching the oreoserve "orders"
// fixture shape, as the target of load runs.
func newLoadTarget(t *testing.T, rows int) *httptest.Server {
	t.Helper()
	m := oreo.NewMulti()
	if err := m.AddTable("orders", ordersFixture(rows), oreo.Config{
		Partitions: 16, InitialSort: []string{"order_ts"}, Seed: 7,
	}); err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(m, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return ts
}

// TestClosedLoopCount pins the count-bounded closed loop: exactly Count
// queries are sent, none fail, every one is executed and the matched
// rows add up to the fixture's closed form, and the report's
// percentiles are populated and ordered.
func TestClosedLoopCount(t *testing.T) {
	const rows = 4000
	ts := newLoadTarget(t, rows)
	pool, err := BuildPool(workload.FixtureTemplates("orders", rows), "orders", 64, 4, true, 11)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), Spec{
		URL:     ts.URL,
		Queries: pool,
		Count:   200,
		// A deadline big enough to never trip, so the test is
		// count-deterministic.
		Duration:    time.Minute,
		Concurrency: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent != 200 {
		t.Errorf("sent = %d, want 200", rep.Sent)
	}
	if rep.Failed != 0 {
		t.Errorf("failed = %d, want 0", rep.Failed)
	}
	if rep.Executed != 200 {
		t.Errorf("executed = %d, want 200", rep.Executed)
	}
	if want := matchedRows(rows, pool, 200); rep.Matched != want || want == 0 {
		t.Errorf("matched = %d, want %d", rep.Matched, want)
	}
	if rep.QPS <= 0 {
		t.Errorf("achieved qps = %v", rep.QPS)
	}
	if rep.P50 <= 0 || rep.P50 > rep.P99 || rep.P99 > rep.Max {
		t.Errorf("percentiles out of order: p50 %v p99 %v max %v", rep.P50, rep.P99, rep.Max)
	}
}

// TestStreamLoop runs the same bounded run over one long-lived stream
// connection per worker, including failed queries (unknown table) which
// must count as failures without poisoning the connection, and neither
// as executed nor as matched.
func TestStreamLoop(t *testing.T) {
	const rows = 4000
	ts := newLoadTarget(t, rows)
	pool, err := BuildPool(workload.FixtureTemplates("orders", rows), "orders", 50, 2, true, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Poison one pool entry: a per-query error line on the stream.
	pool[7].Table = "no_such_table"
	rep, err := Run(context.Background(), Spec{
		URL:         ts.URL,
		Queries:     pool,
		Count:       50,
		Duration:    time.Minute,
		Concurrency: 2,
		Stream:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent != 50 {
		t.Errorf("sent = %d, want 50", rep.Sent)
	}
	if rep.Failed != 1 {
		t.Errorf("failed = %d, want exactly the poisoned query", rep.Failed)
	}
	if rep.Executed != 49 {
		t.Errorf("executed = %d, want 49 (every query but the poisoned one)", rep.Executed)
	}
	if want := matchedRows(rows, pool, 50, 7); rep.Matched != want || want == 0 {
		t.Errorf("matched = %d, want %d", rep.Matched, want)
	}
}

// TestOpenLoopPacing pins the open loop's discipline: against a fast
// local server a modest target rate is achieved within tolerance, and
// progress snapshots arrive while the run is live.
func TestOpenLoopPacing(t *testing.T) {
	const rows = 2000
	ts := newLoadTarget(t, rows)
	pool, err := BuildPool(workload.FixtureTemplates("orders", rows), "orders", 32, 2, false, 5)
	if err != nil {
		t.Fatal(err)
	}
	var snaps atomic.Uint64
	rep, err := Run(context.Background(), Spec{
		URL:           ts.URL,
		Queries:       pool,
		Duration:      1200 * time.Millisecond,
		QPS:           200,
		Concurrency:   8,
		Progress:      func(Snapshot) { snaps.Add(1) },
		ProgressEvery: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Errorf("failed = %d, want 0", rep.Failed)
	}
	// The pacer must neither stall (a loaded CI box still clears half
	// the modest target against a local server) nor overshoot the
	// ticket arithmetic.
	if rep.QPS < 100 {
		t.Errorf("achieved %v qps against a 200 qps target on loopback", rep.QPS)
	}
	if float64(rep.Sent) > 200*1.5*1.2 {
		t.Errorf("sent %d queries in ~1.2s at a 200 qps target: pacer overshot", rep.Sent)
	}
	if snaps.Load() == 0 {
		t.Error("no progress snapshots delivered")
	}
	if rep.TargetQPS != 200 {
		t.Errorf("report target = %v", rep.TargetQPS)
	}
}

// TestSpecValidation pins the guards: a run needs a pool and a bound.
func TestSpecValidation(t *testing.T) {
	if _, err := Run(context.Background(), Spec{URL: "http://localhost:1", Queries: nil, Count: 1}); err == nil {
		t.Error("empty pool accepted")
	}
	pool := []client.Query{{Table: "orders"}}
	if _, err := Run(context.Background(), Spec{URL: "http://localhost:1", Queries: pool}); err == nil {
		t.Error("unbounded run accepted")
	}
}
