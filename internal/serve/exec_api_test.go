package serve

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"oreo"
)

// newExecFixture builds a single-table server over a returned dataset,
// so tests can compute reference answers row by row. cfg tunes the
// optimizer (reorganization aggressiveness in particular).
func newExecFixture(t *testing.T, rows int, cfg oreo.Config, srvCfg Config) (*oreo.Dataset, *Server, *httptest.Server) {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	schema := oreo.NewSchema(
		oreo.Column{Name: "order_ts", Type: oreo.Int64},
		oreo.Column{Name: "status", Type: oreo.String},
		oreo.Column{Name: "amount", Type: oreo.Float64},
	)
	b := oreo.NewDatasetBuilder(schema, rows)
	statuses := []string{"cancelled", "delivered", "pending", "returned"}
	for i := 0; i < rows; i++ {
		b.AppendRow(
			oreo.Int(int64(i)),
			oreo.Str(statuses[rng.Intn(len(statuses))]),
			oreo.Float(rng.Float64()*100),
		)
	}
	ds := b.Build()
	m := oreo.NewMulti()
	if err := m.AddTable("orders", ds, cfg); err != nil {
		t.Fatal(err)
	}
	s, err := New(m, srvCfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return ds, s, ts
}

// refCount computes the oracle answer for a status + ts-range query
// directly over the dataset.
func refCount(ds *oreo.Dataset, q oreo.Query) (matched int, sum float64) {
	amount := ds.Schema().MustIndex("amount")
	for r := 0; r < ds.NumRows(); r++ {
		if q.MatchRow(ds, r) {
			matched++
			sum += ds.Float64At(amount, r)
		}
	}
	return matched, sum
}

func TestExecutePath(t *testing.T) {
	ds, _, ts := newExecFixture(t, 4000,
		oreo.Config{Partitions: 16, InitialSort: []string{"order_ts"}, Seed: 3}, Config{QueueSize: 64})

	req := QueryRequest{
		Table: "orders", ID: 17, Execute: true,
		Preds: []PredicateJSON{
			{Col: "order_ts", HasLo: true, HasHi: true, LoI: 500, HiI: 1500},
			{Col: "status", In: []string{"pending", "returned"}},
		},
		Aggs: []AggregateJSON{
			{Op: "count"},
			{Op: "sum", Col: "amount"},
			{Op: "min", Col: "order_ts"},
			{Op: "max", Col: "order_ts"},
		},
	}
	resp, data := postJSON(t, ts.URL+"/v1/query", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var qr QueryResponse
	if err := json.Unmarshal(data, &qr); err != nil {
		t.Fatal(err)
	}
	res := qr.Results[0]
	if res.QueryID != 17 {
		t.Errorf("query_id %d, want 17", res.QueryID)
	}
	ex := res.Execution
	if ex == nil {
		t.Fatal("execute request returned no execution block")
	}

	q := oreo.Query{Preds: []oreo.Predicate{
		oreo.IntRange("order_ts", 500, 1500),
		oreo.StrIn("status", "pending", "returned"),
	}}
	wantMatched, wantSum := refCount(ds, q)
	if ex.MatchedRows != wantMatched {
		t.Errorf("matched %d rows, oracle says %d", ex.MatchedRows, wantMatched)
	}
	if ex.PartitionsRead != len(res.SurvivorPartitions) || ex.PartitionsTotal != res.NumPartitions {
		t.Errorf("partition accounting %d/%d vs skip-list %d/%d",
			ex.PartitionsRead, ex.PartitionsTotal, len(res.SurvivorPartitions), res.NumPartitions)
	}
	// The examined fraction is the served cost, exactly.
	if got := float64(ex.RowsExamined) / float64(ex.RowsTotal); got != res.Cost {
		t.Errorf("examined fraction %v != cost %v", got, res.Cost)
	}
	if ex.RowsTotal != ds.NumRows() {
		t.Errorf("rows_total %d, want %d", ex.RowsTotal, ds.NumRows())
	}
	// Pruning did something: a 25% ts range must not read everything.
	if ex.RowsExamined >= ds.NumRows() {
		t.Errorf("no partitions skipped (%d rows examined)", ex.RowsExamined)
	}

	if len(ex.Aggregates) != 4 {
		t.Fatalf("aggregates = %+v", ex.Aggregates)
	}
	if a := ex.Aggregates[0]; a.Op != "count" || !a.Valid || a.ValueI != int64(wantMatched) {
		t.Errorf("count = %+v, want %d", a, wantMatched)
	}
	if a := ex.Aggregates[1]; a.Op != "sum" || a.Type != "float64" || math.Abs(a.ValueF-wantSum) > 1e-6 {
		t.Errorf("sum = %+v, want ≈%v", a, wantSum)
	}
	if a := ex.Aggregates[2]; a.ValueI < 500 || (wantMatched > 0 && !a.Valid) {
		t.Errorf("min order_ts = %+v", a)
	}
	if a := ex.Aggregates[3]; a.ValueI > 1500 {
		t.Errorf("max order_ts = %+v", a)
	}
}

func TestExecuteRoutingAndAggScoping(t *testing.T) {
	_, ts := newFixtureServer(t, 64)

	// Routed across both tables: count runs everywhere, amount only on
	// orders (events has no amount column).
	req := QueryRequest{
		Execute: true,
		Preds: []PredicateJSON{
			{Col: "order_ts", HasLo: true, LoI: 1000},
			{Col: "user", In: []string{"alice"}},
		},
		Aggs: []AggregateJSON{{Op: "count"}, {Op: "max", Col: "amount"}},
	}
	resp, data := postJSON(t, ts.URL+"/v1/query", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var qr QueryResponse
	if err := json.Unmarshal(data, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Results) != 2 {
		t.Fatalf("routed to %d tables: %+v", len(qr.Results), qr.Results)
	}
	for _, res := range qr.Results {
		if res.Execution == nil {
			t.Fatalf("table %s: no execution block", res.Table)
		}
		wantAggs := 2
		if res.Table == "events" {
			wantAggs = 1 // count only; events has no amount
		}
		if len(res.Execution.Aggregates) != wantAggs {
			t.Errorf("table %s: %d aggregates, want %d: %+v",
				res.Table, len(res.Execution.Aggregates), wantAggs, res.Execution.Aggregates)
		}
	}

	// An aggregate column no queried table has is an error, not a
	// silently missing result.
	req.Aggs = []AggregateJSON{{Op: "sum", Col: "ghost"}}
	if resp, data := postJSON(t, ts.URL+"/v1/query", req); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unroutable aggregate: status %d (%s)", resp.StatusCode, data)
	}
}

// TestRoutedExecuteFailsBeforeAnyShardExecutes pins that a routed
// execute with an aggregate one table cannot compute (sum over a
// string column) is rejected up front: no shard executes, counts, or
// feeds its decision loop before the 400.
func TestRoutedExecuteFailsBeforeAnyShardExecutes(t *testing.T) {
	s, ts := newFixtureServer(t, 64)

	req := QueryRequest{
		Execute: true,
		Preds: []PredicateJSON{
			{Col: "order_ts", HasLo: true, LoI: 1000}, // routes to orders
			{Col: "user", In: []string{"alice"}},      // routes to events
		},
		// status is a string column of orders: the aggregate routes,
		// but cannot be computed there.
		Aggs: []AggregateJSON{{Op: "sum", Col: "status"}},
	}
	resp, data := postJSON(t, ts.URL+"/v1/query", req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (%s)", resp.StatusCode, data)
	}
	for _, table := range []string{"orders", "events"} {
		sh := s.core.shards[table]
		if served := sh.served.Load(); served != 0 {
			t.Errorf("shard %s served %d queries for a rejected request", table, served)
		}
		if obs := sh.observed.Load(); obs != 0 {
			t.Errorf("shard %s observed %d queries for a rejected request", table, obs)
		}
	}
}

func TestExecuteValidation(t *testing.T) {
	_, ts := newFixtureServer(t, 64)
	base := []PredicateJSON{{Col: "order_ts", HasLo: true, LoI: 10}}

	cases := []struct {
		name string
		req  QueryRequest
	}{
		{"aggs without execute", QueryRequest{Table: "orders", Preds: base,
			Aggs: []AggregateJSON{{Op: "count"}}}},
		{"unknown op", QueryRequest{Table: "orders", Preds: base, Execute: true,
			Aggs: []AggregateJSON{{Op: "avg", Col: "amount"}}}},
		{"sum without column", QueryRequest{Table: "orders", Preds: base, Execute: true,
			Aggs: []AggregateJSON{{Op: "sum"}}}},
		{"sum on string column", QueryRequest{Table: "orders", Preds: base, Execute: true,
			Aggs: []AggregateJSON{{Op: "sum", Col: "status"}}}},
		{"agg on unknown column", QueryRequest{Table: "orders", Preds: base, Execute: true,
			Aggs: []AggregateJSON{{Op: "min", Col: "ghost"}}}},
	}
	for _, tc := range cases {
		resp, data := postJSON(t, ts.URL+"/v1/query", tc.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s)", tc.name, resp.StatusCode, data)
			continue
		}
		var e ErrorResponse
		if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
			t.Errorf("%s: body %q not a JSON error", tc.name, data)
		}
	}
}

func TestBatchExecuteAndIDEcho(t *testing.T) {
	ds, _, ts := newExecFixture(t, 3000,
		oreo.Config{Partitions: 16, InitialSort: []string{"order_ts"}, Seed: 5}, Config{QueueSize: 64})

	req := BatchRequest{Queries: []QueryRequest{
		{Table: "orders", ID: 101, Execute: true,
			Preds: []PredicateJSON{{Col: "status", In: []string{"pending"}}},
			Aggs:  []AggregateJSON{{Op: "count"}}},
		{Table: "orders", ID: 102,
			Preds: []PredicateJSON{{Col: "order_ts", HasLo: true, LoI: 100}}},
		{Table: "nope", ID: 103,
			Preds: []PredicateJSON{{Col: "order_ts", HasLo: true, LoI: 100}}},
	}}
	resp, data := postJSON(t, ts.URL+"/v1/query/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var br BatchResponse
	if err := json.Unmarshal(data, &br); err != nil {
		t.Fatal(err)
	}
	for i, wantID := range []int{101, 102, 103} {
		if br.Results[i].ID != wantID {
			t.Errorf("item %d echoes id %d, want %d", i, br.Results[i].ID, wantID)
		}
	}
	// Executed item: count matches the oracle, query_id echoed per table.
	wantMatched, _ := refCount(ds, oreo.Query{Preds: []oreo.Predicate{oreo.StrEq("status", "pending")}})
	item0 := br.Results[0]
	if item0.Error != "" || item0.Results[0].Execution == nil {
		t.Fatalf("executed batch item = %+v", item0)
	}
	if got := item0.Results[0].Execution.MatchedRows; got != wantMatched {
		t.Errorf("batch execute matched %d, oracle %d", got, wantMatched)
	}
	if item0.Results[0].QueryID != 101 {
		t.Errorf("table result query_id = %d, want 101", item0.Results[0].QueryID)
	}
	// Non-execute item carries no execution block but still echoes.
	if br.Results[1].Results[0].Execution != nil {
		t.Error("non-execute item got an execution block")
	}
	if br.Results[1].Results[0].QueryID != 102 {
		t.Errorf("item 1 query_id = %d", br.Results[1].Results[0].QueryID)
	}
	if br.Results[2].Error == "" {
		t.Error("unknown-table item did not fail")
	}
}

// TestExecuteAcrossReorganization drives an aggressive optimizer until
// it reorganizes mid-stream while every answer is checked against the
// row oracle: a layout switch (and the store swap behind it) must never
// change what a query matches — only how much data the scan reads.
func TestExecuteAcrossReorganization(t *testing.T) {
	ds, s, ts := newExecFixture(t, 3000, oreo.Config{
		Alpha: 2, WindowSize: 30, Partitions: 16,
		InitialSort: []string{"order_ts"}, Seed: 11,
	}, Config{QueueSize: 256})

	statuses := []string{"cancelled", "delivered", "pending", "returned"}
	want := make(map[string]int, len(statuses))
	for _, st := range statuses {
		want[st], _ = refCount(ds, oreo.Query{Preds: []oreo.Predicate{oreo.StrEq("status", st)}})
	}

	var layouts []string
	seen := map[string]bool{}
	reorganized := false
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; i < 1200 && time.Now().Before(deadline); i++ {
		st := statuses[i%len(statuses)]
		req := QueryRequest{
			Table: "orders", Execute: true,
			Preds: []PredicateJSON{{Col: "status", In: []string{st}}},
			Aggs:  []AggregateJSON{{Op: "count"}},
		}
		resp, data := postJSON(t, ts.URL+"/v1/query", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d: %s", i, resp.StatusCode, data)
		}
		var qr QueryResponse
		if err := json.Unmarshal(data, &qr); err != nil {
			t.Fatal(err)
		}
		res := qr.Results[0]
		if res.Execution.MatchedRows != want[st] {
			t.Fatalf("query %d on layout %q: matched %d rows for status %s, oracle %d",
				i, res.Layout, res.Execution.MatchedRows, st, want[st])
		}
		if a := res.Execution.Aggregates[0]; a.ValueI != int64(want[st]) {
			t.Fatalf("query %d: count %d, want %d", i, a.ValueI, want[st])
		}
		if !seen[res.Layout] {
			seen[res.Layout] = true
			layouts = append(layouts, res.Layout)
		}
		if len(layouts) > 1 {
			reorganized = true
			if i%len(statuses) == 0 && i > 0 {
				break // keep validating a few answers on the new layout, then stop
			}
		}
	}
	if !reorganized {
		t.Fatalf("optimizer never reorganized (layouts seen: %v); tune the fixture", layouts)
	}

	// The executed layout genuinely switched, and the shard's store
	// followed it: its state pairs the new layout with a store of the
	// same partitioning.
	sh := s.core.shards["orders"]
	st := sh.store.Load()
	if st.store.Partitioning() != st.layout.Part {
		t.Error("execution store not in lockstep with its layout")
	}
}

// TestExecuteNonFiniteAggregateOnWire pins that a NaN aggregate result
// (a sum folding a NaN cell) reaches the client as a parseable 200 —
// spelled in value_s — instead of the empty body a failed
// json.Encode-after-WriteHeader used to produce.
func TestExecuteNonFiniteAggregateOnWire(t *testing.T) {
	schema := oreo.NewSchema(
		oreo.Column{Name: "id", Type: oreo.Int64},
		oreo.Column{Name: "v", Type: oreo.Float64},
	)
	b := oreo.NewDatasetBuilder(schema, 4)
	for i := 0; i < 4; i++ {
		val := float64(i)
		if i == 2 {
			val = math.NaN()
		}
		b.AppendRow(oreo.Int(int64(i)), oreo.Float(val))
	}
	m := oreo.NewMulti()
	if err := m.AddTable("t", b.Build(), oreo.Config{
		Partitions: 2, InitialSort: []string{"id"}, Seed: 1,
	}); err != nil {
		t.Fatal(err)
	}
	s, err := New(m, Config{QueueSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	req := QueryRequest{
		Table: "t", Execute: true,
		Preds: []PredicateJSON{{Col: "id", HasLo: true, LoI: 0}},
		Aggs:  []AggregateJSON{{Op: "sum", Col: "v"}, {Op: "min", Col: "v"}},
	}
	resp, data := postJSON(t, ts.URL+"/v1/query", req)
	if resp.StatusCode != http.StatusOK || len(data) == 0 {
		t.Fatalf("status %d, body %q", resp.StatusCode, data)
	}
	var qr QueryResponse
	if err := json.Unmarshal(data, &qr); err != nil {
		t.Fatalf("unparseable body %q: %v", data, err)
	}
	aggs := qr.Results[0].Execution.Aggregates
	if aggs[0].ValueS != "NaN" || aggs[0].ValueF != 0 || !aggs[0].Valid {
		t.Errorf("NaN sum on the wire = %+v", aggs[0])
	}
	// min skips the NaN cell: finite, order-independent.
	if aggs[1].ValueF != 0 || !aggs[1].Valid || aggs[1].ValueS != "" {
		t.Errorf("min = %+v, want finite 0", aggs[1])
	}
}

func TestRequestBodyCap(t *testing.T) {
	_, _, ts := newExecFixture(t, 500,
		oreo.Config{Partitions: 8, InitialSort: []string{"order_ts"}, Seed: 1},
		Config{QueueSize: 8, MaxBodyBytes: 512})

	small := QueryRequest{Table: "orders", Preds: []PredicateJSON{{Col: "order_ts", HasLo: true, LoI: 5}}}
	if resp, data := postJSON(t, ts.URL+"/v1/query", small); resp.StatusCode != http.StatusOK {
		t.Fatalf("small body rejected: %d (%s)", resp.StatusCode, data)
	}

	// A fat IN-set blows the 512-byte cap → 413 with the standard error
	// shape, on both endpoints.
	vals := make([]string, 200)
	for i := range vals {
		vals[i] = strings.Repeat("x", 8)
	}
	big := QueryRequest{Table: "orders", Preds: []PredicateJSON{{Col: "status", In: vals}}}
	for _, path := range []string{"/v1/query", "/v1/query/batch"} {
		var body any = big
		if path == "/v1/query/batch" {
			body = BatchRequest{Queries: []QueryRequest{big}}
		}
		resp, data := postJSON(t, ts.URL+path, body)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413 (%s)", path, resp.StatusCode, data)
			continue
		}
		var e ErrorResponse
		if err := json.Unmarshal(data, &e); err != nil || !strings.Contains(e.Error, "512") {
			t.Errorf("%s: 413 body %q lacks the limit", path, data)
		}
	}
}

func TestHealthReportsShardCounters(t *testing.T) {
	s, ts := newFixtureServer(t, 1)

	// Saturate the size-1 queue through the shard so some observations
	// drop; health must count them all, not just what the decision loop
	// managed to process.
	sh := s.core.shards["orders"]
	const burst = 120
	for i := 0; i < burst; i++ {
		sh.answer(context.Background(), oreo.Query{ID: i, Preds: []oreo.Predicate{oreo.IntRange("order_ts", 0, 50)}}, false, nil)
	}

	var health HealthResponse
	if resp := getJSON(t, ts.URL+"/healthz", &health); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	if health.Served != burst {
		t.Errorf("health served %d, want %d", health.Served, burst)
	}
	if health.Observed+health.Dropped != health.Served {
		t.Errorf("observed %d + dropped %d != served %d", health.Observed, health.Dropped, health.Served)
	}
	if health.Dropped == 0 {
		t.Error("size-1 queue under a 120-query burst dropped nothing")
	}
	// The old bug: the decision-loop total hides dropped queries. It is
	// still reported, but must not exceed what was actually observed.
	if uint64(health.Queries) > health.Observed {
		t.Errorf("decision-loop queries %d > observed %d", health.Queries, health.Observed)
	}
}

func TestStatsReadPathCounters(t *testing.T) {
	_, srv, ts := newExecFixture(t, 2000,
		oreo.Config{Partitions: 8, InitialSort: []string{"order_ts"}, Seed: 2}, Config{QueueSize: 64})

	const plain, executed = 6, 4
	for i := 0; i < plain; i++ {
		postJSON(t, ts.URL+"/v1/query", QueryRequest{Table: "orders",
			Preds: []PredicateJSON{{Col: "order_ts", HasLo: true, LoI: int64(i)}}})
	}
	// Costing-only traffic never materializes the execution store: the
	// second copy of the data is paid on the first execute, not at boot.
	if srv.core.shards["orders"].store.Load() != nil {
		t.Error("execution store materialized by costing-only traffic")
	}
	// A rejected execute (bad aggregate) must not materialize it either:
	// validation runs before the lazy build pays for a second data copy.
	postJSON(t, ts.URL+"/v1/query", QueryRequest{Table: "orders", Execute: true,
		Preds: []PredicateJSON{{Col: "order_ts", HasLo: true, LoI: 1}},
		Aggs:  []AggregateJSON{{Op: "sum", Col: "status"}}})
	if srv.core.shards["orders"].store.Load() != nil {
		t.Error("execution store materialized by a rejected execute request")
	}
	for i := 0; i < executed; i++ {
		postJSON(t, ts.URL+"/v1/query", QueryRequest{Table: "orders", Execute: true,
			Preds: []PredicateJSON{{Col: "order_ts", HasLo: true, HasHi: true, LoI: 0, HiI: int64(100 + i)}}})
	}

	var st StatsResponse
	if resp := getJSON(t, ts.URL+"/v1/tables/orders/stats", &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	if st.Served != plain+executed {
		t.Fatalf("served %d, want %d", st.Served, plain+executed)
	}
	// Every read-path answer is one lock-free snapshot compile; the
	// engine memo counters stay untouched by serving (decision-path
	// activity may move them, but these few queries cannot have).
	if st.SnapshotCompiles != plain+executed {
		t.Errorf("snapshot_compiles %d, want %d", st.SnapshotCompiles, plain+executed)
	}
	if st.Executions != executed {
		t.Errorf("executions %d, want %d", st.Executions, executed)
	}
	if st.ExecutionRowsRead == 0 {
		t.Error("execution_rows_read stayed zero after executed scans")
	}
	if srv.core.shards["orders"].store.Load() == nil {
		t.Error("execution store missing after executed scans")
	}
}
