package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"oreo"
	"oreo/internal/testleak"
)

// newFixtureServer builds a two-table server (orders, events) whose
// column sets are disjoint, so predicate routing is unambiguous. Alpha
// stays at the paper default (80): the handful of queries a test fires
// can never saturate the counters, so the serving layouts are stable
// for reference checks.
func newFixtureServer(t *testing.T, queueSize int) (*Server, *httptest.Server) {
	t.Helper()
	return newFixtureServerCfg(t, Config{QueueSize: queueSize})
}

// newFixtureServerCfg is newFixtureServer with an explicit
// serve.Config, for tests that need a non-default body cap.
func newFixtureServerCfg(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	rng := rand.New(rand.NewSource(4))

	orders := oreo.NewSchema(
		oreo.Column{Name: "order_ts", Type: oreo.Int64},
		oreo.Column{Name: "status", Type: oreo.String},
		oreo.Column{Name: "amount", Type: oreo.Float64},
	)
	ob := oreo.NewDatasetBuilder(orders, 4000)
	statuses := []string{"cancelled", "delivered", "pending"}
	for i := 0; i < 4000; i++ {
		ob.AppendRow(oreo.Int(int64(i)), oreo.Str(statuses[rng.Intn(3)]), oreo.Float(rng.Float64()*100))
	}

	events := oreo.NewSchema(
		oreo.Column{Name: "ts", Type: oreo.Int64},
		oreo.Column{Name: "user", Type: oreo.String},
	)
	eb := oreo.NewDatasetBuilder(events, 2000)
	users := []string{"alice", "bob", "carol"}
	for i := 0; i < 2000; i++ {
		eb.AppendRow(oreo.Int(int64(i)), oreo.Str(users[rng.Intn(3)]))
	}

	m := oreo.NewMulti()
	if err := m.AddTable("orders", ob.Build(), oreo.Config{
		Partitions: 16, InitialSort: []string{"order_ts"}, Seed: 1, TraceCapacity: 64,
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddTable("events", eb.Build(), oreo.Config{
		Partitions: 8, InitialSort: []string{"ts"}, Seed: 2, TraceCapacity: 64,
	}); err != nil {
		t.Fatal(err)
	}
	s, err := New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp
}

func TestHealthAndTables(t *testing.T) {
	_, ts := newFixtureServer(t, 64)

	var health HealthResponse
	if resp := getJSON(t, ts.URL+"/healthz", &health); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	if health.Status != "ok" || len(health.Tables) != 2 {
		t.Fatalf("healthz = %+v", health)
	}

	var tables map[string][]string
	if resp := getJSON(t, ts.URL+"/v1/tables", &tables); resp.StatusCode != http.StatusOK {
		t.Fatalf("tables status %d", resp.StatusCode)
	}
	if len(tables["tables"]) != 2 || tables["tables"][0] != "orders" {
		t.Fatalf("tables = %v", tables)
	}
}

func TestQueryEndpointSurvivorsMatchReference(t *testing.T) {
	s, ts := newFixtureServer(t, 64)

	req := QueryRequest{Table: "orders", Preds: []PredicateJSON{
		{Col: "order_ts", HasLo: true, HasHi: true, LoI: 500, HiI: 900},
	}}
	resp, data := postJSON(t, ts.URL+"/v1/query", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var qr QueryResponse
	if err := json.Unmarshal(data, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Results) != 1 || qr.Results[0].Table != "orders" {
		t.Fatalf("results = %+v", qr.Results)
	}
	res := qr.Results[0]

	// Reference: the interpreted per-partition prunable checks on the
	// layout the server reports having served on.
	snap, ok := s.core.Snapshot("orders")
	if !ok || snap.Serving.Name != res.Layout {
		t.Fatalf("snapshot layout %q, served on %q", snap.Serving.Name, res.Layout)
	}
	q := oreo.Query{Preds: []oreo.Predicate{oreo.IntRange("order_ts", 500, 900)}}
	var want []int
	rows := 0
	for pid, m := range snap.Serving.Part.Meta() {
		if q.MayMatch(snap.Serving.Schema(), m) {
			want = append(want, pid)
			rows += m.NumRows
		}
	}
	if len(res.SurvivorPartitions) != len(want) {
		t.Fatalf("survivors %v, want %v", res.SurvivorPartitions, want)
	}
	for i := range want {
		if res.SurvivorPartitions[i] != want[i] {
			t.Fatalf("survivors %v, want %v", res.SurvivorPartitions, want)
		}
	}
	if wantCost := float64(rows) / float64(snap.Serving.Part.TotalRows); res.Cost != wantCost {
		t.Fatalf("cost %v, want %v", res.Cost, wantCost)
	}
	if !res.Observed {
		t.Error("query not observed with an empty queue")
	}
	if res.NumPartitions != snap.Serving.Part.NumPartitions {
		t.Errorf("num_partitions %d, want %d", res.NumPartitions, snap.Serving.Part.NumPartitions)
	}
}

func TestQueryRouting(t *testing.T) {
	_, ts := newFixtureServer(t, 64)

	// A cross-table query: order_ts lives on orders, user on events.
	req := QueryRequest{Preds: []PredicateJSON{
		{Col: "order_ts", HasLo: true, LoI: 1000},
		{Col: "user", In: []string{"alice"}},
	}}
	resp, data := postJSON(t, ts.URL+"/v1/query", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var qr QueryResponse
	if err := json.Unmarshal(data, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Results) != 2 {
		t.Fatalf("routed to %d tables, want 2: %+v", len(qr.Results), qr.Results)
	}
	if qr.Results[0].Table != "orders" || qr.Results[1].Table != "events" {
		t.Fatalf("routing order = %+v", qr.Results)
	}
}

func TestQueryValidation(t *testing.T) {
	_, ts := newFixtureServer(t, 64)

	cases := []struct {
		name   string
		body   string
		status int
	}{
		{"malformed json", `{"table": orders}`, http.StatusBadRequest},
		{"unknown table", `{"table":"nope","preds":[{"col":"order_ts","has_lo":true,"lo_i":1}]}`, http.StatusNotFound},
		{"unknown column on table", `{"table":"orders","preds":[{"col":"user","in":["alice"]}]}`, http.StatusBadRequest},
		{"unknown column routed", `{"preds":[{"col":"ghost","has_lo":true,"lo_i":1}]}`, http.StatusBadRequest},
		{"empty column", `{"table":"orders","preds":[{"col":"","has_lo":true,"lo_i":1}]}`, http.StatusBadRequest},
		{"no constraints", `{"table":"orders","preds":[{"col":"order_ts"}]}`, http.StatusBadRequest},
		{"mixed shapes", `{"table":"orders","preds":[{"col":"status","has_lo":true,"lo_i":1,"in":["x"]}]}`, http.StatusBadRequest},
		{"no predicates no table", `{}`, http.StatusBadRequest},
		{"no predicates with table", `{"table":"orders","preds":[]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, data)
			continue
		}
		var e ErrorResponse
		if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %q not a JSON error", tc.name, data)
		}
	}
}

func TestBatchPartialFailure(t *testing.T) {
	_, ts := newFixtureServer(t, 64)

	req := BatchRequest{Queries: []QueryRequest{
		{Table: "orders", Preds: []PredicateJSON{{Col: "order_ts", HasLo: true, LoI: 100}}},
		{Table: "nope", Preds: []PredicateJSON{{Col: "order_ts", HasLo: true, LoI: 100}}},
		{Table: "orders", Preds: []PredicateJSON{{Col: "ghost", HasLo: true, LoI: 1}}},
		{Preds: []PredicateJSON{{Col: "user", In: []string{"bob"}}}},
	}}
	resp, data := postJSON(t, ts.URL+"/v1/query/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch with partial failures must answer 200, got %d: %s", resp.StatusCode, data)
	}
	var br BatchResponse
	if err := json.Unmarshal(data, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 4 {
		t.Fatalf("%d batch items, want 4", len(br.Results))
	}
	for i, item := range br.Results {
		if item.Index != i {
			t.Errorf("item %d echoes index %d", i, item.Index)
		}
	}
	if br.Results[0].Error != "" || len(br.Results[0].Results) != 1 {
		t.Errorf("item 0 should succeed: %+v", br.Results[0])
	}
	if br.Results[1].Error == "" || !strings.Contains(br.Results[1].Error, "unknown table") {
		t.Errorf("item 1 should fail on unknown table: %+v", br.Results[1])
	}
	if br.Results[2].Error == "" {
		t.Errorf("item 2 should fail on unknown column: %+v", br.Results[2])
	}
	if br.Results[3].Error != "" || len(br.Results[3].Results) != 1 || br.Results[3].Results[0].Table != "events" {
		t.Errorf("item 3 should route to events: %+v", br.Results[3])
	}

	// An empty batch is a client error, not an empty success.
	resp, data = postJSON(t, ts.URL+"/v1/query/batch", BatchRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400 (%s)", resp.StatusCode, data)
	}
}

func TestLayoutEndpoint(t *testing.T) {
	_, ts := newFixtureServer(t, 64)

	var lr LayoutResponse
	if resp := getJSON(t, ts.URL+"/v1/tables/events/layout", &lr); resp.StatusCode != http.StatusOK {
		t.Fatalf("layout status %d", resp.StatusCode)
	}
	if lr.Table != "events" || lr.NumPartitions != 8 || len(lr.PartitionRows) != 8 {
		t.Fatalf("layout = %+v", lr)
	}
	sum := 0
	for _, n := range lr.PartitionRows {
		sum += n
	}
	if sum != lr.TotalRows || lr.TotalRows != 2000 {
		t.Fatalf("partition rows sum %d, total %d", sum, lr.TotalRows)
	}

	if resp := getJSON(t, ts.URL+"/v1/tables/nope/layout", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown table layout status %d", resp.StatusCode)
	}
}

func TestStatsEndpointAndQueueDrain(t *testing.T) {
	testleak.Check(t)
	s, ts := newFixtureServer(t, 64)

	const n = 20
	for i := 0; i < n; i++ {
		req := QueryRequest{Table: "orders", Preds: []PredicateJSON{
			{Col: "order_ts", HasLo: true, HasHi: true, LoI: int64(i * 100), HiI: int64(i*100 + 300)},
		}}
		if resp, data := postJSON(t, ts.URL+"/v1/query", req); resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d: %s", i, resp.StatusCode, data)
		}
	}

	// The decision consumer drains asynchronously; poll until it has
	// caught up with every observed query.
	deadline := time.Now().Add(5 * time.Second)
	var st StatsResponse
	for {
		if resp := getJSON(t, ts.URL+"/v1/tables/orders/stats", &st); resp.StatusCode != http.StatusOK {
			t.Fatalf("stats status %d", resp.StatusCode)
		}
		if uint64(st.Queries) == st.Observed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("decision loop never drained: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.Served != n || st.Observed != n || st.Dropped != 0 {
		t.Fatalf("served %d observed %d dropped %d, want %d/%d/0", st.Served, st.Observed, st.Dropped, n, n)
	}
	if st.ServedCostSum <= 0 || st.ServedCostSum > float64(n) {
		t.Errorf("served cost sum %v out of range", st.ServedCostSum)
	}
	if st.QueueCapacity != 64 {
		t.Errorf("queue capacity %d, want 64", st.QueueCapacity)
	}

	// Graceful close drains the queue completely; the decision loop
	// must have seen exactly the observed queries.
	s.Close()
	snap, _ := s.core.Snapshot("orders")
	if uint64(snap.Stats.Queries) != st.Observed {
		t.Errorf("after close: optimizer saw %d queries, observed %d", snap.Stats.Queries, st.Observed)
	}
}

func TestTraceEndpoint(t *testing.T) {
	_, ts := newFixtureServer(t, 64)

	// Fire a few queries so the decision loop runs (it may or may not
	// record events this early; the endpoint must answer either way).
	for i := 0; i < 5; i++ {
		postJSON(t, ts.URL+"/v1/query", QueryRequest{Table: "events", Preds: []PredicateJSON{
			{Col: "user", In: []string{"alice"}},
		}})
	}
	var tr TraceResponse
	if resp := getJSON(t, ts.URL+"/v1/tables/events/trace", &tr); resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d", resp.StatusCode)
	}
	if tr.Table != "events" || tr.Events == nil {
		t.Fatalf("trace = %+v", tr)
	}
	for _, e := range tr.Events {
		if e.Kind == "" {
			t.Fatalf("event without kind: %+v", e)
		}
	}
}

func TestQueueOverloadSamples(t *testing.T) {
	s, ts := newFixtureServer(t, 1)
	_ = ts

	// Saturate a size-1 queue directly through the shard: with the
	// consumer racing, at least one of a burst must be sampled out, and
	// every one must still be answered.
	sh := s.core.shards["orders"]
	const burst = 200
	for i := 0; i < burst; i++ {
		res, err := sh.answer(context.Background(), oreo.Query{ID: i, Preds: []oreo.Predicate{oreo.IntRange("order_ts", 0, 10)}}, false, nil)
		if err != nil {
			t.Fatalf("burst query %d: %v", i, err)
		}
		if res.Cost < 0 || res.Cost > 1 {
			t.Fatalf("burst query %d: bad cost %v", i, res.Cost)
		}
	}
	if got := sh.served.Load(); got != burst {
		t.Fatalf("served %d, want %d", got, burst)
	}
	if obs, drop := sh.observed.Load(), sh.dropped.Load(); obs+drop != burst {
		t.Fatalf("observed %d + dropped %d != %d", obs, drop, burst)
	}
}

// TestServeAfterCloseDoesNotPanic pins the shutdown race: a request
// still in flight when the shards close must be answered (and counted
// as dropped), never panic on the closed observation queue.
func TestServeAfterCloseDoesNotPanic(t *testing.T) {
	s, _ := newFixtureServer(t, 8)
	s.Close()
	sh := s.core.shards["orders"]
	res, err := sh.answer(context.Background(), oreo.Query{Preds: []oreo.Predicate{oreo.IntRange("order_ts", 0, 100)}}, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Observed {
		t.Error("query observed after close")
	}
	if res.Cost < 0 || res.Cost > 1 || len(res.SurvivorPartitions) == 0 {
		t.Errorf("late request not answered properly: %+v", res)
	}
	if sh.dropped.Load() != 1 {
		t.Errorf("dropped = %d, want 1", sh.dropped.Load())
	}
}

// TestCloseIdempotent pins the teardown contract replication hosts
// rely on: a follower process closes its replication follower (which
// closes the replica core) and then its HTTP server (which closes the
// same core again), so Core.Close — and Server.Close over it — must be
// safe to call any number of times, including concurrently with late
// requests.
func TestCloseIdempotent(t *testing.T) {
	testleak.Check(t)
	s, _ := newFixtureServer(t, 8)
	s.Close()
	s.Close()
	s.core.Close() // third pass, through the core directly

	// A replica core with no decision loops must honor the same
	// contract: double-close during follower teardown must not panic.
	rc, err := NewReplicaCore([]ReplicaTable{
		{Name: "orders", Dataset: s.core.shards["orders"].ds},
	}, "", Config{})
	if err != nil {
		t.Fatal(err)
	}
	rc.Close()
	rc.Close()
}

// TestReplicaCoreUnavailableBeforeSnapshot pins the replica cold-start
// contract: every read surface answers 503/unavailable — never a wrong
// or empty answer — until the first snapshot is applied.
func TestReplicaCoreUnavailableBeforeSnapshot(t *testing.T) {
	base, _ := newFixtureServer(t, 8)
	rc, err := NewReplicaCore([]ReplicaTable{
		{Name: "orders", Dataset: base.core.shards["orders"].ds},
	}, "http://leader:8080", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	req := QueryRequest{Table: "orders", Preds: []PredicateJSON{{Col: "order_ts", HasLo: true, LoI: 1}}}
	if _, err := rc.Answer(context.Background(), req); err == nil {
		t.Fatal("Answer before snapshot: want unavailable error")
	} else if e, ok := err.(*Error); !ok || e.Code != CodeUnavailable {
		t.Fatalf("Answer before snapshot: err = %v, want CodeUnavailable", err)
	} else if httpStatus(e) != 503 {
		t.Fatalf("unavailable maps to %d, want 503", httpStatus(e))
	}
	if _, err := rc.Layout("orders"); err == nil {
		t.Fatal("Layout before snapshot: want unavailable error")
	}
	if _, err := rc.Stats("orders"); err == nil {
		t.Fatal("Stats before snapshot: want unavailable error")
	}
	h := rc.Health()
	if h.Status != "initializing" || h.Role != RoleFollower || h.Upstream != "http://leader:8080" {
		t.Fatalf("health = %+v, want initializing follower", h)
	}
	if h.LayoutEpochs["orders"] != 0 {
		t.Fatalf("layout epoch before snapshot = %d, want 0", h.LayoutEpochs["orders"])
	}

	// Applying a snapshot flips the whole surface on.
	pos, ok := base.core.ReplicaPosition("orders")
	if !ok {
		t.Fatal("leader has no position")
	}
	epoch, snap := pos.Epoch, pos.Snapshot
	if _, err := rc.Apply("orders", DecisionUpdate{Kind: UpdateSnapshot, Epoch: epoch + 1, Snapshot: snap, Base: pos.Dataset}); err != nil {
		t.Fatal(err)
	}
	if _, err := rc.Answer(context.Background(), req); err != nil {
		t.Fatalf("Answer after snapshot: %v", err)
	}
	h = rc.Health()
	if h.Status != "ok" || h.LayoutEpochs["orders"] != epoch+1 {
		t.Fatalf("health after snapshot = %+v", h)
	}
}

// TestLeaderHealthEpochs pins the leader half of the lag read: the
// layout epoch is the count of decisions the table's loop processed.
func TestLeaderHealthEpochs(t *testing.T) {
	s, ts := newFixtureServer(t, 64)
	for i := 0; i < 5; i++ {
		resp, data := postJSON(t, ts.URL+"/v1/query", QueryRequest{
			Table: "orders",
			Preds: []PredicateJSON{{Col: "order_ts", HasLo: true, LoI: int64(i * 100)}},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: %s", i, data)
		}
	}
	waitDrained(t, ts.URL, "orders")
	h := s.core.Health()
	if h.Role != RoleLeader {
		t.Fatalf("role = %q", h.Role)
	}
	if h.LayoutEpochs["orders"] != 5 {
		t.Fatalf("orders epoch = %d, want 5", h.LayoutEpochs["orders"])
	}
	if h.LayoutEpochs["events"] != 0 {
		t.Fatalf("events epoch = %d, want 0", h.LayoutEpochs["events"])
	}
}

// TestMethodNotAllowed pins the mux's method discipline: the query
// endpoints are POST-only.
func TestMethodNotAllowed(t *testing.T) {
	_, ts := newFixtureServer(t, 64)
	resp, err := http.Get(ts.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/query status %d, want 405", resp.StatusCode)
	}
}
