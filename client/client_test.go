package client_test

import (
	"context"
	"errors"
	"io"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"oreo"
	"oreo/client"
	"oreo/internal/replica"
	"oreo/internal/serve"
)

// newTestServer boots a real serving stack (Core + HTTP codec) over
// two deterministic fixture tables, so the SDK is tested against the
// actual wire surface, not a mock.
func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()

	events := oreo.NewSchema(
		oreo.Column{Name: "ts", Type: oreo.Int64},
		oreo.Column{Name: "user", Type: oreo.String},
	)
	users := []string{"alice", "bob", "carol"}
	eb := oreo.NewDatasetBuilder(events, 1500)
	for i := 0; i < 1500; i++ {
		eb.AppendRow(oreo.Int(int64(i)), oreo.Str(users[i%3]))
	}

	m := oreo.NewMulti()
	if err := m.AddTable("orders", ordersDataset(), ordersConfig); err != nil {
		t.Fatal(err)
	}
	if err := m.AddTable("events", eb.Build(), oreo.Config{
		Partitions: 8, InitialSort: []string{"ts"}, Seed: 2, TraceCapacity: 32,
	}); err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(m, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return ts
}

// ordersDataset and ordersConfig are the test server's orders table.
func ordersDataset() *oreo.Dataset {
	orders := oreo.NewSchema(
		oreo.Column{Name: "order_ts", Type: oreo.Int64},
		oreo.Column{Name: "status", Type: oreo.String},
		oreo.Column{Name: "amount", Type: oreo.Float64},
	)
	statuses := []string{"cancelled", "delivered", "pending", "returned"}
	ob := oreo.NewDatasetBuilder(orders, 4000)
	for i := 0; i < 4000; i++ {
		ob.AppendRow(oreo.Int(int64(i)), oreo.Str(statuses[i%4]), oreo.Float(float64(i%500)+0.25))
	}
	return ob.Build()
}

var ordersConfig = oreo.Config{Partitions: 16, InitialSort: []string{"order_ts"}, Seed: 1, TraceCapacity: 32}

func newTestClient(t *testing.T) *client.Client {
	t.Helper()
	ts := newTestServer(t)
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// The SDK's stdlib-only dependency contract is enforced by the
// stdlibonly analyzer in internal/analysis (run by `oreovet` in CI),
// which replaced the bespoke go/parser test that used to live here.

func TestQueryAndErrorMapping(t *testing.T) {
	c := newTestClient(t)
	ctx := context.Background()

	results, err := c.Query(ctx, client.Query{
		Table: "orders",
		ID:    42,
		Preds: []client.Predicate{client.IntRange("order_ts", 500, 900)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Table != "orders" || results[0].QueryID != 42 {
		t.Fatalf("results = %+v", results)
	}
	if results[0].Cost <= 0 || len(results[0].SurvivorPartitions) == 0 {
		t.Fatalf("result carries no pruning answer: %+v", results[0])
	}

	// Routed query touches both tables.
	results, err = c.Query(ctx, client.Query{Preds: []client.Predicate{
		client.IntGE("order_ts", 3000),
		client.StrIn("user", "alice", "bob"),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("routed to %d tables, want 2", len(results))
	}

	// Typed error mapping.
	_, err = c.Query(ctx, client.Query{Table: "nope", Preds: []client.Predicate{client.IntGE("x", 1)}})
	if !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("unknown table error = %v, want ErrNotFound", err)
	}
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != 404 || !strings.Contains(apiErr.Message, "unknown table") {
		t.Fatalf("APIError = %+v", apiErr)
	}
	_, err = c.Query(ctx, client.Query{Table: "orders", Preds: []client.Predicate{client.StrEq("ghost", "x")}})
	if !errors.Is(err, client.ErrInvalid) {
		t.Fatalf("unknown column error = %v, want ErrInvalid", err)
	}
}

func TestExecuteAggregates(t *testing.T) {
	c := newTestClient(t)

	results, err := c.Query(context.Background(), client.Query{
		Table:   "orders",
		Execute: true,
		Preds:   []client.Predicate{client.IntRange("order_ts", 100, 199)},
		Aggs:    []client.Aggregate{client.Count(), client.Sum("amount"), client.Min("status")},
	})
	if err != nil {
		t.Fatal(err)
	}
	ex := results[0].Execution
	if ex == nil {
		t.Fatal("no execution in executed result")
	}
	if ex.MatchedRows != 100 {
		t.Fatalf("matched %d rows, want 100", ex.MatchedRows)
	}
	if len(ex.Aggregates) != 3 {
		t.Fatalf("aggregates = %+v", ex.Aggregates)
	}
	// sum(amount) over ts 100..199 = sum(100.25..199.25) = sum(100..199) + 100*0.25.
	if a := ex.Aggregates[1]; a.Type != "float64" || !a.Valid || a.ValueF != 14975 {
		t.Fatalf("sum aggregate = %+v", a)
	}
	if a := ex.Aggregates[2]; a.Type != "string" || a.ValueS != "cancelled" {
		t.Fatalf("min aggregate = %+v", a)
	}
}

// TestConstructorsAgreeWithInProcess answers one query per SDK
// predicate constructor against the test server and checks it against
// the same predicate built by the root package: the cost and survivors
// a fresh in-process Optimizer over the same table reports, and the
// matched rows and max(amount) of a row-at-a-time fold.
func TestConstructorsAgreeWithInProcess(t *testing.T) {
	c := newTestClient(t)
	ds := ordersDataset()
	opt, err := oreo.New(ds, ordersConfig)
	if err != nil {
		t.Fatal(err)
	}
	amount, _ := ds.Schema().Index("amount")
	for _, tc := range []struct {
		name string
		sdk  client.Predicate
		in   oreo.Predicate
	}{
		{"IntRange", client.IntRange("order_ts", 500, 900), oreo.IntRange("order_ts", 500, 900)},
		{"IntGE", client.IntGE("order_ts", 3000), oreo.IntGE("order_ts", 3000)},
		{"IntLE", client.IntLE("order_ts", 99), oreo.IntLE("order_ts", 99)},
		{"FloatRange", client.FloatRange("amount", 10, 20.5), oreo.FloatRange("amount", 10, 20.5)},
		{"FloatGE", client.FloatGE("amount", 450), oreo.FloatGE("amount", 450)},
		{"FloatLE", client.FloatLE("amount", 3), oreo.FloatLE("amount", 3)},
		{"StrEq", client.StrEq("status", "pending"), oreo.StrEq("status", "pending")},
		{"StrIn", client.StrIn("status", "pending", "returned"), oreo.StrIn("status", "pending", "returned")},
	} {
		results, err := c.Query(context.Background(), client.Query{
			Table: "orders", Execute: true,
			Preds: []client.Predicate{tc.sdk},
			Aggs:  []client.Aggregate{client.Count(), client.Max("amount")},
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := results[0]
		q := oreo.Query{Preds: []oreo.Predicate{tc.in}}
		d := opt.ProcessQuery(q)
		if got.Cost != d.Cost || !slices.Equal(got.SurvivorPartitions, d.SurvivorPartitions()) {
			t.Errorf("%s: server cost %v survivors %v, in-process %v %v", tc.name, got.Cost, got.SurvivorPartitions, d.Cost, d.SurvivorPartitions())
		}
		matched, maxAmount := 0, 0.0
		for r := 0; r < ds.NumRows(); r++ {
			if q.MatchRow(ds, r) {
				matched++
				maxAmount = max(maxAmount, ds.Float64At(amount, r))
			}
		}
		ex := got.Execution
		if matched == 0 || ex == nil || ex.MatchedRows != matched || ex.Aggregates[1].ValueF != maxAmount {
			t.Errorf("%s: execution %+v, want %d rows with max(amount) %v", tc.name, ex, matched, maxAmount)
		}
	}
}

func TestBatchPartialFailure(t *testing.T) {
	c := newTestClient(t)

	items, err := c.Batch(context.Background(), []client.Query{
		{ID: 1, Table: "orders", Preds: []client.Predicate{client.IntGE("order_ts", 3500)}},
		{ID: 2, Table: "nope", Preds: []client.Predicate{client.IntGE("order_ts", 1)}},
		{ID: 3, Preds: []client.Predicate{client.StrEq("user", "carol")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 3 {
		t.Fatalf("%d items, want 3", len(items))
	}
	if items[0].Error != "" || items[0].ID != 1 || len(items[0].Results) != 1 {
		t.Fatalf("item 0 = %+v", items[0])
	}
	if items[1].Error == "" || !strings.Contains(items[1].Error, "unknown table") {
		t.Fatalf("item 1 = %+v", items[1])
	}
	if items[2].Error != "" || items[2].Results[0].Table != "events" {
		t.Fatalf("item 2 = %+v", items[2])
	}

	// A whole-batch failure (empty batch) is the call's error.
	if _, err := c.Batch(context.Background(), nil); !errors.Is(err, client.ErrInvalid) {
		t.Fatalf("empty batch error = %v, want ErrInvalid", err)
	}
}

func TestIntrospectionEndpoints(t *testing.T) {
	c := newTestClient(t)
	ctx := context.Background()

	tables, err := c.Tables(ctx)
	if err != nil || len(tables) != 2 || tables[0] != "orders" {
		t.Fatalf("tables = %v, %v", tables, err)
	}
	lay, err := c.Layout(ctx, "orders")
	if err != nil || lay.NumPartitions != 16 || lay.TotalRows != 4000 {
		t.Fatalf("layout = %+v, %v", lay, err)
	}
	if _, err := c.Layout(ctx, "nope"); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("unknown table layout error = %v", err)
	}
	st, err := c.TableStats(ctx, "orders")
	if err != nil || st.Table != "orders" || st.QueueCapacity == 0 {
		t.Fatalf("stats = %+v, %v", st, err)
	}
	tr, err := c.Trace(ctx, "events")
	if err != nil || tr.Table != "events" || tr.Events == nil {
		t.Fatalf("trace = %+v, %v", tr, err)
	}
	h, err := c.Health(ctx)
	if err != nil || h.Status != "ok" || len(h.Tables) != 2 {
		t.Fatalf("health = %+v, %v", h, err)
	}
}

func TestStreamPingPong(t *testing.T) {
	c := newTestClient(t)
	st, err := c.OpenStream(context.Background(), client.WithFlushEvery(1))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// Strict ping-pong: each answer read before the next query goes up.
	for i := 1; i <= 5; i++ {
		if err := st.Send(client.Query{
			ID: i, Table: "orders",
			Preds: []client.Predicate{client.IntRange("order_ts", int64(i*100), int64(i*100+50))},
		}); err != nil {
			t.Fatal(err)
		}
		item, err := st.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if item.ID != i || item.Error != "" || len(item.Results) != 1 {
			t.Fatalf("answer %d = %+v", i, item)
		}
	}
	if err := st.CloseSend(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recv(); err != io.EOF {
		t.Fatalf("after CloseSend: %v, want EOF", err)
	}
	if st.Sent() != 5 {
		t.Fatalf("sent = %d", st.Sent())
	}
}

func TestStreamBadOptionSurfacesTypedError(t *testing.T) {
	ts := newTestServer(t)
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	// flush_every is validated server-side; force a bad value through a
	// custom option to prove non-200 streams surface as typed errors.
	st, err := c.OpenStream(context.Background(), client.WithFlushEvery(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.CloseSend()
	if _, err := st.Recv(); err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("recv on rejected stream = %v, want error", err)
	}
	// The failure is terminal and remembered: a drain loop that keeps
	// calling Recv gets the same error again, never a panic or a hang.
	if _, err := st.Recv(); err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("second recv on rejected stream = %v, want same error", err)
	}
}

// TestReplayUnreachableServer pins the failure path of the whole
// stream machinery: when nothing is listening, Replay (whose deferred
// Close must not block on an exchange that already failed) returns the
// transport error promptly instead of hanging.
func TestReplayUnreachableServer(t *testing.T) {
	c, err := client.New("http://127.0.0.1:1") // port 1: nothing listens
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Replay(context.Background(), []client.Query{
			{ID: 1, Preds: []client.Predicate{client.IntGE("x", 1)}},
		}, nil)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("replay against nothing succeeded")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("replay against an unreachable server hung")
	}
}

func TestReplay(t *testing.T) {
	c := newTestClient(t)

	const n = 300
	queries := make([]client.Query, n)
	for i := range queries {
		switch i % 3 {
		case 0:
			queries[i] = client.Query{ID: i + 1, Table: "orders",
				Preds: []client.Predicate{client.IntRange("order_ts", int64(i*10), int64(i*10+500))}}
		case 1:
			queries[i] = client.Query{ID: i + 1,
				Preds: []client.Predicate{client.StrEq("user", "bob")}}
		default:
			queries[i] = client.Query{ID: i + 1, Table: "orders", Execute: true,
				Preds: []client.Predicate{client.FloatGE("amount", 250)},
				Aggs:  []client.Aggregate{client.Count()}}
		}
	}

	var seen int
	items, err := c.Replay(context.Background(), queries, func(client.BatchItem) { seen++ })
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != n || seen != n {
		t.Fatalf("replay answered %d items (callback saw %d), want %d", len(items), seen, n)
	}
	for i, it := range items {
		if it.Index != i || it.ID != i+1 {
			t.Fatalf("item %d out of order: %+v", i, it)
		}
		if it.Error != "" {
			t.Fatalf("item %d failed: %s", i, it.Error)
		}
		if i%3 == 2 && it.Results[0].Execution == nil {
			t.Fatalf("executed item %d has no execution: %+v", i, it)
		}
	}
}

func TestLoadTrace(t *testing.T) {
	trace := `{"id":1,"preds":[{"col":"order_ts","has_lo":true,"has_hi":true,"lo_i":10,"hi_i":20}]}
{"id":2,"template":3,"preds":[{"col":"user","in":["alice"]}]}
`
	qs, err := client.LoadTrace(strings.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 2 || qs[0].ID != 1 || qs[1].Preds[0].In[0] != "alice" {
		t.Fatalf("trace = %+v", qs)
	}
	if _, err := client.LoadTrace(strings.NewReader("{bad json\n")); err == nil {
		t.Fatal("malformed trace accepted")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := client.New("ftp://host"); err == nil {
		t.Error("ftp scheme accepted")
	}
	if _, err := client.New("http://host:8080/"); err != nil {
		t.Errorf("trailing slash rejected: %v", err)
	}
}

// TestHealthReportsRoleAndEpochs covers the replication-aware fields of
// Health: role, the advertised URL, the fencing term a publisher set,
// and per-table layout epochs that advance with processed queries.
func TestHealthReportsRoleAndEpochs(t *testing.T) {
	orders := oreo.NewSchema(
		oreo.Column{Name: "order_ts", Type: oreo.Int64},
		oreo.Column{Name: "amount", Type: oreo.Float64},
	)
	ob := oreo.NewDatasetBuilder(orders, 2000)
	for i := 0; i < 2000; i++ {
		ob.AppendRow(oreo.Int(int64(i)), oreo.Float(float64(i%100)))
	}
	m := oreo.NewMulti()
	if err := m.AddTable("orders", ob.Build(), oreo.Config{
		Partitions: 8, InitialSort: []string{"order_ts"}, Seed: 1,
	}); err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(m, serve.Config{Advertise: "http://leader.example:8080"})
	if err != nil {
		t.Fatal(err)
	}
	pub, err := replica.NewPublisher(s.Core(), replica.PublisherConfig{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	pub.Mount(s)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	// One served query becomes one decision: epoch 1, once the table's
	// consumer has drained it.
	if _, err := c.Query(ctx, client.Query{
		Table: "orders",
		Preds: []client.Predicate{client.IntRange("order_ts", 10, 500)},
	}); err != nil {
		t.Fatal(err)
	}
	var h *client.Health
	for h == nil || h.LayoutEpochs["orders"] != 1 {
		if h, err = c.Health(ctx); err != nil {
			t.Fatalf("waiting for layout epoch 1: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	if h.Role != "leader" || h.Advertise != "http://leader.example:8080" || h.Generation != 1 {
		t.Fatalf("health role/advertise/generation = %q/%q/%d", h.Role, h.Advertise, h.Generation)
	}
	// The SDK reads the server's own health shape, field for field.
	if want := s.Core().Health().ScanParallelism; want == 0 || h.ScanParallelism != want {
		t.Fatalf("health scan parallelism = %d, server runs %d", h.ScanParallelism, want)
	}
}

// TestAppendCompactRoundTrip drives the live write surface end to end:
// append, immediate visibility, bulk load in batches, explicit
// compaction, and the typed-error contract on bad writes.
func TestAppendCompactRoundTrip(t *testing.T) {
	c := newTestClient(t)
	ctx := context.Background()

	ack, err := c.Append(ctx, "orders", []client.Row{
		{"order_ts": 5000, "status": "new", "amount": 12.5},
		{"order_ts": 5001, "status": "new", "amount": 13.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ack.Table != "orders" || ack.Appended != 2 || ack.DeltaRows != 2 || ack.Epoch == 0 {
		t.Fatalf("append ack = %+v", ack)
	}

	// Acknowledged rows answer queries immediately.
	results, err := c.Query(ctx, client.Query{
		Table:   "orders",
		Preds:   []client.Predicate{client.IntGE("order_ts", 5000)},
		Execute: true,
		Aggs:    []client.Aggregate{client.Count(), client.Sum("amount")},
	})
	if err != nil {
		t.Fatal(err)
	}
	ex := results[0].Execution
	if ex == nil || ex.MatchedRows != 2 || ex.DeltaRows != 2 {
		t.Fatalf("appended rows not visible: %+v", results[0])
	}
	if got := ex.Aggregates[1].ValueF; got != 26 {
		t.Fatalf("sum(amount) over appended rows = %v, want 26", got)
	}

	// BulkLoad splits into ordered batches; the final ack sums them.
	rows := make([]client.Row, 25)
	for i := range rows {
		rows[i] = client.Row{"order_ts": 6000 + i, "status": "bulk", "amount": 1.0}
	}
	ack, err = c.BulkLoad(ctx, "orders", rows, 10)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Appended != 25 || ack.DeltaRows != 27 {
		t.Fatalf("bulk ack = %+v, want appended 25, delta 27", ack)
	}

	// Compact folds everything; a second fold is an empty no-op.
	cr, err := c.Compact(ctx, "orders")
	if err != nil {
		t.Fatal(err)
	}
	if cr.Folded != 27 || cr.DeltaRows != 0 {
		t.Fatalf("compact = %+v, want folded 27", cr)
	}
	lay, err := c.Layout(ctx, "orders")
	if err != nil {
		t.Fatal(err)
	}
	if lay.TotalRows != 4027 || lay.DeltaRows != 0 {
		t.Fatalf("post-compact layout = %+v, want 4027 rows, no delta", lay)
	}
	if cr, err = c.Compact(ctx, "orders"); err != nil || cr.Folded != 0 {
		t.Fatalf("empty compact = %+v, %v", cr, err)
	}

	// Stats and health surface the write counters.
	st, err := c.TableStats(ctx, "orders")
	if err != nil {
		t.Fatal(err)
	}
	if st.RowsAppended != 27 || st.Compactions != 1 || st.DeltaRows != 0 {
		t.Fatalf("stats = appended %d, compactions %d, delta %d", st.RowsAppended, st.Compactions, st.DeltaRows)
	}
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.DeltaRows["orders"] != 0 {
		t.Fatalf("healthz delta_rows = %v", h.DeltaRows)
	}

	// Typed errors: unknown table is ErrNotFound, a malformed row is
	// ErrInvalid, and neither lands anything.
	if _, err := c.Append(ctx, "nope", []client.Row{{"x": 1}}); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("append to unknown table: %v, want ErrNotFound", err)
	}
	if _, err := c.Append(ctx, "orders", []client.Row{{"order_ts": 1}}); !errors.Is(err, client.ErrInvalid) {
		t.Fatalf("append with missing columns: %v, want ErrInvalid", err)
	}
	if _, err := c.Compact(ctx, "nope"); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("compact unknown table: %v, want ErrNotFound", err)
	}
}

// TestBulkLoadPartialFailure pins the mid-load contract: when a later
// batch fails, BulkLoad reports the rows that DID land alongside the
// error.
func TestBulkLoadPartialFailure(t *testing.T) {
	c := newTestClient(t)
	ctx := context.Background()

	rows := make([]client.Row, 30)
	for i := range rows {
		rows[i] = client.Row{"order_ts": 7000 + i, "status": "ok", "amount": 1.0}
	}
	rows[25] = client.Row{"order_ts": "broken"} // poisons the third batch of 10
	ack, err := c.BulkLoad(ctx, "orders", rows, 10)
	if err == nil {
		t.Fatal("poisoned bulk load succeeded")
	}
	if !errors.Is(err, client.ErrInvalid) {
		t.Fatalf("bulk load error = %v, want ErrInvalid", err)
	}
	if ack == nil || ack.Appended != 20 {
		t.Fatalf("partial ack = %+v, want 20 rows landed", ack)
	}
	if !strings.Contains(err.Error(), "after 20 of 30 rows") {
		t.Fatalf("error %q does not name the landed count", err)
	}
}
