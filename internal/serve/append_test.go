package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"testing"

	"oreo"
)

func mustUnmarshal(t *testing.T, data []byte, out any) {
	t.Helper()
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatalf("decoding %s: %v", data, err)
	}
}

// buildOrdersDet builds a deterministic closed-form orders table so an
// append-grown store and a from-scratch rebuild can be proven to hold
// exactly the same rows.
func buildOrdersDet(rows int) *oreo.Dataset {
	schema := oreo.NewSchema(
		oreo.Column{Name: "order_ts", Type: oreo.Int64},
		oreo.Column{Name: "status", Type: oreo.String},
		oreo.Column{Name: "amount", Type: oreo.Float64},
	)
	return rowsOver(schema, 0, rows)
}

// rowsOver builds logical rows [from, from+n) of the orders fixture over
// the given schema instance.
func rowsOver(schema *oreo.Schema, from, n int) *oreo.Dataset {
	b := oreo.NewDatasetBuilder(schema, n)
	for i := from; i < from+n; i++ {
		b.AppendRow(ordersCells(i)...)
	}
	return b.Build()
}

// ordersCells is the shared row formula: row i of the logical table,
// whether it arrives at boot or through an append.
func ordersCells(i int) []oreo.Value {
	statuses := []string{"cancelled", "delivered", "pending", "returned"}
	return []oreo.Value{
		oreo.Int(int64(i)),
		oreo.Str(statuses[i%4]),
		oreo.Float(float64(i%500) + 0.25),
	}
}

// ordersWireRow is the same row in the append wire shape.
func ordersWireRow(i int) map[string]any {
	statuses := []string{"cancelled", "delivered", "pending", "returned"}
	return map[string]any{
		"order_ts": i,
		"status":   statuses[i%4],
		"amount":   float64(i%500) + 0.25,
	}
}

// newOrdersCore boots a single-table leader core over a deterministic
// orders fixture with the given auto-compaction threshold.
func newOrdersCore(t *testing.T, rows, partitions, threshold int) *Core {
	t.Helper()
	m := oreo.NewMulti()
	if err := m.AddTable("orders", buildOrdersDet(rows), oreo.Config{
		Partitions: partitions, InitialSort: []string{"order_ts"}, Seed: 1,
	}); err != nil {
		t.Fatal(err)
	}
	s, err := New(m, Config{CompactThreshold: threshold})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s.Core()
}

var appendProbeAggs = []AggregateJSON{
	{Op: "count"},
	{Op: "sum", Col: "amount"},
	{Op: "min", Col: "order_ts"},
	{Op: "max", Col: "order_ts"},
	{Op: "max", Col: "status"},
}

// appendProbes exercises range, open-range, categorical, conjunctive,
// unsatisfiable, and appended-region-only query shapes over a logical
// table of n rows of which the last n-boot arrived via append.
func appendProbes(boot, n int) []QueryRequest {
	probes := []QueryRequest{
		{Preds: []PredicateJSON{{Col: "order_ts", HasLo: true, HasHi: true, LoI: 100, HiI: 899}}},
		{Preds: []PredicateJSON{{Col: "order_ts", HasLo: true, LoI: int64(boot - 50)}}},
		{Preds: []PredicateJSON{{Col: "amount", HasLo: true, HasHi: true, LoF: 120.5, HiF: 250}}},
		{Preds: []PredicateJSON{{Col: "status", In: []string{"pending", "returned"}}}},
		{Preds: []PredicateJSON{
			{Col: "order_ts", HasLo: true, HasHi: true, LoI: 0, HiI: int64(n)},
			{Col: "status", In: []string{"delivered"}},
		}},
		{Preds: []PredicateJSON{{Col: "order_ts", HasLo: true, LoI: int64(n + 10)}}},
		{Preds: []PredicateJSON{{Col: "order_ts", HasLo: true, LoI: int64(boot)}}}, // appended region only
	}
	for i := range probes {
		probes[i].Table = "orders"
		probes[i].Execute = true
		probes[i].Aggs = appendProbeAggs
	}
	return probes
}

// TestAppendCompactEquivalentToRebuild is the live-write soundness
// property: a store grown by appends and compactions — ending with a
// NON-empty delta, so the always-scanned segment is genuinely in play —
// answers every executed probe bitwise-identically to a store built
// from scratch over the same logical rows with a different partitioning
// (which also makes it a pruned-vs-differently-pruned equivalence).
func TestAppendCompactEquivalentToRebuild(t *testing.T) {
	const boot, appended, batch = 3000, 240, 40
	ctx := context.Background()

	grown := newOrdersCore(t, boot, 8, -1) // explicit compaction only
	next := boot
	for b := 0; b < appended/batch; b++ {
		rows := make([]map[string]any, batch)
		for j := range rows {
			rows[j] = ordersWireRow(next)
			next++
		}
		ack, err := grown.Append(ctx, "orders", rows)
		if err != nil {
			t.Fatalf("append batch %d: %v", b, err)
		}
		if ack.Appended != batch {
			t.Fatalf("append batch %d: appended %d, want %d", b, ack.Appended, batch)
		}
		// Fold the first half in two compactions; the second half stays
		// in the delta.
		if b == 1 || b == 2 {
			if _, err := grown.Compact(ctx, "orders"); err != nil {
				t.Fatalf("compact after batch %d: %v", b, err)
			}
		}
	}
	pos, _ := grown.ReplicaPosition("orders")
	if pos.Delta == nil || pos.Delta.NumRows() == 0 {
		t.Fatal("test must end with a non-empty delta to exercise the live segment")
	}

	rebuilt := newOrdersCore(t, boot+appended, 5, -1) // same rows, different layout

	for pi, q := range appendProbes(boot, boot+appended) {
		ga, err := grown.Answer(ctx, q)
		if err != nil {
			t.Fatalf("probe %d on grown store: %v", pi, err)
		}
		ra, err := rebuilt.Answer(ctx, q)
		if err != nil {
			t.Fatalf("probe %d on rebuilt store: %v", pi, err)
		}
		ge, re := ga[0].Execution, ra[0].Execution
		if ge.MatchedRows != re.MatchedRows {
			t.Fatalf("probe %d: grown matched %d, rebuilt matched %d", pi, ge.MatchedRows, re.MatchedRows)
		}
		if ge.RowsTotal != re.RowsTotal {
			t.Fatalf("probe %d: grown sees %d total rows, rebuilt %d", pi, ge.RowsTotal, re.RowsTotal)
		}
		for ai := range ge.Aggregates {
			g, r := ge.Aggregates[ai], re.Aggregates[ai]
			if g.Type != r.Type || g.Valid != r.Valid || g.ValueI != r.ValueI ||
				math.Float64bits(g.ValueF) != math.Float64bits(r.ValueF) || g.ValueS != r.ValueS {
				t.Fatalf("probe %d agg %d (%s %s): grown %+v, rebuilt %+v", pi, ai, g.Op, g.Col, g, r)
			}
		}
	}
}

// TestAppendImmediatelyQueryable pins the leader visibility contract
// over the HTTP surface: once the append acknowledges, the rows answer
// queries, and the delta surfaces on execution results, layout, stats,
// and /healthz.
func TestAppendImmediatelyQueryable(t *testing.T) {
	_, ts := newFixtureServer(t, DefaultQueueSize)

	rows := make([]map[string]any, 25)
	for i := range rows {
		rows[i] = map[string]any{"order_ts": 5000 + i, "status": "appended", "amount": 1.5}
	}
	resp, body := postJSON(t, ts.URL+"/v2/tables/orders/append", map[string]any{"rows": rows})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append: status %d: %s", resp.StatusCode, body)
	}

	var qr struct {
		Results []TableResult `json:"results"`
	}
	resp, body = postJSON(t, ts.URL+"/v1/query", map[string]any{
		"table": "orders", "execute": true,
		"preds": []map[string]any{{"col": "order_ts", "has_lo": true, "lo_i": 5000}},
		"aggs":  []map[string]any{{"op": "count"}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: status %d: %s", resp.StatusCode, body)
	}
	mustUnmarshal(t, body, &qr)
	ex := qr.Results[0].Execution
	if ex == nil || ex.MatchedRows != 25 {
		t.Fatalf("appended rows not queryable: %+v", qr.Results[0])
	}
	if ex.DeltaRows != 25 || qr.Results[0].DeltaRows != 25 {
		t.Fatalf("delta not surfaced on execution: %+v", qr.Results[0])
	}

	var lay LayoutResponse
	getJSON(t, ts.URL+"/v1/tables/orders/layout", &lay)
	if lay.DeltaRows != 25 || lay.TotalRows != 4000 {
		t.Fatalf("layout delta=%d total=%d, want 25/4000", lay.DeltaRows, lay.TotalRows)
	}
	var st StatsResponse
	getJSON(t, ts.URL+"/v1/tables/orders/stats", &st)
	if st.RowsAppended != 25 || st.DeltaRows != 25 {
		t.Fatalf("stats rows_appended=%d delta=%d, want 25/25", st.RowsAppended, st.DeltaRows)
	}
	var h HealthResponse
	getJSON(t, ts.URL+"/healthz", &h)
	if h.DeltaRows["orders"] != 25 || h.DeltaRows["events"] != 0 {
		t.Fatalf("healthz delta_rows = %v", h.DeltaRows)
	}
}

// TestCompactEndpoint folds an explicit delta over HTTP and checks the
// layout grew, the delta drained, and an empty-delta fold is a no-op.
func TestCompactEndpoint(t *testing.T) {
	_, ts := newFixtureServer(t, DefaultQueueSize)

	rows := make([]map[string]any, 30)
	for i := range rows {
		rows[i] = map[string]any{"order_ts": 5000 + i, "status": "appended", "amount": 2.5}
	}
	if resp, body := postJSON(t, ts.URL+"/v2/tables/orders/append", map[string]any{"rows": rows}); resp.StatusCode != 200 {
		t.Fatalf("append: %d: %s", resp.StatusCode, body)
	}

	var cr CompactResponse
	resp, body := postJSON(t, ts.URL+"/v2/tables/orders/compact", map[string]any{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compact: status %d: %s", resp.StatusCode, body)
	}
	mustUnmarshal(t, body, &cr)
	if cr.Folded != 30 || cr.DeltaRows != 0 {
		t.Fatalf("compact folded=%d delta=%d, want 30/0", cr.Folded, cr.DeltaRows)
	}
	var lay LayoutResponse
	getJSON(t, ts.URL+"/v1/tables/orders/layout", &lay)
	if lay.TotalRows != 4030 || lay.DeltaRows != 0 {
		t.Fatalf("post-compact layout total=%d delta=%d, want 4030/0", lay.TotalRows, lay.DeltaRows)
	}

	// Folding an empty delta is a success and a no-op.
	resp, body = postJSON(t, ts.URL+"/v2/tables/orders/compact", map[string]any{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("empty compact: status %d: %s", resp.StatusCode, body)
	}
	mustUnmarshal(t, body, &cr)
	if cr.Folded != 0 {
		t.Fatalf("empty compact folded %d rows", cr.Folded)
	}

	var st StatsResponse
	getJSON(t, ts.URL+"/v1/tables/orders/stats", &st)
	if st.Compactions != 1 {
		t.Fatalf("compactions = %d, want 1 (empty fold must not count)", st.Compactions)
	}
}

// TestAutoCompaction pins the threshold trigger: an append that carries
// the delta to the threshold folds it in the same acknowledged epoch.
func TestAutoCompaction(t *testing.T) {
	core := newOrdersCore(t, 1000, 4, 64)
	ctx := context.Background()

	rows := make([]map[string]any, 63)
	for i := range rows {
		rows[i] = ordersWireRow(1000 + i)
	}
	ack, err := core.Append(ctx, "orders", rows)
	if err != nil {
		t.Fatal(err)
	}
	if ack.DeltaRows != 63 {
		t.Fatalf("below threshold: delta %d, want 63", ack.DeltaRows)
	}
	ack, err = core.Append(ctx, "orders", []map[string]any{ordersWireRow(1063)})
	if err != nil {
		t.Fatal(err)
	}
	if ack.DeltaRows != 0 {
		t.Fatalf("at threshold: delta %d, want 0 (auto-compacted)", ack.DeltaRows)
	}
	lay, err := core.Layout("orders")
	if err != nil {
		t.Fatal(err)
	}
	if lay.TotalRows != 1064 || lay.DeltaRows != 0 {
		t.Fatalf("post-auto-compaction layout total=%d delta=%d, want 1064/0", lay.TotalRows, lay.DeltaRows)
	}
}

// TestAppendValidation walks the rejection surface: unknown tables,
// malformed rows, and type mismatches must answer typed client errors
// without landing any rows.
func TestAppendValidation(t *testing.T) {
	_, ts := newFixtureServer(t, DefaultQueueSize)

	cases := []struct {
		name string
		url  string
		body any
		code int
		frag string
	}{
		{"unknown table", "/v2/tables/nope/append",
			map[string]any{"rows": []map[string]any{{"x": 1}}}, 404, `unknown table`},
		{"no rows", "/v2/tables/orders/append",
			map[string]any{"rows": []map[string]any{}}, 400, "no rows"},
		{"missing column", "/v2/tables/orders/append",
			map[string]any{"rows": []map[string]any{{"order_ts": 1, "status": "x"}}}, 400, `missing column`},
		{"unknown column", "/v2/tables/orders/append",
			map[string]any{"rows": []map[string]any{{"order_ts": 1, "status": "x", "amount": 1.0, "extra": 2}}}, 400, `no column`},
		{"fractional int", "/v2/tables/orders/append",
			map[string]any{"rows": []map[string]any{{"order_ts": 1.5, "status": "x", "amount": 1.0}}}, 400, "order_ts"},
		{"type mismatch", "/v2/tables/orders/append",
			map[string]any{"rows": []map[string]any{{"order_ts": 1, "status": 7, "amount": 1.0}}}, 400, "status"},
		{"compact unknown table", "/v2/tables/nope/compact",
			map[string]any{}, 404, `unknown table`},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+tc.url, tc.body)
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.code, body)
		}
		if !strings.Contains(string(body), tc.frag) {
			t.Errorf("%s: body %s, want substring %q", tc.name, body, tc.frag)
		}
	}

	// Nothing above may have landed a row.
	var lay LayoutResponse
	getJSON(t, ts.URL+"/v1/tables/orders/layout", &lay)
	if lay.DeltaRows != 0 || lay.TotalRows != 4000 {
		t.Fatalf("rejected appends landed rows: %+v", lay)
	}
}

// TestAppendInt64Precision pins the json.Number decode path: an int64
// key above 2^53 must land exactly, not rounded through float64.
func TestAppendInt64Precision(t *testing.T) {
	_, ts := newFixtureServer(t, DefaultQueueSize)
	const big = int64(1)<<53 + 1 // 9007199254740993: unrepresentable in float64

	body := fmt.Sprintf(`{"rows":[{"order_ts":%d,"status":"big","amount":0.5}]}`, big)
	resp, err := http.Post(ts.URL+"/v2/tables/orders/append", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append: status %d", resp.StatusCode)
	}

	var qr struct {
		Results []TableResult `json:"results"`
	}
	_, data := postJSON(t, ts.URL+"/v1/query", map[string]any{
		"table": "orders", "execute": true,
		"preds": []map[string]any{{"col": "order_ts", "has_lo": true, "lo_i": 1 << 52}},
		"aggs":  []map[string]any{{"op": "max", "col": "order_ts"}},
	})
	mustUnmarshal(t, data, &qr)
	ex := qr.Results[0].Execution
	if ex.MatchedRows != 1 {
		t.Fatalf("matched %d rows, want 1", ex.MatchedRows)
	}
	if got := ex.Aggregates[0].ValueI; got != big {
		t.Fatalf("max(order_ts) = %d, want %d (float64 round-trip would lose the low bit)", got, big)
	}
}

// TestAppendOnReplicaRejected pins write routing: a follower core must
// refuse appends and compactions with a client error naming the rule.
func TestAppendOnReplicaRejected(t *testing.T) {
	ds := buildOrdersDet(500)
	rc, err := NewReplicaCore([]ReplicaTable{{Name: "orders", Dataset: ds}}, "", Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rc.Close)

	_, err = rc.Append(context.Background(), "orders", []map[string]any{ordersWireRow(500)})
	if e, ok := err.(*Error); !ok || e.Code != CodeInvalid || !strings.Contains(e.Message, "replica") {
		t.Fatalf("append on replica: err = %v, want invalid/replica", err)
	}
	_, err = rc.Compact(context.Background(), "orders")
	if e, ok := err.(*Error); !ok || e.Code != CodeInvalid || !strings.Contains(e.Message, "replica") {
		t.Fatalf("compact on replica: err = %v, want invalid/replica", err)
	}
}
