package client_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"time"

	"oreo"
	"oreo/client"
	"oreo/internal/replica"
	"oreo/internal/serve"
)

// exampleOrders is a closed-form orders table: row i is (i, one of four
// statuses in turn, i%500 + 0.25), so appended rows continue it past
// the boot keyspace with orderRow.
func exampleOrders(rows int) *oreo.Dataset {
	b := oreo.NewDatasetBuilder(oreo.NewSchema(
		oreo.Column{Name: "order_ts", Type: oreo.Int64},
		oreo.Column{Name: "status", Type: oreo.String},
		oreo.Column{Name: "amount", Type: oreo.Float64},
	), rows)
	for i := 0; i < rows; i++ {
		r := orderRow(i)
		b.AppendRow(oreo.Int(int64(i)), oreo.Str(r["status"].(string)), oreo.Float(r["amount"].(float64)))
	}
	return b.Build()
}

func orderRow(i int) client.Row {
	statuses := []string{"cancelled", "delivered", "pending", "returned"}
	return client.Row{"order_ts": i, "status": statuses[i%4], "amount": float64(i%500) + 0.25}
}

// waitUntil polls cond, the way a caller waits on a replication
// position or a drained decision queue.
func waitUntil(cond func() bool) {
	for !cond() {
		time.Sleep(time.Millisecond)
	}
}

// The loop a downstream service embeds: typed predicates in, cost and
// skip-list out; executed aggregates; typed errors; and a bulk replay
// through one /v2/query/stream connection that the decision loop sees
// query by query. The client package imports only the standard library.
func ExampleClient() {
	const rows = 20000
	rng := rand.New(rand.NewSource(1))
	b := oreo.NewDatasetBuilder(oreo.NewSchema(
		oreo.Column{Name: "order_ts", Type: oreo.Int64},
		oreo.Column{Name: "status", Type: oreo.String},
		oreo.Column{Name: "amount", Type: oreo.Float64},
	), rows)
	statuses := []string{"cancelled", "delivered", "pending", "returned"}
	for i := 0; i < rows; i++ {
		b.AppendRow(oreo.Int(int64(i)), oreo.Str(statuses[rng.Intn(len(statuses))]), oreo.Float(rng.Float64()*500))
	}
	m := oreo.NewMulti()
	if err := m.AddTable("orders", b.Build(), oreo.Config{
		Alpha: 40, Partitions: 16, WindowSize: 100,
		InitialSort: []string{"order_ts"}, Seed: 7,
	}); err != nil {
		panic(err)
	}
	srv, err := serve.New(m, serve.Config{})
	if err != nil {
		panic(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Everything below is what a downstream service writes.
	ctx := context.Background()
	c, err := client.New(ts.URL)
	if err != nil {
		panic(err)
	}
	results, err := c.Query(ctx, client.Query{
		Table: "orders",
		Preds: []client.Predicate{client.IntRange("order_ts", 4000, 6000)},
	})
	if err != nil {
		panic(err)
	}
	r := results[0]
	fmt.Printf("layout %q costs %.3f for order_ts in [4000, 6000]; read partitions %v\n",
		r.Layout, r.Cost, r.SurvivorPartitions)

	results, err = c.Query(ctx, client.Query{
		Table:   "orders",
		Execute: true,
		Preds:   []client.Predicate{client.StrIn("status", "pending", "returned")},
		Aggs:    []client.Aggregate{client.Count(), client.Sum("amount")},
	})
	if err != nil {
		panic(err)
	}
	ex := results[0].Execution
	fmt.Printf("executed: %d matched rows, sum(amount) = %.2f (examined %d of %d rows)\n",
		ex.MatchedRows, ex.Aggregates[1].ValueF, ex.RowsExamined, ex.RowsTotal)

	_, err = c.Query(ctx, client.Query{Table: "shipments", Preds: []client.Predicate{client.IntGE("order_ts", 1)}})
	fmt.Println("unknown table is client.ErrNotFound:", errors.Is(err, client.ErrNotFound))

	queries := make([]client.Query, 1000)
	for i := range queries {
		lo := rng.Int63n(rows - 1500)
		queries[i] = client.Query{
			ID: i + 1, Table: "orders",
			Preds: []client.Predicate{client.IntRange("order_ts", lo, lo+1500)},
		}
	}
	items, err := c.Replay(ctx, queries, nil)
	if err != nil {
		panic(err)
	}
	var costSum float64
	for _, it := range items {
		costSum += it.Results[0].Cost
	}
	fmt.Printf("replayed %d queries over one stream; served cost %.1f\n", len(items), costSum)

	// The decision loop saw every query of the replay.
	var st *client.TableStats
	waitUntil(func() bool {
		st, err = c.TableStats(ctx, "orders")
		return err != nil || uint64(st.Queries) == st.Observed
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("server stats: served %d, decided %d, reorganizations %d\n",
		st.Served, st.Queries, st.Reorganizations)
	// Output:
	// layout "sort(order_ts)" costs 0.125 for order_ts in [4000, 6000]; read partitions [3 4]
	// executed: 10067 matched rows, sum(amount) = 2516819.00 (examined 20000 of 20000 rows)
	// unknown table is client.ErrNotFound: true
	// replayed 1000 queries over one stream; served cost 137.1
	// server stats: served 1002, decided 1002, reorganizations 0
}

// Live writes: an append lands in the table's delta segment and is
// queryable the moment it is acknowledged; a bulk load past the
// compaction threshold folds the delta into the base mid-load; an
// explicit Compact folds the rest. A follower replays every append and
// compaction in epoch order and answers bit-identically.
func ExampleClient_BulkLoad() {
	const rows = 20000
	ctx := context.Background()
	m := oreo.NewMulti()
	if err := m.AddTable("orders", exampleOrders(rows), oreo.Config{
		Alpha: 4, WindowSize: 60, Partitions: 16,
		InitialSort: []string{"order_ts"}, Seed: 7,
	}); err != nil {
		panic(err)
	}
	leaderSrv, err := serve.New(m, serve.Config{CompactThreshold: 4000})
	if err != nil {
		panic(err)
	}
	defer leaderSrv.Close()
	pub, err := replica.NewPublisher(leaderSrv.Core(), replica.PublisherConfig{Logf: func(string, ...any) {}})
	if err != nil {
		panic(err)
	}
	pub.Mount(leaderSrv)
	ts := httptest.NewServer(leaderSrv.Handler())
	defer ts.Close()

	fol, err := replica.NewFollower(replica.FollowerConfig{
		Upstream: ts.URL,
		Tables:   []replica.TableData{{Name: "orders", Dataset: exampleOrders(rows)}},
		Logf:     func(string, ...any) {},
	})
	if err != nil {
		panic(err)
	}
	defer fol.Close()
	if err := fol.WaitReady(ctx); err != nil {
		panic(err)
	}
	c, err := client.New(ts.URL)
	if err != nil {
		panic(err)
	}

	ack, err := c.Append(ctx, "orders", []client.Row{orderRow(rows), orderRow(rows + 1), orderRow(rows + 2)})
	if err != nil {
		panic(err)
	}
	fmt.Printf("appended %d rows at epoch %d (delta now %d rows)\n", ack.Appended, ack.Epoch, ack.DeltaRows)
	res, err := c.Query(ctx, client.Query{
		Table: "orders", Execute: true,
		Preds: []client.Predicate{client.IntGE("order_ts", rows)},
		Aggs:  []client.Aggregate{client.Count(), client.Sum("amount")},
	})
	if err != nil {
		panic(err)
	}
	ex := res[0].Execution
	fmt.Printf("query over appended keys: matched %d rows (%d from the delta), sum(amount) = %v\n",
		ex.MatchedRows, ex.DeltaRows, ex.Aggregates[1].ValueF)

	bulk := make([]client.Row, 6000)
	for i := range bulk {
		bulk[i] = orderRow(rows + 3 + i)
	}
	back, err := c.BulkLoad(ctx, "orders", bulk, 1000)
	if err != nil {
		panic(err)
	}
	lay, err := c.Layout(ctx, "orders")
	if err != nil {
		panic(err)
	}
	st, err := c.TableStats(ctx, "orders")
	if err != nil {
		panic(err)
	}
	fmt.Printf("bulk-loaded %d rows: base %d rows in %d partitions, delta %d rows, %d automatic compaction\n",
		back.Appended, lay.TotalRows, lay.NumPartitions, lay.DeltaRows, st.Compactions)

	cack, err := c.Compact(ctx, "orders")
	if err != nil {
		panic(err)
	}
	if lay, err = c.Layout(ctx, "orders"); err != nil {
		panic(err)
	}
	fmt.Printf("explicit compact folded %d rows: base %d, delta %d\n", cack.Folded, lay.TotalRows, lay.DeltaRows)

	leader := leaderSrv.Core()
	lpos, _ := leader.ReplicaPosition("orders")
	waitUntil(func() bool { return fol.Position("orders") == lpos.Epoch })
	fpos, _ := fol.Core().ReplicaPosition("orders")
	fmt.Printf("follower at epoch %d: base %d rows (leader %d)\n",
		fpos.Epoch, fpos.Dataset.NumRows(), lpos.Dataset.NumRows())

	probe := serve.QueryRequest{
		Table: "orders", Execute: true,
		Preds: []serve.PredicateJSON{{Col: "order_ts", HasLo: true, LoI: int64(rows - 100)}},
		Aggs:  []serve.AggregateJSON{{Op: "count"}, {Op: "sum", Col: "amount"}},
	}
	lr, err := leader.Answer(ctx, probe)
	if err != nil {
		panic(err)
	}
	fr, err := fol.Core().Answer(ctx, probe)
	if err != nil {
		panic(err)
	}
	le, fe := lr[0].Execution, fr[0].Execution
	fmt.Printf("probe: leader matched %d (sum %v), bit-identical on the follower: %v\n",
		le.MatchedRows, le.Aggregates[1].ValueF,
		le.MatchedRows == fe.MatchedRows &&
			math.Float64bits(le.Aggregates[1].ValueF) == math.Float64bits(fe.Aggregates[1].ValueF))
	// Output:
	// appended 3 rows at epoch 1 (delta now 3 rows)
	// query over appended keys: matched 3 rows (3 from the delta), sum(amount) = 3.75
	// bulk-loaded 6000 rows: base 24003 rows in 16 partitions, delta 2000 rows, 1 automatic compaction
	// explicit compact folded 2000 rows: base 26003, delta 0
	// follower at epoch 10: base 26003 rows (leader 26003)
	// probe: leader matched 6103 (sum 1.54347875e+06), bit-identical on the follower: true
}
