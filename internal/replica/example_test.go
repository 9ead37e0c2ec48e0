package replica_test

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"time"

	"oreo"
	"oreo/client"
	"oreo/internal/load"
	"oreo/internal/metrics"
	"oreo/internal/replica"
	"oreo/internal/serve"
	"oreo/internal/workload"
)

const exampleRows = 20000

// exampleOrders is deterministic and closed-form: every process loads
// byte-identical data, the precondition replication verifies through
// the snapshot's statistics block.
func exampleOrders() *oreo.Dataset {
	statuses := []string{"cancelled", "delivered", "pending", "returned"}
	b := oreo.NewDatasetBuilder(oreo.NewSchema(
		oreo.Column{Name: "order_ts", Type: oreo.Int64},
		oreo.Column{Name: "status", Type: oreo.String},
		oreo.Column{Name: "amount", Type: oreo.Float64},
	), exampleRows)
	for i := 0; i < exampleRows; i++ {
		b.AppendRow(oreo.Int(int64(i)), oreo.Str(statuses[i%4]), oreo.Float(float64(i%500)+0.25))
	}
	return b.Build()
}

func quiet(string, ...any) {}

// exampleLeader boots a leader over exampleOrders with its decision
// stream mounted, behind an httptest server.
func exampleLeader(cfg oreo.Config) (*serve.Server, *httptest.Server) {
	m := oreo.NewMulti()
	if err := m.AddTable("orders", exampleOrders(), cfg); err != nil {
		panic(err)
	}
	srv, err := serve.New(m, serve.Config{})
	if err != nil {
		panic(err)
	}
	pub, err := replica.NewPublisher(srv.Core(), replica.PublisherConfig{Logf: quiet})
	if err != nil {
		panic(err)
	}
	pub.Mount(srv)
	return srv, httptest.NewServer(srv.Handler())
}

// exampleFollower subscribes a follower to upstream, serves it, and
// returns once it has caught up.
func exampleFollower(upstream string) (*replica.Follower, *httptest.Server) {
	fol, err := replica.NewFollower(replica.FollowerConfig{
		Upstream: upstream,
		Tables:   []replica.TableData{{Name: "orders", Dataset: exampleOrders()}},
		Logf:     quiet,
	})
	if err != nil {
		panic(err)
	}
	if err := fol.WaitReady(context.Background()); err != nil {
		panic(err)
	}
	return fol, httptest.NewServer(serve.NewServer(fol.Core(), serve.Config{}).Handler())
}

// waitUntil polls cond, the way a caller waits on a replication
// position or a counter.
func waitUntil(cond func() bool) {
	for !cond() {
		time.Sleep(time.Millisecond)
	}
}

// waitEpoch waits until a table position reaches want.
func waitEpoch(pos func() uint64, want uint64) {
	waitUntil(func() bool { return pos() >= want })
}

// A leader and two followers share one decision stream. The leader
// runs the optimizer; the followers run none, rebuild the leader's
// layouts on their own copy of the data, serve the full read surface,
// and forward the queries they answer upstream, so a replay at a
// follower moves the leader's epochs and comes back to both followers.
func ExampleFollower() {
	ctx := context.Background()
	leaderSrv, lts := exampleLeader(oreo.Config{
		Alpha: 4, WindowSize: 60, Partitions: 16, InitialSort: []string{"order_ts"}, Seed: 7,
	})
	defer leaderSrv.Close()
	defer lts.Close()
	leader := leaderSrv.Core()
	leaderPos := func() uint64 { pos, _ := leader.ReplicaPosition("orders"); return pos.Epoch }

	var followers []*replica.Follower
	var urls []string
	for i := 0; i < 2; i++ {
		fol, fts := exampleFollower(lts.URL)
		defer fol.Close()
		defer fts.Close()
		followers, urls = append(followers, fol), append(urls, fts.URL)
	}

	// A drifting workload at the leader: time ranges, then value ranges.
	for i := 0; i < 400; i++ {
		req := serve.QueryRequest{Table: "orders"}
		if i < 200 {
			lo := int64((i * 131) % (exampleRows - 1000))
			req.Preds = []serve.PredicateJSON{{Col: "order_ts", HasLo: true, HasHi: true, LoI: lo, HiI: lo + 999}}
		} else {
			lo := float64((i * 37) % 400)
			req.Preds = []serve.PredicateJSON{{Col: "amount", HasLo: true, HasHi: true, LoF: lo, HiF: lo + 40}}
		}
		if _, err := leader.Answer(ctx, req); err != nil {
			panic(err)
		}
	}
	waitEpoch(leaderPos, 400)
	lpos, _ := leader.ReplicaPosition("orders")
	fmt.Printf("leader: epoch %d, layout %q, %d reorganizations\n",
		lpos.Epoch, lpos.Snapshot.Serving.Name, lpos.Snapshot.Stats.Reorganizations)
	for i, fol := range followers {
		waitEpoch(func() uint64 { return fol.Position("orders") }, 400)
		fpos, _ := fol.Core().ReplicaPosition("orders")
		fmt.Printf("follower %d: epoch %d, layout %q\n", i+1, fpos.Epoch, fpos.Snapshot.Serving.Name)
	}

	// An executed replay at follower 1 through the SDK's stream.
	c, err := client.New(urls[0])
	if err != nil {
		panic(err)
	}
	queries := make([]client.Query, 500)
	for i := range queries {
		lo := int64((i * 37) % (exampleRows - 100))
		queries[i] = client.Query{
			Table: "orders", ID: i + 1, Execute: true,
			Preds: []client.Predicate{client.IntRange("order_ts", lo, lo+99)},
		}
	}
	items, err := c.Replay(ctx, queries, nil)
	if err != nil {
		panic(err)
	}
	matched := 0
	for _, it := range items {
		matched += it.Results[0].Execution.MatchedRows
	}
	fmt.Printf("replayed %d executed queries at follower 1: matched %d rows\n", len(items), matched)

	// The replay's forwarded observations drain into the leader's
	// decision loop (epoch 400 → 900) and stream back to both followers.
	waitEpoch(leaderPos, 900)
	for _, fol := range followers {
		waitEpoch(func() uint64 { return fol.Position("orders") }, 900)
	}
	h, err := c.Health(ctx)
	if err != nil {
		panic(err)
	}
	fmt.Printf("follower 1 /healthz: role=%s epoch=%d (leader %d)\n", h.Role, h.LayoutEpochs["orders"], leaderPos())

	// At the shared epoch a follower's answer is bit-identical.
	probe := oreo.Query{Preds: []oreo.Predicate{oreo.IntRange("order_ts", 1000, 4999)}}
	lp, _ := leader.ReplicaPosition("orders")
	fp, _ := followers[0].Core().ReplicaPosition("orders")
	ld, fd := lp.Snapshot.CostQuery(probe), fp.Snapshot.CostQuery(probe)
	fmt.Printf("probe: cost %.6f over %d survivors, bit-identical on the follower: %v\n",
		ld.Cost, len(ld.SurvivorPartitions()),
		math.Float64bits(ld.Cost) == math.Float64bits(fd.Cost) &&
			fmt.Sprint(ld.SurvivorPartitions()) == fmt.Sprint(fd.SurvivorPartitions()))
	// Output:
	// leader: epoch 400, layout "qdtree(cuts=120,leaves=16,w=q0..0,tree=f6a70fdc1ed910ac)", 2 reorganizations
	// follower 1: epoch 400, layout "qdtree(cuts=120,leaves=16,w=q0..0,tree=f6a70fdc1ed910ac)"
	// follower 2: epoch 400, layout "qdtree(cuts=120,leaves=16,w=q0..0,tree=f6a70fdc1ed910ac)"
	// replayed 500 executed queries at follower 1: matched 50000 rows
	// follower 1 /healthz: role=follower epoch=900 (leader 900)
	// probe: cost 0.250000 over 4 survivors, bit-identical on the follower: true
}

// scrape parses one GET /metrics payload.
func scrape(url string) *metrics.Scrape {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	s, err := metrics.ParseText(resp.Body)
	if err != nil {
		panic(err)
	}
	return s
}

// Every serving role mounts GET /metrics, rendered from the same atomic
// counters /stats and /healthz read. Load at a follower shows up on its
// scrape as served queries and forwarded observations, and on the
// leader's as decisions it made without serving a query itself.
// oreo_replication_epoch is one series name on every role, so lag is a
// subtraction across scrapes.
func Example_metrics() {
	ctx := context.Background()
	leaderSrv, lts := exampleLeader(oreo.Config{
		Alpha: 40, WindowSize: 200, Partitions: 16, InitialSort: []string{"order_ts"}, Seed: 7,
	})
	defer leaderSrv.Close()
	defer lts.Close()
	fol, fts := exampleFollower(lts.URL)
	defer fol.Close()
	defer fts.Close()

	// A fixed count of executed queries at the follower, closed loop.
	pool, err := load.BuildPool(workload.FixtureTemplates("orders", exampleRows), "orders", 128, 4, true, 3)
	if err != nil {
		panic(err)
	}
	rep, err := load.Run(ctx, load.Spec{URL: fts.URL, Queries: pool, Count: 600, Concurrency: 8})
	if err != nil {
		panic(err)
	}
	fmt.Printf("load at follower: sent %d, failed %d\n", rep.Sent, rep.Failed)

	// Each answered query is forwarded, decided upstream and applied
	// back; wait until both scrapes have counted all of it.
	orders := map[string]string{"table": "orders"}
	n := float64(rep.Sent)
	waitSeries := func(url, name string, labels map[string]string) {
		waitUntil(func() bool { return scrape(url).Sum(name, labels) == n })
	}
	waitSeries(fts.URL, "oreo_http_request_duration_seconds_count", map[string]string{"endpoint": "query"})
	waitSeries(fts.URL, "oreo_replication_forwarded_total", nil)
	waitSeries(lts.URL, "oreo_decisions_total", orders)
	waitSeries(fts.URL, "oreo_replication_decisions_applied_total", nil)
	fm, lm := scrape(fts.URL), scrape(lts.URL)
	fmt.Printf("follower: served %.0f queries (%.0f http samples), forwarded %.0f, applied %.0f decisions\n",
		fm.Sum("oreo_queries_served_total", orders),
		fm.Sum("oreo_http_request_duration_seconds_count", map[string]string{"endpoint": "query"}),
		fm.Sum("oreo_replication_forwarded_total", nil),
		fm.Sum("oreo_replication_decisions_applied_total", nil))
	fmt.Printf("leader: served %.0f queries, decided %.0f (received %.0f forwarded, %.0f subscriber)\n",
		lm.Sum("oreo_queries_served_total", orders),
		lm.Sum("oreo_decisions_total", orders),
		lm.Sum("oreo_replication_observations_received_total", map[string]string{"result": "observed"}),
		lm.Sum("oreo_replication_subscribers", nil))
	le, fe := lm.Sum("oreo_replication_epoch", orders), fm.Sum("oreo_replication_epoch", orders)
	fmt.Printf("replication epoch: leader %.0f, follower %.0f, lag %.0f\n", le, fe, le-fe)

	// A burst answered in process at the follower drains the same way.
	for i := 0; i < 200; i++ {
		lo := int64(i * 7 % (exampleRows - 500))
		if _, err := fol.Core().Answer(ctx, serve.QueryRequest{Table: "orders", Preds: []serve.PredicateJSON{
			{Col: "order_ts", HasLo: true, HasHi: true, LoI: lo, HiI: lo + 499},
		}}); err != nil {
			panic(err)
		}
	}
	waitEpoch(func() uint64 { return fol.Position("orders") }, rep.Sent+200)
	fm, lm = scrape(fts.URL), scrape(lts.URL)
	fmt.Printf("after a burst of 200: leader epoch %.0f, follower epoch %.0f, leader-side lag gauge %.0f, forward queue %.0f\n",
		lm.Sum("oreo_replication_epoch", orders), fm.Sum("oreo_replication_epoch", orders),
		lm.Sum("oreo_replication_lag_epochs", orders), fm.Sum("oreo_replication_forward_queue_depth", nil))
	// Output:
	// load at follower: sent 600, failed 0
	// follower: served 600 queries (600 http samples), forwarded 600, applied 600 decisions
	// leader: served 0 queries, decided 600 (received 600 forwarded, 1 subscriber)
	// replication epoch: leader 600, follower 600, lag 0
	// after a burst of 200: leader epoch 800, follower epoch 800, leader-side lag gauge 0, forward queue 0
}
