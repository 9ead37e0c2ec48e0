package replica

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"oreo"
	"oreo/internal/serve"
	"oreo/internal/testleak"
)

// ordersEngineConfig is the per-table engine config a promotion
// rebuilds the optimizer with — it must match what newLeader boots so
// the promoted node's decisions stay comparable to a control leader's
// (promote itself overrides Initial and drops InitialSort).
func ordersEngineConfig(alpha float64) oreo.Config {
	return oreo.Config{Alpha: alpha, WindowSize: 40, Partitions: 16, Seed: 7}
}

// newControlLeader boots a leader core identical to newLeader's but
// with no publisher or HTTP surface: the never-failed control run the
// promotion property is asserted against.
func newControlLeader(t *testing.T, rows int, alpha float64) *serve.Core {
	t.Helper()
	m := oreo.NewMulti()
	if err := m.AddTable("orders", buildOrders(rows), oreo.Config{
		Alpha:       alpha,
		WindowSize:  40,
		Partitions:  16,
		InitialSort: []string{"order_ts"},
		Seed:        7,
	}); err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(m, serve.Config{QueueSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv.Core()
}

// promoteOp is one step of the deterministic promotion workload,
// precomputed so the same schedule can be replayed on independent
// cores without shared counters.
type promoteOp struct {
	query   bool
	qi      int // query index (drives workload drift phases)
	base    int // first logical row of an append batch
	compact bool
}

func promoteSchedule(total, rows, batch int, compactAt map[int]bool) []promoteOp {
	ops := make([]promoteOp, total)
	qi, next := 0, rows
	for i := range ops {
		if i%5 == 4 {
			ops[i] = promoteOp{base: next}
			next += batch
		} else {
			ops[i] = promoteOp{query: true, qi: qi}
			qi++
		}
		ops[i].compact = compactAt[i]
	}
	return ops
}

// applyOp replays one scheduled op on a core and returns how many
// epochs it advanced the table.
func applyOp(ctx context.Context, t *testing.T, core *serve.Core, op promoteOp, rows, batch int) uint64 {
	t.Helper()
	if op.query {
		if _, err := core.Answer(ctx, workloadQuery(op.qi, rows)); err != nil {
			t.Fatalf("query %d: %v", op.qi, err)
		}
	} else {
		batchRows := make([]map[string]any, batch)
		for j := range batchRows {
			batchRows[j] = appendRow(op.base + j)
		}
		if _, err := core.Append(ctx, "orders", batchRows); err != nil {
			t.Fatalf("append at row %d: %v", op.base, err)
		}
	}
	advanced := uint64(1)
	if op.compact {
		ack, err := core.Compact(ctx, "orders")
		if err != nil {
			t.Fatalf("compact: %v", err)
		}
		if ack.Folded == 0 {
			t.Fatal("compact folded nothing; schedule broken")
		}
		advanced++
	}
	return advanced
}

// TestPromotionBitIdentityEveryEpoch is the failover half of the
// replication property: replay a reorganizing + appending workload on
// two independent identical leaders — one with a follower attached —
// kill the followed leader mid-stream at a compaction boundary,
// promote the follower, and keep replaying the same ops on the
// promoted leader and the never-failed control. Costs, survivor
// skip-lists, stats, and executed aggregates must be bitwise identical
// at EVERY epoch, before and after the failover: the promoted node's
// rebuilt decision engine continues exactly the run the dead leader
// would have had.
func TestPromotionBitIdentityEveryEpoch(t *testing.T) {
	testleak.Check(t)
	const rows = 2000
	const batch = 7
	const preOps = 130  // ops before the leader dies
	const postOps = 150 // ops the promoted leader serves
	const total = preOps + postOps

	// Compactions: one early on each side of the kill (exercising
	// compaction under replication and again on the promoted leader,
	// while leaving each engine a long uninterrupted run — a compaction
	// rebuild restarts the candidate window, and reorganizations need
	// full windows to trigger), plus one at the kill boundary itself,
	// which synchronizes both sides' engine rebuild with the promotion
	// rebuild.
	compactAt := map[int]bool{14: true, preOps - 1: true, preOps + 9: true}
	ops := promoteSchedule(total, rows, batch, compactAt)

	leader, _, ts := newLeader(t, rows, 1.5 /* reorganize eagerly */, 0)
	control := newControlLeader(t, rows, 1.5)
	fol := newFollowerFixture(t, rows, ts.URL, false)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := fol.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}

	var want uint64
	syncTo := func(name string, pos func() (serve.Position, bool)) {
		t.Helper()
		waitFor(t, fmt.Sprintf("%s epoch %d", name, want), func() bool {
			p, _ := pos()
			return p.Epoch == want
		})
	}

	for i := 0; i < preOps; i++ {
		want += applyOp(ctx, t, leader, ops[i], rows, batch)
		applyOp(ctx, t, control, ops[i], rows, batch)
		syncTo("leader", func() (serve.Position, bool) { return leader.ReplicaPosition("orders") })
		syncTo("control", func() (serve.Position, bool) { return control.ReplicaPosition("orders") })
		syncTo("follower", func() (serve.Position, bool) { return fol.Core().ReplicaPosition("orders") })
		// Control vs follower covers both halves: the two leaders run
		// bit-identically, and the follower replicates bit-identically.
		assertLiveBitIdentical(t, control, fol.Core(), rows, i%10 == 0 || i == preOps-1)
	}
	cpos, _ := control.ReplicaPosition("orders")
	if cpos.Snapshot.Stats.Reorganizations == 0 {
		t.Fatal("workload never reorganized before the kill; property not exercised")
	}
	preReorgs := cpos.Snapshot.Stats.Reorganizations

	// Kill the leader mid-stream: sever every live connection (ending
	// the in-flight subscribe stream) and tear the HTTP surface down so
	// the follower's reconnect loop finds nobody, then promote.
	ts.CloseClientConnections()
	ts.Close()
	if err := fol.Err(); err != nil {
		t.Fatalf("follower failed before promotion: %v", err)
	}
	pub, err := Promote(fol, map[string]oreo.Config{"orders": ordersEngineConfig(1.5)}, PublisherConfig{Logf: t.Logf})
	if err != nil {
		t.Fatalf("promotion: %v", err)
	}
	if got := pub.Generation(); got != 2 {
		t.Fatalf("promoted publisher generation = %d, want 2", got)
	}
	promoted := fol.Core()
	h := promoted.Health()
	if h.Role != serve.RoleLeader || h.Generation != 2 {
		t.Fatalf("promoted health = role %q generation %d, want leader/2", h.Role, h.Generation)
	}

	for i := preOps; i < total; i++ {
		want += applyOp(ctx, t, promoted, ops[i], rows, batch)
		applyOp(ctx, t, control, ops[i], rows, batch)
		syncTo("promoted", func() (serve.Position, bool) { return promoted.ReplicaPosition("orders") })
		syncTo("control", func() (serve.Position, bool) { return control.ReplicaPosition("orders") })
		assertLiveBitIdentical(t, control, promoted, rows, i%10 == 0 || compactAt[i] || i == total-1)
	}

	// The post-failover run must itself have exercised the interesting
	// machinery: the scheduled compaction folded appends on the promoted
	// leader, and the drifting workload kept reorganizing.
	ppos, _ := promoted.ReplicaPosition("orders")
	if ppos.Dataset.NumRows() <= rows {
		t.Error("promoted leader never grew its base by compaction")
	}
	if ppos.Snapshot.Stats.Reorganizations <= preReorgs {
		t.Errorf("promoted leader never reorganized after failover (reorgs %d, pre-kill %d); property weakened",
			ppos.Snapshot.Stats.Reorganizations, preReorgs)
	}
}

// TestPromoteDerivesBootRows pins what a promotion works out for
// itself: configured with nothing but the engine Config, the promoted
// leader frames its snapshots over its own boot source's row count — a
// replica's dataset is its boot source — so a fresh follower booted
// from the same source subscribes to it and reaches its epoch
// bit-identically, over a base that compaction has grown past that
// source on both sides of the promotion. So does a follower that
// bootstraps from the deposed leader's archive: it replays to the
// pre-failover epoch offline, then follows the promoted term.
func TestPromoteDerivesBootRows(t *testing.T) {
	testleak.Check(t)
	const rows, batch, total = 2000, 7, 40
	compactAt := map[int]bool{9: true, 29: true}
	ops := promoteSchedule(total, rows, batch, compactAt)

	dir := t.TempDir()
	leader, _, ts := newArchivingLeader(t, rows, 1.5, 0, dir)
	fol := newFollowerFixture(t, rows, ts.URL, false)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := fol.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	var want uint64
	syncTo := func(name string, core *serve.Core) {
		t.Helper()
		waitFor(t, fmt.Sprintf("%s epoch %d", name, want), func() bool {
			p, _ := core.ReplicaPosition("orders")
			return p.Epoch == want
		})
	}
	for _, op := range ops[:total/2] {
		want += applyOp(ctx, t, leader, op, rows, batch)
	}
	syncTo("follower", fol.Core())

	ts.CloseClientConnections()
	ts.Close()
	pub, err := Promote(fol, map[string]oreo.Config{"orders": ordersEngineConfig(1.5)}, PublisherConfig{Logf: t.Logf})
	if err != nil {
		t.Fatalf("promotion: %v", err)
	}
	promoted := fol.Core()
	if pos, _ := promoted.ReplicaPosition("orders"); pos.SeedRows != rows || pos.Dataset.NumRows() <= rows {
		t.Fatalf("promoted position: boot source %d rows, base %d rows; want %d and a base grown past it",
			pos.SeedRows, pos.Dataset.NumRows(), rows)
	}

	mux := http.NewServeMux()
	mux.Handle("POST /v2/replication/subscribe", pub.SubscribeHandler())
	mux.Handle("POST /v2/replication/observe", pub.ObserveHandler())
	pts := httptest.NewServer(mux)
	t.Cleanup(pts.Close)
	fresh := newFollowerFixture(t, rows, pts.URL, false)
	if err := fresh.WaitReady(ctx); err != nil {
		t.Fatalf("fresh follower of the promoted leader: %v", err)
	}
	archived, err := NewFollower(FollowerConfig{
		Upstream:     pts.URL,
		Tables:       []TableData{{Name: "orders", Dataset: buildOrders(rows)}},
		ArchiveDir:   dir,
		ForwardQueue: -1,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatalf("follower bootstrapped from the deposed leader's archive: %v", err)
	}
	t.Cleanup(archived.Close)
	if got := archived.Position("orders"); got != want {
		t.Fatalf("archive bootstrap reached epoch %d offline, want the pre-failover %d", got, want)
	}
	if err := archived.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	for _, op := range ops[total/2:] {
		want += applyOp(ctx, t, promoted, op, rows, batch)
	}
	syncTo("promoted", promoted)
	syncTo("fresh follower", fresh.Core())
	syncTo("archive-bootstrapped follower", archived.Core())
	assertLiveBitIdentical(t, promoted, fresh.Core(), rows, true)
	assertLiveBitIdentical(t, promoted, archived.Core(), rows, true)
	if archived.Generation() != 2 {
		t.Fatalf("archive-bootstrapped follower at generation %d, want the promoted term 2", archived.Generation())
	}
}

// TestSubscribeFencedByGeneration pins the subscribe-side fence: a
// subscription claiming a term above the leader's own proves the
// leader has been superseded, and is refused outright.
func TestSubscribeFencedByGeneration(t *testing.T) {
	testleak.Check(t)
	_, _, ts := newLeader(t, 600, 80, 0) // publisher at generation 1

	body, _ := json.Marshal(SubscribeRequest{Version: ProtocolVersion, Generation: 2})
	resp, err := http.Post(ts.URL+"/v2/replication/subscribe", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("subscribe from the future answered %d, want %d", resp.StatusCode, http.StatusBadRequest)
	}
}

// TestObserveFencedWithoutStateChange pins the observe-side fence: a
// forwarded observation batch pinned to a different leader term is
// refused whole — 409, counted, and no epoch advances.
func TestObserveFencedWithoutStateChange(t *testing.T) {
	testleak.Check(t)
	const rows = 600
	leader, _, ts := newLeader(t, rows, 80, 0)
	ctx := context.Background()
	if _, err := leader.Answer(ctx, workloadQuery(0, rows)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "epoch 1", func() bool {
		pos, _ := leader.ReplicaPosition("orders")
		return pos.Epoch == 1
	})

	stale, _ := json.Marshal(ObserveRequest{
		Generation: 7, // leader is at term 1
		Observations: []Observation{{
			Table: "orders",
			Preds: []serve.PredicateJSON{{Col: "order_ts", HasLo: true, LoI: 5}},
		}},
	})
	resp, err := http.Post(ts.URL+"/v2/replication/observe", "application/json", strings.NewReader(string(stale)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("fenced observe answered %d, want %d", resp.StatusCode, http.StatusConflict)
	}
	// No state change: the batch never reached a decision loop.
	time.Sleep(20 * time.Millisecond)
	pos, _ := leader.ReplicaPosition("orders")
	if pos.Epoch != 1 {
		t.Fatalf("fenced batch advanced the epoch to %d", pos.Epoch)
	}
	body := scrapeURL(t, ts.URL)
	if got := metricValue(t, body, `oreo_replication_observations_received_total{result="fenced"}`); got != 1 {
		t.Fatalf("fenced counter = %v, want 1", got)
	}
}

// TestFollowerFencesStaleStream pins the record-level fence: a
// follower that has applied term-5 state and later finds itself fed a
// lower-term stream (a revived deposed leader) must reject it
// terminally, with no state change — not apply it, not retry into it.
func TestFollowerFencesStaleStream(t *testing.T) {
	testleak.Check(t)
	const rows = 600
	m := oreo.NewMulti()
	if err := m.AddTable("orders", buildOrders(rows), oreo.Config{
		Alpha: 80, WindowSize: 40, Partitions: 16, InitialSort: []string{"order_ts"}, Seed: 7,
	}); err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(m, serve.Config{QueueSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	pub, err := newPublisher(srv.Core(), PublisherConfig{Logf: t.Logf}, 5)
	if err != nil {
		t.Fatal(err)
	}
	pub.Mount(srv)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })

	// The follower's upstream is a switchable front: first a transparent
	// proxy to the real term-5 leader, then a fake deposed leader that
	// accepts any subscription and streams a term-2 record.
	leaderURL, _ := url.Parse(ts.URL)
	var staleMode atomic.Bool
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !staleMode.Load() {
			rp := httputil.NewSingleHostReverseProxy(leaderURL)
			rp.FlushInterval = -1
			rp.ServeHTTP(w, r)
			return
		}
		pos, _ := srv.Core().ReplicaPosition("orders")
		rec, _ := json.Marshal(Record{Type: RecordResume, Table: "orders", Epoch: pos.Epoch, Generation: 2})
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		w.Write(append(rec, '\n'))
	}))
	t.Cleanup(front.Close)

	fol := newFollowerFixture(t, rows, front.URL, false)
	ctx := context.Background()
	if err := fol.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Core().Answer(ctx, workloadQuery(0, rows)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "follower at epoch 1, term 5", func() bool {
		pos, _ := fol.Core().ReplicaPosition("orders")
		return pos.Epoch == 1 && fol.Generation() == 5
	})

	select {
	case <-fol.Failed():
		t.Fatalf("follower failed before the stale stream: %v", fol.Err())
	default:
	}

	// The fence trips after WaitReady has returned nil, so it must
	// surface through Failed: that is what a serving process waits on.
	staleMode.Store(true)
	pub.DropSubscribers()
	select {
	case <-fol.Failed():
	case <-time.After(20 * time.Second):
		t.Fatal("fenced stream after catch-up never closed Failed")
	}
	if !errors.Is(fol.Err(), errFenced) {
		t.Fatalf("follower error = %v, want errFenced", fol.Err())
	}
	// Fenced, not corrupted: the stale record changed nothing and the
	// follower still serves its last-applied state.
	pos, _ := fol.Core().ReplicaPosition("orders")
	if pos.Epoch != 1 {
		t.Fatalf("stale stream moved the follower to epoch %d", pos.Epoch)
	}
	if fol.Generation() != 5 {
		t.Fatalf("stale stream regressed the follower's term to %d", fol.Generation())
	}
}

// TestSubscriberMetricsUnregisteredOnDisconnect pins the per-subscriber
// series lifecycle: a connected subscriber gets its own labeled
// queue-depth gauge, and a dropped subscriber takes the series with it
// — a churning fleet must not accrete dead label series.
func TestSubscriberMetricsUnregisteredOnDisconnect(t *testing.T) {
	testleak.Check(t)
	const rows = 600
	const series = "oreo_replication_subscriber_queue_depth"
	_, _, ts := newLeader(t, rows, 80, 0)

	fol := newFollowerFixture(t, rows, ts.URL, false)
	if err := fol.WaitReady(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "subscriber series registered", func() bool {
		return strings.Contains(scrapeURL(t, ts.URL), series+`{subscriber="`)
	})

	fol.Close()
	waitFor(t, "subscriber series unregistered", func() bool {
		return !strings.Contains(scrapeURL(t, ts.URL), series)
	})
}
