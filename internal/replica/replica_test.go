package replica

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"oreo"
	"oreo/internal/exec"
	"oreo/internal/serve"
	"oreo/internal/testleak"
)

// buildOrders builds the deterministic fixture table both sides of a
// cluster load independently: closed-form values, no RNG, so two calls
// yield byte-identical datasets — the precondition replication
// verifies through the statistics-block gate.
func buildOrders(rows int) *oreo.Dataset {
	schema := oreo.NewSchema(
		oreo.Column{Name: "order_ts", Type: oreo.Int64},
		oreo.Column{Name: "status", Type: oreo.String},
		oreo.Column{Name: "amount", Type: oreo.Float64},
	)
	statuses := []string{"cancelled", "delivered", "pending", "returned"}
	b := oreo.NewDatasetBuilder(schema, rows)
	for i := 0; i < rows; i++ {
		b.AppendRow(
			oreo.Int(int64(i)),
			oreo.Str(statuses[i%4]),
			oreo.Float(float64(i%500)+0.25),
		)
	}
	return b.Build()
}

// newLeader boots a leader core over one orders table tuned to
// reorganize eagerly (low alpha, small window), with its publisher and
// an HTTP server exposing both the serving surface and the
// replication endpoints.
func newLeader(t *testing.T, rows int, alpha float64, reorgDelay int) (*serve.Core, *Publisher, *httptest.Server) {
	t.Helper()
	return newArchivingLeader(t, rows, alpha, reorgDelay, "")
}

// newArchivingLeader is newLeader whose publisher archives into dir
// ("" archives nothing).
func newArchivingLeader(t *testing.T, rows int, alpha float64, reorgDelay int, dir string) (*serve.Core, *Publisher, *httptest.Server) {
	t.Helper()
	m := oreo.NewMulti()
	if err := m.AddTable("orders", buildOrders(rows), oreo.Config{
		Alpha:       alpha,
		WindowSize:  40,
		Partitions:  16,
		InitialSort: []string{"order_ts"},
		Seed:        7,
		ReorgDelay:  reorgDelay,
	}); err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(m, serve.Config{QueueSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	pub, err := NewPublisher(srv.Core(), PublisherConfig{Logf: t.Logf, ArchiveDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	pub.Mount(srv)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close(); pub.Close() })
	return srv.Core(), pub, ts
}

// newFollowerFixture boots a follower over its own copy of the fixture
// data, replicating from the leader URL.
func newFollowerFixture(t *testing.T, rows int, upstream string, forward bool) *Follower {
	t.Helper()
	cfg := FollowerConfig{
		Upstream:        upstream,
		Tables:          []TableData{{Name: "orders", Dataset: buildOrders(rows)}},
		Logf:            t.Logf,
		ReconnectMin:    5 * time.Millisecond,
		ReconnectMax:    50 * time.Millisecond,
		ForwardInterval: 5 * time.Millisecond,
		// newLeader's queue, which a promoted follower leads with.
		Serve: serve.Config{QueueSize: 4096},
	}
	if !forward {
		cfg.ForwardQueue = -1
	}
	fol, err := NewFollower(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fol.Close)
	return fol
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// workloadQuery generates a drifting workload: a time-range phase,
// then a value-range phase, then a categorical phase — the drift that
// makes a low-alpha optimizer reorganize repeatedly.
func workloadQuery(i, rows int) serve.QueryRequest {
	switch (i / 45) % 3 {
	case 0:
		lo := int64((i * 131) % (rows - 200))
		return serve.QueryRequest{Table: "orders", Preds: []serve.PredicateJSON{
			{Col: "order_ts", HasLo: true, HasHi: true, LoI: lo, HiI: lo + 199},
		}}
	case 1:
		lo := float64((i * 37) % 400)
		return serve.QueryRequest{Table: "orders", Preds: []serve.PredicateJSON{
			{Col: "amount", HasLo: true, HasHi: true, LoF: lo, HiF: lo + 60},
		}}
	default:
		st := []string{"cancelled", "delivered", "pending", "returned"}[i%4]
		return serve.QueryRequest{Table: "orders", Preds: []serve.PredicateJSON{
			{Col: "status", In: []string{st}},
			{Col: "order_ts", HasLo: true, LoI: int64((i * 53) % rows)},
		}}
	}
}

// probeQueries is the fixed probe set bit-identity is asserted on:
// range, open-range, categorical, conjunctive, and unsatisfiable
// shapes.
func probeQueries(rows int) []oreo.Query {
	return []oreo.Query{
		{Preds: []oreo.Predicate{oreo.IntRange("order_ts", 100, 899)}},
		{Preds: []oreo.Predicate{oreo.IntGE("order_ts", int64(rows-300))}},
		{Preds: []oreo.Predicate{oreo.FloatRange("amount", 120.5, 250)}},
		{Preds: []oreo.Predicate{oreo.StrIn("status", "pending", "returned")}},
		{Preds: []oreo.Predicate{oreo.IntRange("order_ts", 0, int64(rows/2)), oreo.StrEq("status", "delivered")}},
		{Preds: []oreo.Predicate{oreo.IntRange("order_ts", int64(rows+10), int64(rows+20))}},
	}
}

var probeAggs = []exec.AggSpec{
	{Op: exec.AggCount},
	{Op: exec.AggSum, Col: "amount"},
	{Op: exec.AggMin, Col: "status"},
	{Op: exec.AggMax, Col: "order_ts"},
}

// assertBitIdentical asserts the follower's published state answers
// every probe bit-identically to the leader's: same epoch, same
// layout, same stats, bitwise-equal costs, identical survivor
// skip-lists — and, when checkExec is set, bitwise-equal executed
// aggregates over freshly materialized stores on each side.
func assertBitIdentical(t *testing.T, leader, follower *serve.Core, dsL, dsF *oreo.Dataset, rows int, checkExec bool) {
	t.Helper()
	lpos, ok := leader.ReplicaPosition("orders")
	if !ok {
		t.Fatal("leader has no position")
	}
	fpos, ok := follower.ReplicaPosition("orders")
	if !ok {
		t.Fatal("follower has no position")
	}
	le, ls := lpos.Epoch, lpos.Snapshot
	fe, fs := fpos.Epoch, fpos.Snapshot
	if le != fe {
		t.Fatalf("epoch mismatch: leader %d, follower %d", le, fe)
	}
	if ls.Serving.Name != fs.Serving.Name {
		t.Fatalf("epoch %d: serving layout %q on leader, %q on follower", le, ls.Serving.Name, fs.Serving.Name)
	}
	if ls.Stats != fs.Stats {
		t.Fatalf("epoch %d: stats diverge: leader %+v, follower %+v", le, ls.Stats, fs.Stats)
	}
	lp, fp := "", ""
	if ls.Pending != nil {
		lp = ls.Pending.Name
	}
	if fs.Pending != nil {
		fp = fs.Pending.Name
	}
	if lp != fp {
		t.Fatalf("epoch %d: pending layout %q on leader, %q on follower", le, lp, fp)
	}

	for pi, q := range probeQueries(rows) {
		ld := ls.CostQuery(q)
		fd := fs.CostQuery(q)
		if math.Float64bits(ld.Cost) != math.Float64bits(fd.Cost) {
			t.Fatalf("epoch %d probe %d: cost %v on leader, %v on follower", le, pi, ld.Cost, fd.Cost)
		}
		lsv, fsv := ld.SurvivorPartitions(), fd.SurvivorPartitions()
		if !reflect.DeepEqual(lsv, fsv) {
			t.Fatalf("epoch %d probe %d: survivors %v on leader, %v on follower", le, pi, lsv, fsv)
		}
		if !checkExec {
			continue
		}
		lst := exec.MustNewStore(dsL, ls.Serving.Part)
		fst := exec.MustNewStore(dsF, fs.Serving.Part)
		lr, err := lst.Scan(q, lsv, probeAggs, exec.Options{})
		if err != nil {
			t.Fatalf("epoch %d probe %d: leader scan: %v", le, pi, err)
		}
		fr, err := fst.Scan(q, fsv, probeAggs, exec.Options{})
		if err != nil {
			t.Fatalf("epoch %d probe %d: follower scan: %v", le, pi, err)
		}
		if lr.Matched != fr.Matched || lr.RowsExamined != fr.RowsExamined || lr.PartitionsRead != fr.PartitionsRead {
			t.Fatalf("epoch %d probe %d: scan shape diverges: leader %+v, follower %+v", le, pi, lr, fr)
		}
		for ai := range lr.Aggs {
			la, fa := lr.Aggs[ai], fr.Aggs[ai]
			if la.Op != fa.Op || la.Col != fa.Col || la.Type != fa.Type || la.Valid != fa.Valid ||
				la.I != fa.I || math.Float64bits(la.F) != math.Float64bits(fa.F) || la.S != fa.S {
				t.Fatalf("epoch %d probe %d agg %d: %+v on leader, %+v on follower", le, pi, ai, la, fa)
			}
		}
	}
}

// TestFollowerBitIdentityEveryEpoch is the load-bearing property of
// the replication design: replaying a reorganizing workload on the
// leader, the follower's costs, survivor skip-lists, and executed
// aggregates are bitwise equal to the leader's at EVERY epoch —
// including across a forced in-stream re-snapshot (publisher gap
// repair) and a severed-connection reconnect.
func TestFollowerBitIdentityEveryEpoch(t *testing.T) {
	testleak.Check(t)
	const rows = 3000
	const total = 220
	dsL := buildOrders(rows) // shadow copies for execution probes
	dsF := buildOrders(rows)

	leader, pub, ts := newLeader(t, rows, 3 /* reorganize eagerly */, 2)
	fol := newFollowerFixture(t, rows, ts.URL, false)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := fol.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}

	resyncAt, dropAt := total/3, 2*total/3
	for i := 0; i < total; i++ {
		if _, err := leader.Answer(ctx, workloadQuery(i, rows)); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		want := uint64(i + 1)
		waitFor(t, fmt.Sprintf("leader epoch %d", want), func() bool {
			pos, _ := leader.ReplicaPosition("orders")
			return pos.Epoch == want
		})
		waitFor(t, fmt.Sprintf("follower epoch %d", want), func() bool {
			pos, _ := fol.Core().ReplicaPosition("orders")
			return pos.Epoch == want
		})
		// Full bit-identity at every epoch; the (costlier) execution
		// probes every 10 epochs and around the fault injections.
		checkExec := i%10 == 0 || i == resyncAt+1 || i == dropAt+1 || i == total-1
		assertBitIdentical(t, leader, fol.Core(), dsL, dsF, rows, checkExec)

		switch i {
		case resyncAt:
			// Forced gap repair: the publisher discards the subscriber's
			// backlog and re-snapshots in-stream.
			before := fol.stats.snapshots.Load()
			pub.mu.Lock()
			for s := range pub.subs {
				s.markGapped()
			}
			pub.mu.Unlock()
			waitFor(t, "in-stream re-snapshot", func() bool { return fol.stats.snapshots.Load() > before })
		case dropAt:
			// Severed stream: the follower reconnects and negotiates
			// resume-or-snapshot from its current position.
			before := fol.stats.reconnects.Load()
			pub.DropSubscribers()
			waitFor(t, "reconnect", func() bool { return fol.stats.reconnects.Load() > before })
			waitFor(t, "re-sync after reconnect", func() bool {
				pos, _ := fol.Core().ReplicaPosition("orders")
				return pos.Epoch == want && fol.Err() == nil
			})
		}
	}

	if n := fol.stats.snapshots.Load(); n < 2 {
		t.Errorf("snapshots applied = %d, want >= 2 (initial + forced)", n)
	}
	if n := fol.stats.reconnects.Load(); n < 1 {
		t.Errorf("reconnects = %d, want >= 1", n)
	}
	// The workload must actually have reorganized, or the property is
	// vacuous.
	lp, _ := leader.ReplicaPosition("orders")
	snap := lp.Snapshot
	if snap.Stats.Reorganizations == 0 {
		t.Error("workload never reorganized; property not exercised")
	}
	if fol.Err() != nil {
		t.Errorf("follower failed: %v", fol.Err())
	}
}

// TestSubscribeResume pins the resubscribe-with-resume negotiation: a
// follower reconnecting at the leader's exact position gets a cheap
// resume record, not a snapshot.
func TestSubscribeResume(t *testing.T) {
	testleak.Check(t)
	const rows = 1200
	leader, pub, ts := newLeader(t, rows, 80, 0)
	fol := newFollowerFixture(t, rows, ts.URL, false)
	ctx := context.Background()
	if err := fol.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := leader.Answer(ctx, workloadQuery(i, rows)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "catch-up", func() bool { return fol.Position("orders") == 10 })

	snapsBefore := fol.stats.snapshots.Load()
	pub.DropSubscribers()
	waitFor(t, "resume", func() bool { return fol.stats.resumes.Load() >= 1 })
	if got := fol.stats.snapshots.Load(); got != snapsBefore {
		t.Errorf("reconnect at matching position re-sent a snapshot (%d -> %d)", snapsBefore, got)
	}

	// And the stream keeps working after the resume.
	if _, err := leader.Answer(ctx, workloadQuery(11, rows)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "post-resume decision", func() bool { return fol.Position("orders") == 11 })
}

// subscribeFirstRecord opens one raw subscription against a leader URL
// and returns the first record of the stream — the leader's
// resume-or-snapshot verdict on the request's claimed position.
func subscribeFirstRecord(t *testing.T, url string, req SubscribeRequest) *Record {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v2/replication/subscribe", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), maxStreamLine)
	if !sc.Scan() {
		t.Fatalf("subscribe stream ended before the first record: %v", sc.Err())
	}
	var rec Record
	if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
		t.Fatalf("decoding first stream record: %v", err)
	}
	return &rec
}

// TestResumeRequiresBootIdentity pins the resume gate to the boot ID:
// a matching term and position alone must NOT earn a resume, because a
// restarted leader re-reaching old epochs under the same term is a
// forked history — only the exact publisher instance that produced the
// claimed position (same boot ID) may resume a subscriber onto it.
func TestResumeRequiresBootIdentity(t *testing.T) {
	const rows = 1200
	leader, pub, ts := newLeader(t, rows, 80, 0)
	defer pub.DropSubscribers()
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := leader.Answer(ctx, workloadQuery(i, rows)); err != nil {
			t.Fatal(err)
		}
	}
	// The decision loop is asynchronous; let every answer's decision
	// land so the claimed position can't drift mid-test.
	waitFor(t, "decisions applied", func() bool {
		pos, _ := leader.ReplicaPosition("orders")
		return pos.Epoch == 5
	})
	pos, _ := leader.ReplicaPosition("orders")
	base := SubscribeRequest{
		Version:   ProtocolVersion,
		Tables:    []string{"orders"},
		Positions: map[string]uint64{"orders": pos.Epoch},
	}

	// The exact publisher instance at the exact position: resume, and
	// the resume record carries the identity for the next reconnect.
	match := base
	match.Generation, match.Boot = pub.Generation(), pub.boot
	if rec := subscribeFirstRecord(t, ts.URL, match); rec.Type != RecordResume {
		t.Fatalf("matching term+boot+position got %q, want resume", rec.Type)
	} else if rec.Boot != pub.boot {
		t.Fatalf("resume record boot = %q, want the publisher's %q", rec.Boot, pub.boot)
	}

	// Same term and position but another process's boot ID — the
	// restarted-leader case: must re-snapshot, not resume onto a fork.
	forked := base
	forked.Generation, forked.Boot = pub.Generation(), "0000000000000000"
	if rec := subscribeFirstRecord(t, ts.URL, forked); rec.Type != RecordSnapshot {
		t.Fatalf("matching term+position with a foreign boot got %q, want snapshot", rec.Type)
	}

	// A subscriber that never learned a boot ID (fresh, or replaying a
	// pre-boot-ID archive) is re-snapshotted too, never trusted blind.
	legacy := base
	legacy.Generation = pub.Generation()
	if rec := subscribeFirstRecord(t, ts.URL, legacy); rec.Type != RecordSnapshot {
		t.Fatalf("matching term+position with no boot got %q, want snapshot", rec.Type)
	}
}

// TestObservationForwarding closes the upstream loop: queries answered
// only at the follower still reach the leader's decision loop, drive
// reorganizations there, and the resulting layout changes come back to
// the follower — which converges to bit-identity again.
func TestObservationForwarding(t *testing.T) {
	const rows = 3000
	dsL, dsF := buildOrders(rows), buildOrders(rows)
	leader, _, ts := newLeader(t, rows, 3, 0)
	fol := newFollowerFixture(t, rows, ts.URL, true)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := fol.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}

	const total = 150
	for i := 0; i < total; i++ {
		if _, err := fol.Core().Answer(ctx, workloadQuery(i, rows)); err != nil {
			t.Fatalf("follower query %d: %v", i, err)
		}
	}
	// Every query was answered locally and forwarded; the leader's
	// decision loop must see them all (the queue is big enough that
	// none sample out in this test).
	waitFor(t, "leader processed forwarded observations", func() bool {
		pos, _ := leader.ReplicaPosition("orders")
		return pos.Epoch == uint64(total)
	})
	waitFor(t, "follower converged", func() bool {
		return fol.Position("orders") == uint64(total)
	})
	assertBitIdentical(t, leader, fol.Core(), dsL, dsF, rows, true)

	lp, _ := leader.ReplicaPosition("orders")
	snap := lp.Snapshot
	if snap.Stats.Reorganizations == 0 {
		t.Error("forwarded workload never reorganized the leader; loop not exercised")
	}
	if fw := fol.fwd; fw.forwarded.Load() != total {
		t.Errorf("forwarded = %d, want %d (dropped %d, rejected %d)", fw.forwarded.Load(), total, fw.dropped.Load(), fw.rejected.Load())
	}
}

// TestFollowerDataMismatchFailsLoudly pins the integrity gate: a
// follower whose local data differs from the leader's must refuse to
// serve, not answer bit-different costs.
func TestFollowerDataMismatchFailsLoudly(t *testing.T) {
	const rows = 1200
	_, _, ts := newLeader(t, rows, 80, 0)

	// Same shape, one divergent cell (an extreme that moves a
	// partition max) — the statistics block cannot match.
	schema := oreo.NewSchema(
		oreo.Column{Name: "order_ts", Type: oreo.Int64},
		oreo.Column{Name: "status", Type: oreo.String},
		oreo.Column{Name: "amount", Type: oreo.Float64},
	)
	statuses := []string{"cancelled", "delivered", "pending", "returned"}
	b := oreo.NewDatasetBuilder(schema, rows)
	for i := 0; i < rows; i++ {
		amount := float64(i%500) + 0.25
		if i == rows/2 {
			amount = 1e9
		}
		b.AppendRow(oreo.Int(int64(i)), oreo.Str(statuses[i%4]), oreo.Float(amount))
	}

	fol, err := NewFollower(FollowerConfig{
		Upstream:     ts.URL,
		Tables:       []TableData{{Name: "orders", Dataset: b.Build()}},
		Logf:         t.Logf,
		ReconnectMin: time.Millisecond,
		ForwardQueue: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	err = fol.WaitReady(ctx)
	if err == nil {
		t.Fatal("WaitReady succeeded on divergent data")
	}
	if fol.Err() == nil {
		t.Fatal("Err() is nil after divergence")
	}

	// The serving surface must still answer unavailable, never a cost
	// computed from divergent state.
	_, aerr := fol.Core().Answer(ctx, serve.QueryRequest{
		Table: "orders",
		Preds: []serve.PredicateJSON{{Col: "order_ts", HasLo: true, LoI: 1}},
	})
	if aerr == nil {
		t.Fatal("follower served queries despite divergence")
	}
}

// TestFollowerRejectedSubscriptionIsTerminal pins the loud-failure
// contract for unfixable configurations: a leader that permanently
// rejects the subscription (here: a table it does not serve) must fail
// WaitReady promptly, not retry a hopeless subscribe forever.
func TestFollowerRejectedSubscriptionIsTerminal(t *testing.T) {
	const rows = 1200
	_, _, ts := newLeader(t, rows, 80, 0)
	fol, err := NewFollower(FollowerConfig{
		Upstream:     ts.URL,
		Tables:       []TableData{{Name: "not_served", Dataset: buildOrders(rows)}},
		Logf:         t.Logf,
		ReconnectMin: time.Millisecond,
		ForwardQueue: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := fol.WaitReady(ctx); err == nil {
		t.Fatal("WaitReady succeeded for a table the leader does not serve")
	} else if ctx.Err() != nil {
		t.Fatalf("rejection was retried until the context expired instead of failing terminally: %v", err)
	}
}

// TestFollowerHealthAndStats pins the operator surface: role,
// upstream, layout epochs on /healthz semantics via Core.Health, and
// replicated optimizer counters on table stats.
func TestFollowerHealthAndStats(t *testing.T) {
	const rows = 1200
	leader, _, ts := newLeader(t, rows, 80, 0)
	fol := newFollowerFixture(t, rows, ts.URL, true)
	ctx := context.Background()
	if err := fol.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if _, err := leader.Answer(ctx, workloadQuery(i, rows)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "follower at epoch 7", func() bool { return fol.Position("orders") == 7 })

	lh, fh := leader.Health(), fol.Core().Health()
	if lh.Role != serve.RoleLeader || fh.Role != serve.RoleFollower {
		t.Fatalf("roles = %q / %q", lh.Role, fh.Role)
	}
	if fh.Upstream != ts.URL {
		t.Fatalf("follower upstream = %q, want %q", fh.Upstream, ts.URL)
	}
	if lh.LayoutEpochs["orders"] != 7 || fh.LayoutEpochs["orders"] != 7 {
		t.Fatalf("layout epochs: leader %d, follower %d, want 7 both", lh.LayoutEpochs["orders"], fh.LayoutEpochs["orders"])
	}
	if fh.Status != "ok" {
		t.Fatalf("follower status = %q", fh.Status)
	}

	// Follower table stats carry the leader's decision counters next to
	// the follower's own serving counters.
	fstats, err := fol.Core().Stats("orders")
	if err != nil {
		t.Fatal(err)
	}
	if fstats.Queries != 7 {
		t.Errorf("follower stats.queries = %d, want leader's 7", fstats.Queries)
	}
	if fstats.Served != 0 {
		t.Errorf("follower served = %d, want 0 (no local traffic yet)", fstats.Served)
	}

	// A query answered at the follower counts locally and is forwarded.
	if _, err := fol.Core().Answer(ctx, workloadQuery(1, rows)); err != nil {
		t.Fatal(err)
	}
	fstats, _ = fol.Core().Stats("orders")
	if fstats.Served != 1 || fstats.Observed != 1 {
		t.Errorf("follower served/observed = %d/%d, want 1/1", fstats.Served, fstats.Observed)
	}
	// Follower trace is empty by design (decisions live on the leader).
	tr, err := fol.Core().Trace("orders")
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 0 {
		t.Errorf("follower trace has %d events, want 0", len(tr.Events))
	}
}
