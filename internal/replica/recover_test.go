package replica

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oreo"
	"oreo/internal/serve"
	"oreo/internal/testleak"
)

// recoverOrders is Recover over the orders fixture with the engine
// config newLeader boots, registered for teardown.
func recoverOrders(t *testing.T, dir string, rows int, alpha float64) (*serve.Core, *Publisher) {
	t.Helper()
	core, pub, err := Recover(dir, []TableData{{Name: "orders", Dataset: buildOrders(rows)}}, 0,
		serve.PromoteConfig{
			QueueSize: 4096,
			Tables:    map[string]serve.PromoteTable{"orders": {Config: ordersPromoteConfig(alpha)}},
		}, PublisherConfig{Logf: t.Logf})
	if err != nil {
		t.Fatalf("recovering from %s: %v", dir, err)
	}
	t.Cleanup(func() { core.Close(); pub.Close() })
	return core, pub
}

// serveReplication exposes a recovered leader's replication endpoints.
func serveReplication(t *testing.T, pub *Publisher) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.Handle("POST /v2/replication/subscribe", pub.SubscribeHandler())
	mux.Handle("POST /v2/replication/observe", pub.ObserveHandler())
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func ordersEpoch(core *serve.Core) uint64 {
	pos, _ := core.ReplicaPosition("orders")
	return pos.Epoch
}

// TestRecoverBitIdentityEveryEpoch is the restart half of the
// replication property — TestPromotionBitIdentityEveryEpoch with an
// archive where the follower was and Recover where Promote was. A
// leader and a never-failed control run the same reorganizing,
// appending, folding schedule; the leader is torn down with no save of
// any kind; Recover, from the archive alone, must stand at the pre-kill
// epoch bit-identical to the control, and stay bit-identical at every
// epoch of the run that follows.
func TestRecoverBitIdentityEveryEpoch(t *testing.T) {
	testleak.Check(t)
	const rows, batch = 2000, 7
	const preOps, postOps = 130, 150
	const total = preOps + postOps
	// The fold at the kill boundary lines the control's engine rebuild up
	// with the recovery's (see TestPromotionBitIdentityEveryEpoch).
	compactAt := map[int]bool{14: true, preOps - 1: true, preOps + 9: true}
	ops := promoteSchedule(total, rows, batch, compactAt)

	dir := t.TempDir()
	leader, _, _ := newArchivingLeader(t, rows, 1.5, 0, dir)
	control := newControlLeader(t, rows, 1.5)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	var want uint64
	syncTo := func(name string, core *serve.Core) {
		t.Helper()
		waitFor(t, fmt.Sprintf("%s epoch %d", name, want), func() bool { return ordersEpoch(core) == want })
	}
	for i := 0; i < preOps; i++ {
		want += applyOp(ctx, t, leader, ops[i], rows, batch)
		applyOp(ctx, t, control, ops[i], rows, batch)
		syncTo("leader", leader)
		syncTo("control", control)
	}
	cpos, _ := control.ReplicaPosition("orders")
	preReorgs := cpos.Snapshot.Stats.Reorganizations
	if preReorgs == 0 {
		t.Fatal("workload never reorganized before the kill; property not exercised")
	}

	// Take the leader away: its memory is gone, the segment files —
	// neither closed nor synced — are all there is.
	leader.Close()

	recovered, pub := recoverOrders(t, dir, rows, 1.5)
	if h := recovered.Health(); h.Role != serve.RoleLeader || h.Generation != 1 || pub.Generation() != 1 {
		t.Fatalf("recovered health = role %q generation %d (publisher %d), want leader at the archived term 1", h.Role, h.Generation, pub.Generation())
	}
	if got := ordersEpoch(recovered); got != want {
		t.Fatalf("recovered at epoch %d, want the pre-kill epoch %d", got, want)
	}
	assertLiveBitIdentical(t, control, recovered, rows, true)

	for i := preOps; i < total; i++ {
		want += applyOp(ctx, t, recovered, ops[i], rows, batch)
		applyOp(ctx, t, control, ops[i], rows, batch)
		syncTo("recovered", recovered)
		syncTo("control", control)
		assertLiveBitIdentical(t, control, recovered, rows, i%10 == 0 || compactAt[i] || i == total-1)
	}
	rpos, _ := recovered.ReplicaPosition("orders")
	if rpos.Dataset.NumRows() <= rows {
		t.Error("recovered leader never grew its base by compaction")
	}
	if rpos.Snapshot.Stats.Reorganizations <= preReorgs {
		t.Errorf("recovered leader never reorganized after the restart (reorgs %d, pre-kill %d); property weakened",
			rpos.Snapshot.Stats.Reorganizations, preReorgs)
	}
}

// TestRecoverKeepsTermAndIsFenced pins the term a restart speaks at: an
// archive written under a generation-3 publisher recovers at generation
// 3 — not 1, which its own followers would fence, and not 4, which only
// a promotion may claim — and a revived leader stays fenced by whoever
// moved past it: a subscriber that has applied generation 4 is refused,
// and a follower that has applied generation 4 rejects the recovered
// leader's records terminally.
func TestRecoverKeepsTermAndIsFenced(t *testing.T) {
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
	dir := t.TempDir()
	pub3, err := NewPublisher(srv.Core(), PublisherConfig{Generation: 3, Logf: t.Logf, ArchiveDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); pub3.Close() })
	for i := 0; i < 5; i++ {
		if _, err := srv.Core().Answer(context.Background(), workloadQuery(i, rows)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "epoch 5", func() bool { return ordersEpoch(srv.Core()) == 5 })
	srv.Close()

	recovered, pub := recoverOrders(t, dir, rows, 80)
	if pub.Generation() != 3 || recovered.Health().Generation != 3 || ordersEpoch(recovered) != 5 {
		t.Fatalf("recovered at generation %d (healthz %d), epoch %d; want the archived term 3 at epoch 5",
			pub.Generation(), recovered.Health().Generation, ordersEpoch(recovered))
	}

	body, _ := json.Marshal(SubscribeRequest{Version: ProtocolVersion, Generation: 4})
	resp, err := http.Post(serveReplication(t, pub).URL+"/v2/replication/subscribe", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("generation-4 subscriber answered %d by the recovered generation-3 leader, want %d", resp.StatusCode, http.StatusBadRequest)
	}

	fol, err := newFollower(FollowerConfig{
		Tables:       []TableData{{Name: "orders", Dataset: buildOrders(rows)}},
		ForwardQueue: -1,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	rec, err := pub.snapshotRecord("orders")
	if err != nil {
		t.Fatal(err)
	}
	ahead := *rec
	ahead.Generation = 4 // the same state, as a promoted successor would have sent it
	if err := fol.apply(&ahead); err != nil || fol.Generation() != 4 {
		t.Fatalf("applying the generation-4 snapshot: %v (follower at generation %d)", err, fol.Generation())
	}
	if err := fol.apply(rec); !errors.Is(err, errFenced) {
		t.Fatalf("generation-4 follower applying the recovered leader's record: %v, want errFenced", err)
	}
}

// TestRecoverRefusals pins what Recover will not come back from, and
// that each refusal returns no core and leaves nothing running.
func TestRecoverRefusals(t *testing.T) {
	testleak.Check(t)
	const rows = 600
	dir := t.TempDir()
	leader, _, _ := newArchivingLeader(t, rows, 80, 0, dir)
	if _, err := leader.Answer(context.Background(), workloadQuery(0, rows)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "epoch 1", func() bool { return ordersEpoch(leader) == 1 })
	leader.Close()

	tables := func(ds *oreo.Dataset, extra ...TableData) []TableData {
		return append([]TableData{{Name: "orders", Dataset: ds}}, extra...)
	}
	cfg := serve.PromoteConfig{QueueSize: 4096, Tables: map[string]serve.PromoteTable{
		"orders": {Config: ordersPromoteConfig(80)},
		"events": {Config: ordersPromoteConfig(80)},
	}}
	attempt := func(dir string, tabs []TableData) error {
		t.Helper()
		core, pub, err := Recover(dir, tabs, 0, cfg, PublisherConfig{Logf: t.Logf})
		if err == nil || core != nil || pub != nil {
			t.Fatalf("Recover(%s) = %v, %v, %v; want an error and nothing else", dir, core, pub, err)
		}
		return err
	}

	// Nothing to come back from: the caller boots cold.
	if err := attempt(filepath.Join(t.TempDir(), "never-created"), tables(buildOrders(rows))); !errors.Is(err, ErrNoArchive) {
		t.Fatalf("missing directory: %v, want ErrNoArchive", err)
	}
	if err := attempt(t.TempDir(), tables(buildOrders(rows))); !errors.Is(err, ErrNoArchive) {
		t.Fatalf("empty directory: %v, want ErrNoArchive", err)
	}
	// An archive recorded over other rows: loud, and not a cold boot.
	if err := attempt(dir, tables(buildOrders(rows+1))); !errors.Is(err, serve.ErrDiverged) {
		t.Fatalf("divergent boot rows: %v, want an error wrapping serve.ErrDiverged", err)
	}
	// A served table the archive never snapshotted: no half-leader.
	err := attempt(dir, tables(buildOrders(rows), TableData{Name: "events", Dataset: buildOrders(rows)}))
	if errors.Is(err, ErrNoArchive) || !strings.Contains(err.Error(), `"events"`) || !strings.Contains(err.Error(), "no snapshot") {
		t.Fatalf("unarchived table: %v, want Promote's unseeded-table error", err)
	}
}

// TestSecondRestartReplaysOnlyTheNewSession pins what keeps restarts
// from compounding: a recovered leader's publisher opens a new segment
// with a fresh snapshot, so the next recovery starts there — it is
// handed that snapshot and what followed it, never the first life's
// records — and still lands on the same epoch with the same bits.
func TestSecondRestartReplaysOnlyTheNewSession(t *testing.T) {
	testleak.Check(t)
	const rows, firstLife, secondLife = 600, 60, 9
	dir := t.TempDir()
	leader, pub, _ := newArchivingLeader(t, rows, 1.5, 0, dir)
	ctx := context.Background()
	// run decides n queries and returns once the last one's record is
	// archived: the publisher counts a record after writing it.
	run := func(core *serve.Core, pub *Publisher, from, n int) {
		t.Helper()
		for i := from; i < from+n; i++ {
			if _, err := core.Answer(ctx, workloadQuery(i, rows)); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, "archive caught up", func() bool { return pub.Published() == uint64(n) })
	}
	run(leader, pub, 0, firstLife)
	leader.Close()

	first, pub := recoverOrders(t, dir, rows, 1.5)
	run(first, pub, firstLife, secondLife)

	delivered, err := replayLive(dir, 0, []string{"orders"}, recordHeader, func(*Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if delivered > 1+secondLife {
		t.Fatalf("second replay delivered %d records, want at most the new session's snapshot + %d", delivered, secondLife)
	}
	second, _ := recoverOrders(t, dir, rows, 1.5)
	if got, want := ordersEpoch(second), uint64(firstLife+secondLife); got != want {
		t.Fatalf("second recovery at epoch %d, want %d", got, want)
	}
	assertLiveBitIdentical(t, first, second, rows, true)
}

// TestAckedAppendsSurviveKill pins "acknowledged ⇒ archived" under
// concurrent writers: eight goroutines append 10-row batches with
// disjoint order_ts ranges to an archiving leader, and mid-stream the
// archive directory is copied byte for byte with nothing closed or
// synced — what kill -9 leaves behind. Recover from the copy must serve
// every row acknowledged before the copy began: the row count, and an
// executed count over each writer's range.
func TestAckedAppendsSurviveKill(t *testing.T) {
	testleak.Check(t)
	const rows, writers, batch, span = 600, 8, 10, 1 << 20
	dir := t.TempDir()
	leader, _, _ := newArchivingLeader(t, rows, 80, 0, dir)
	ctx := context.Background()

	var acked [writers]atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			next := rows + w*span
			for {
				select {
				case <-stop:
					return
				default:
				}
				b := make([]map[string]any, batch)
				for j := range b {
					b[j] = appendRow(next + j)
				}
				ack, err := leader.Append(ctx, "orders", b)
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				next += ack.Appended
				acked[w].Add(int64(ack.Appended))
			}
		}(w)
	}
	total := func() (n int64) {
		for w := range acked {
			n += acked[w].Load()
		}
		return n
	}
	waitFor(t, "acked appends", func() bool { return total() >= 100*batch })

	// Read the acknowledgements first: each was written before its ack
	// returned, so the copy that follows holds at least these rows.
	var want [writers]int64
	for w := range acked {
		want[w] = acked[w].Load()
	}
	crash := t.TempDir()
	segs, err := segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crash, filepath.Base(seg)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	recovered, _ := recoverOrders(t, crash, rows, 80)
	pos, _ := recovered.ReplicaPosition("orders")
	served := pos.Dataset.NumRows() - rows
	if pos.Delta != nil {
		served += pos.Delta.NumRows()
	}
	var sum int64
	for w := range want {
		sum += want[w]
	}
	if int64(served) < sum {
		t.Errorf("recovered leader serves %d appended rows, %d were acknowledged before the kill", served, sum)
	}
	for w := range want {
		lo := int64(rows + w*span)
		res, err := recovered.Answer(ctx, serve.QueryRequest{
			Table: "orders", Execute: true,
			Preds: []serve.PredicateJSON{{Col: "order_ts", HasLo: true, HasHi: true, LoI: lo, HiI: lo + span - 1}},
			Aggs:  []serve.AggregateJSON{{Op: "count"}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := res[0].Execution.MatchedRows; int64(got) < want[w] {
			t.Errorf("writer %d: %d rows served, %d acknowledged before the kill", w, got, want[w])
		}
	}
	t.Logf("%d rows acknowledged before the kill, %d served after Recover", sum, served)
}
