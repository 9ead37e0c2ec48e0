package serve

import (
	"context"
	"strings"
	"sync"
	"testing"

	"oreo"
	"oreo/internal/testleak"
)

// newSeededReplicaCore builds a replica core with cfg over the fixture
// leader's own two tables and seeds both from the leader's positions,
// the way a follower's first snapshots would.
func newSeededReplicaCore(t *testing.T, cfg Config) (leader, rc *Core) {
	t.Helper()
	base, _ := newFixtureServer(t, 64)
	leader = base.core
	var tables []ReplicaTable
	for _, name := range leader.Tables() {
		tables = append(tables, ReplicaTable{Name: name, Dataset: leader.shards[name].ds})
	}
	rc, err := NewReplicaCore(tables, "http://leader", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rc.Close)
	for _, name := range leader.Tables() {
		pos, _ := leader.ReplicaPosition(name)
		if _, err := rc.Apply(name, DecisionUpdate{Kind: UpdateSnapshot, Epoch: pos.Epoch, Snapshot: pos.Snapshot, Base: pos.Dataset}); err != nil {
			t.Fatal(err)
		}
	}
	return leader, rc
}

// TestPromoteAllOrNothing pins Promote's contract when a later table's
// engine cannot be built: the error must leave EVERY table a replica —
// no consumer running on the earlier ones, writes still refused, and
// the replication stream still able to advance them.
func TestPromoteAllOrNothing(t *testing.T) {
	testleak.Check(t)
	_, rc := newSeededReplicaCore(t, Config{})
	err := rc.Promote(map[string]oreo.Config{
		"orders": {Partitions: 16, Seed: 1},
		"events": {Partitions: 8, Seed: 2, Alpha: 0.5}, // Alpha must be > 1
	})
	if err == nil || !strings.Contains(err.Error(), "Alpha") {
		t.Fatalf("Promote with an invalid second table: err = %v, want the Alpha rejection", err)
	}
	if rc.Role() != RoleFollower {
		t.Fatalf("role after failed promotion = %q, want follower", rc.Role())
	}
	for _, name := range rc.Tables() {
		_, err := rc.Append(context.Background(), name, []map[string]any{{}})
		if err == nil || !strings.Contains(err.Error(), "is a replica") {
			t.Fatalf("Append to %q after failed promotion: err = %v, want the replica refusal", name, err)
		}
	}
	pos, _ := rc.ReplicaPosition("orders")
	applied, err := rc.Apply("orders", DecisionUpdate{Kind: UpdateDecision, Epoch: pos.Epoch + 1, Snapshot: pos.Snapshot})
	if err != nil || !applied {
		t.Fatalf("stream update after failed promotion: applied=%v err=%v", applied, err)
	}
	if got, _ := rc.ReplicaPosition("orders"); got.Epoch != pos.Epoch+1 {
		t.Fatalf("orders at epoch %d after the stream update, want %d", got.Epoch, pos.Epoch+1)
	}
}

// TestAppendRacesPromote hammers the write path of a follower core
// across its promotion: every Append must either be refused as a
// replica write or land on the new leader, and the role read on that
// path must be synchronized with the flip (run under -race).
func TestAppendRacesPromote(t *testing.T) {
	testleak.Check(t)
	_, rc := newSeededReplicaCore(t, Config{CompactThreshold: -1})
	row := []map[string]any{{"order_ts": 4000, "status": "pending", "amount": 1.5}}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 200; i++ {
				if _, err := rc.Append(context.Background(), "orders", row); err != nil && !strings.Contains(err.Error(), "is a replica") {
					t.Errorf("Append across promotion: %v", err)
					return
				}
			}
		}()
	}
	close(start)
	if err := rc.Promote(map[string]oreo.Config{
		"orders": {Partitions: 16, Seed: 1},
		"events": {Partitions: 8, Seed: 2},
	}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if rc.Role() != RoleLeader {
		t.Fatalf("role = %q, want leader", rc.Role())
	}
	st, err := rc.Stats("orders")
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := rc.Append(context.Background(), "orders", row); err != nil || resp.DeltaRows != int(st.RowsAppended)+1 {
		t.Fatalf("Append on the promoted leader: %+v, %v (appended before: %d)", resp, err, st.RowsAppended)
	}
}

// TestPromotedCoreLeadsWithBootConfig pins where a promoted leader's
// knobs come from: the Config its replica core was built with, resolved
// and validated at construction. Before the flip the core advertises
// nothing; after it, the queue, the compaction threshold and the
// advertised URL are the boot values.
func TestPromotedCoreLeadsWithBootConfig(t *testing.T) {
	testleak.Check(t)
	if _, err := NewReplicaCore([]ReplicaTable{{Name: "orders", Dataset: buildOrdersDet(50)}}, "", Config{QueueSize: -1}); err == nil || !strings.Contains(err.Error(), "QueueSize") {
		t.Fatalf("NewReplicaCore with QueueSize -1: err = %v, want the QueueSize rejection", err)
	}

	_, rc := newSeededReplicaCore(t, Config{QueueSize: 64, CompactThreshold: 100, Advertise: "http://x"})
	if h := rc.Health(); h.Advertise != "" || h.Upstream != "http://leader" {
		t.Fatalf("follower health: advertise %q, upstream %q; want none and the leader", h.Advertise, h.Upstream)
	}
	if err := rc.Promote(map[string]oreo.Config{
		"orders": {Partitions: 16, Seed: 1},
		"events": {Partitions: 8, Seed: 2},
	}); err != nil {
		t.Fatal(err)
	}
	if h := rc.Health(); h.Advertise != "http://x" {
		t.Fatalf("promoted health: advertise %q, want http://x", h.Advertise)
	}
	var body strings.Builder
	rc.Metrics().WriteText(&body)
	if got := sampleValue(t, body.String(), `oreo_observation_queue_capacity{table="orders"}`); got != 64 {
		t.Fatalf("promoted queue capacity = %v, want 64", got)
	}

	row := map[string]any{"order_ts": 4000, "status": "pending", "amount": 1.5}
	rows := make([]map[string]any, 99)
	for i := range rows {
		rows[i] = row
	}
	ctx := context.Background()
	if resp, err := rc.Append(ctx, "orders", rows); err != nil || resp.DeltaRows != 99 {
		t.Fatalf("99 rows below the threshold: %+v, %v; want them in the delta", resp, err)
	}
	if resp, err := rc.Append(ctx, "orders", rows[:1]); err != nil || resp.DeltaRows != 0 {
		t.Fatalf("the 100th row: %+v, %v; want the delta folded", resp, err)
	}
	if d := rc.Health().DeltaRows["orders"]; d != 0 {
		t.Fatalf("delta after the fold = %d, want 0", d)
	}
}
