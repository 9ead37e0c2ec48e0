package replica

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"oreo"
	"oreo/internal/exec"
	"oreo/internal/serve"
	"oreo/internal/testleak"
)

// appendRow builds the i-th logical orders row in the append wire
// shape — the same closed form buildOrders uses, so appended rows
// continue the fixture seamlessly.
func appendRow(i int) map[string]any {
	statuses := []string{"cancelled", "delivered", "pending", "returned"}
	return map[string]any{
		"order_ts": i,
		"status":   statuses[i%4],
		"amount":   float64(i%500) + 0.25,
	}
}

// liveProbes is probeQueries plus shapes that land only in appended
// rows, so the probes cannot pass vacuously while the delta is empty.
func liveProbes(rows int) []oreo.Query {
	return append(probeQueries(rows),
		oreo.Query{Preds: []oreo.Predicate{oreo.IntGE("order_ts", int64(rows))}},
		oreo.Query{Preds: []oreo.Predicate{oreo.IntRange("order_ts", int64(rows-100), int64(rows+100))}},
	)
}

// assertLiveBitIdentical is assertBitIdentical for a cluster taking
// live writes: the execution stores are built over each side's CURRENT
// base (grown by compactions) and scanned with its current delta, so
// the property covers appended rows at every stage of their lifecycle.
func assertLiveBitIdentical(t *testing.T, leader, follower *serve.Core, rows int, checkExec bool) {
	t.Helper()
	lpos, ok := leader.ReplicaPosition("orders")
	if !ok {
		t.Fatal("leader has no position")
	}
	fpos, ok := follower.ReplicaPosition("orders")
	if !ok {
		t.Fatal("follower has no position")
	}
	if lpos.Epoch != fpos.Epoch {
		t.Fatalf("epoch mismatch: leader %d, follower %d", lpos.Epoch, fpos.Epoch)
	}
	le, ls, fs := lpos.Epoch, lpos.Snapshot, fpos.Snapshot
	if ls.Serving.Name != fs.Serving.Name {
		t.Fatalf("epoch %d: serving layout %q on leader, %q on follower", le, ls.Serving.Name, fs.Serving.Name)
	}
	if ls.Stats != fs.Stats {
		t.Fatalf("epoch %d: stats diverge: leader %+v, follower %+v", le, ls.Stats, fs.Stats)
	}
	if lpos.Dataset.NumRows() != fpos.Dataset.NumRows() {
		t.Fatalf("epoch %d: base is %d rows on leader, %d on follower", le, lpos.Dataset.NumRows(), fpos.Dataset.NumRows())
	}
	ld, fd := 0, 0
	if lpos.Delta != nil {
		ld = lpos.Delta.NumRows()
	}
	if fpos.Delta != nil {
		fd = fpos.Delta.NumRows()
	}
	if ld != fd {
		t.Fatalf("epoch %d: delta is %d rows on leader, %d on follower", le, ld, fd)
	}

	for pi, q := range liveProbes(rows) {
		lc := ls.CostQuery(q)
		fc := fs.CostQuery(q)
		if math.Float64bits(lc.Cost) != math.Float64bits(fc.Cost) {
			t.Fatalf("epoch %d probe %d: cost %v on leader, %v on follower", le, pi, lc.Cost, fc.Cost)
		}
		lsv, fsv := lc.SurvivorPartitions(), fc.SurvivorPartitions()
		if !reflect.DeepEqual(lsv, fsv) {
			t.Fatalf("epoch %d probe %d: survivors %v on leader, %v on follower", le, pi, lsv, fsv)
		}
		if !checkExec {
			continue
		}
		lst := exec.MustNewStore(lpos.Dataset, ls.Serving.Part)
		fst := exec.MustNewStore(fpos.Dataset, fs.Serving.Part)
		lr, err := lst.Scan(q, lsv, probeAggs, exec.Options{Delta: lpos.Delta})
		if err != nil {
			t.Fatalf("epoch %d probe %d: leader scan: %v", le, pi, err)
		}
		fr, err := fst.Scan(q, fsv, probeAggs, exec.Options{Delta: fpos.Delta})
		if err != nil {
			t.Fatalf("epoch %d probe %d: follower scan: %v", le, pi, err)
		}
		if lr.Matched != fr.Matched || lr.RowsExamined != fr.RowsExamined ||
			lr.PartitionsRead != fr.PartitionsRead || lr.DeltaRows != fr.DeltaRows {
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

// TestFollowerLiveWritesBitIdentity extends the every-epoch bit-identity
// property to the live write path: interleaving queries, appends, and
// compactions on the leader — with a forced in-stream re-snapshot while
// the delta is non-empty — the follower's costs, survivor skip-lists,
// delta segment, grown base, and executed aggregates stay bitwise equal
// to the leader's at EVERY epoch.
func TestFollowerLiveWritesBitIdentity(t *testing.T) {
	testleak.Check(t)
	const rows = 2000
	const total = 150
	const batch = 7

	leader, pub, ts := newLeader(t, rows, 1.5 /* reorganize eagerly */, 0)
	fol := newFollowerFixture(t, rows, ts.URL, false)
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	if err := fol.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}

	resyncAt := total / 3  // forced re-snapshot mid-append (delta non-empty there)
	compactAt := total / 5 // first explicit fold, early so the post-reset window refills
	var want uint64
	next := rows // next logical row to append
	qi := 0      // query index: drives workload phases, so the drift that
	// forces reorganizations spans full windows even with appends mixed in
	for i := 0; i < total; i++ {
		if i%5 == 4 {
			batchRows := make([]map[string]any, batch)
			for j := range batchRows {
				batchRows[j] = appendRow(next)
				next++
			}
			if _, err := leader.Append(ctx, "orders", batchRows); err != nil {
				t.Fatalf("append at op %d: %v", i, err)
			}
		} else {
			if _, err := leader.Answer(ctx, workloadQuery(qi, rows)); err != nil {
				t.Fatalf("query %d: %v", qi, err)
			}
			qi++
		}
		want++
		if i == compactAt || i == total-10 {
			ack, err := leader.Compact(ctx, "orders")
			if err != nil {
				t.Fatalf("compact at op %d: %v", i, err)
			}
			if ack.Folded == 0 {
				t.Fatalf("compact at op %d folded nothing; schedule broken", i)
			}
			want++
		}
		waitFor(t, fmt.Sprintf("leader epoch %d", want), func() bool {
			pos, _ := leader.ReplicaPosition("orders")
			return pos.Epoch == want
		})
		waitFor(t, fmt.Sprintf("follower epoch %d", want), func() bool {
			pos, _ := fol.Core().ReplicaPosition("orders")
			return pos.Epoch == want
		})
		checkExec := i%8 == 0 || i%5 == 4 || i == compactAt || i == resyncAt+1 || i >= total-2
		assertLiveBitIdentical(t, leader, fol.Core(), rows, checkExec)

		if i == resyncAt {
			// Forced gap repair while appended rows sit uncompacted: the
			// in-stream snapshot must carry the delta (and any compacted
			// tail) for the follower to land on identical rows.
			lpos, _ := leader.ReplicaPosition("orders")
			if lpos.Delta == nil || lpos.Delta.NumRows() == 0 {
				t.Fatal("resync scheduled on an empty delta; mid-append property not exercised")
			}
			before := fol.stats.snapshots.Load()
			pub.mu.Lock()
			for s := range pub.subs {
				s.markGapped()
			}
			pub.mu.Unlock()
			waitFor(t, "in-stream re-snapshot", func() bool { return fol.stats.snapshots.Load() > before })
			assertLiveBitIdentical(t, leader, fol.Core(), rows, true)
		}
	}

	// The run must have exercised every record kind and left the final
	// state grown: base past the boot source, delta non-empty.
	st := &fol.stats
	if st.appends.Load() == 0 || st.compactions.Load() < 2 || st.snapshots.Load() < 2 {
		t.Errorf("stats = appends %d, compactions %d, snapshots %d; want >0, >=2, >=2",
			st.appends.Load(), st.compactions.Load(), st.snapshots.Load())
	}
	lpos, _ := leader.ReplicaPosition("orders")
	if lpos.Dataset.NumRows() <= rows {
		t.Error("compactions never grew the base")
	}
	if lpos.Delta == nil || lpos.Delta.NumRows() == 0 {
		t.Error("run must end with a non-empty delta")
	}
	if lpos.Snapshot.Stats.Reorganizations == 0 {
		t.Error("workload never reorganized; interleaving not exercised")
	}
	if fol.Err() != nil {
		t.Errorf("follower failed: %v", fol.Err())
	}
}

// TestFollowerRestartWarmStartsFromDataSnapshot pins the subscribe-time
// snapshot's data section: a follower joining AFTER the leader has
// compacted appends into its base and accumulated a fresh delta must
// converge bit-identically from the snapshot alone — its boot dataset
// differs from the leader's current base by both the tail and the delta.
func TestFollowerLateJoinAfterWrites(t *testing.T) {
	const rows = 1500
	leader, _, ts := newLeader(t, rows, 80 /* stable layout */, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	next := rows
	for b := 0; b < 4; b++ {
		batchRows := make([]map[string]any, 25)
		for j := range batchRows {
			batchRows[j] = appendRow(next)
			next++
		}
		if _, err := leader.Append(ctx, "orders", batchRows); err != nil {
			t.Fatal(err)
		}
		if b == 1 {
			if _, err := leader.Compact(ctx, "orders"); err != nil {
				t.Fatal(err)
			}
		}
	}

	fol := newFollowerFixture(t, rows, ts.URL, false)
	if err := fol.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	lpos, _ := leader.ReplicaPosition("orders")
	waitFor(t, "late joiner catch-up", func() bool {
		pos, _ := fol.Core().ReplicaPosition("orders")
		return pos.Epoch == lpos.Epoch
	})
	if lpos.Dataset.NumRows() != rows+50 || lpos.Delta.NumRows() != 50 {
		t.Fatalf("leader shape: base %d delta %d, want %d/50", lpos.Dataset.NumRows(), lpos.Delta.NumRows(), rows+50)
	}
	assertLiveBitIdentical(t, leader, fol.Core(), rows, true)
}
