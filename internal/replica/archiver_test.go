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
	"testing"
	"time"

	"oreo"
	"oreo/internal/serve"
	"oreo/internal/testleak"
)

// TestArchiverRoundTripAndBootstrap is the archival contract end to
// end: a working leader archives its own stream; a fresh follower
// pointed at the archive reaches the fleet's epoch by replay alone —
// its first live subscription is answered with a cheap resume, never a
// leader snapshot — and serves bit-identically.
func TestArchiverRoundTripAndBootstrap(t *testing.T) {
	testleak.Check(t)
	const rows = 1200
	const batch = 7
	dir := t.TempDir()
	leader, pub, ts := newArchivingLeader(t, rows, 80 /* stable layout */, 0, dir)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Queries, appends, and a compaction: the archive must carry every
	// record kind through a bootstrap.
	var want uint64
	next := rows
	for i := 0; i < 40; i++ {
		if i%5 == 4 {
			batchRows := make([]map[string]any, batch)
			for j := range batchRows {
				batchRows[j] = appendRow(next)
				next++
			}
			if _, err := leader.Append(ctx, "orders", batchRows); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := leader.Answer(ctx, workloadQuery(i, rows)); err != nil {
				t.Fatal(err)
			}
		}
		want++
		if i == 24 {
			if _, err := leader.Compact(ctx, "orders"); err != nil {
				t.Fatal(err)
			}
			want++
		}
	}
	// Every epoch is one record, counted once it is written.
	waitFor(t, fmt.Sprintf("archive at epoch %d", want), func() bool { return pub.Published() == want })

	// Point-in-time replay: bounding the replay must deliver only
	// records at or below the bound.
	mid := want / 2
	n, err := replayLive(dir, mid, nil, func(rec *Record) error {
		if rec.Epoch > mid {
			return fmt.Errorf("record at epoch %d leaked past bound %d", rec.Epoch, mid)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || uint64(n) > mid+1 {
		t.Fatalf("bounded replay delivered %d records, want 1..%d", n, mid+1)
	}

	// Bootstrap: a fresh follower replays the archive offline and its
	// first subscription resumes. Exactly one snapshot may be applied —
	// the archived one; a second would mean the leader was asked to cut
	// a new one, the cost the archive exists to avoid.
	fol, err := NewFollower(FollowerConfig{
		Upstream:        ts.URL,
		Tables:          []TableData{{Name: "orders", Dataset: buildOrders(rows)}},
		ArchiveDir:      dir,
		Logf:            t.Logf,
		ReconnectMin:    5 * time.Millisecond,
		ReconnectMax:    50 * time.Millisecond,
		ForwardQueue:    -1,
		ForwardInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fol.Close)
	if pos, _ := fol.Core().ReplicaPosition("orders"); pos.Epoch != want {
		t.Fatalf("bootstrap left the follower at epoch %d, want %d (before any live stream)", pos.Epoch, want)
	}
	waitFor(t, "live resume", func() bool { return fol.stats.resumes.Load() >= 1 })
	if n := fol.stats.snapshots.Load(); n != 1 {
		t.Fatalf("follower applied %d snapshots, want exactly the archived one", n)
	}
	assertLiveBitIdentical(t, leader, fol.Core(), rows, true)

	// The whole archive replays cleanly, opens with the epoch-0 snapshot
	// at the leader's term and ends at the final epoch.
	var first *Record
	var last uint64
	total, err := replayLive(dir, 0, nil, func(rec *Record) error {
		if first == nil {
			first = rec
		}
		if rec.Table == "orders" && rec.Epoch > last {
			last = rec.Epoch
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if first.Type != RecordSnapshot || first.Epoch != 0 || first.Generation != 1 {
		t.Fatalf("archive opens with %s at epoch %d, generation %d; want the epoch-0 snapshot at generation 1", first.Type, first.Epoch, first.Generation)
	}
	if last != want || uint64(total) != want+1 {
		t.Fatalf("full replay of %d records ended at epoch %d, want %d records ending at %d", total, last, want+1, want)
	}
}

// TestReplayArchiveTornTail pins the crash-tolerance contract: a
// truncated final line is skipped silently, garbage mid-segment fails
// loudly, and a replay callback's own error on the final line is
// surfaced, never mistaken for a torn tail.
func TestReplayArchiveTornTail(t *testing.T) {
	testleak.Check(t)
	mkRecord := func(epoch uint64) []byte {
		b, err := json.Marshal(Record{Type: RecordDecision, Table: "orders", Epoch: epoch})
		if err != nil {
			t.Fatal(err)
		}
		return append(b, '\n')
	}
	writeSegment := func(dir, name string, chunks ...[]byte) {
		var data []byte
		for _, c := range chunks {
			data = append(data, c...)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Torn tail: the last line is half a record — a crash mid-append.
	dir := t.TempDir()
	writeSegment(dir, "segment-00000001.ndjson", mkRecord(1), mkRecord(2), []byte(`{"type":"deci`))
	n, err := replayLive(dir, 0, nil, func(*Record) error { return nil })
	if err != nil {
		t.Fatalf("torn tail must be tolerated, got: %v", err)
	}
	if n != 2 {
		t.Fatalf("torn-tail replay delivered %d records, want 2", n)
	}

	// Garbage mid-segment: records follow the bad line, so this is
	// corruption, not a crash.
	dir = t.TempDir()
	writeSegment(dir, "segment-00000001.ndjson", mkRecord(1), []byte("not json at all\n"), mkRecord(2))
	if _, err := replayLive(dir, 0, nil, func(*Record) error { return nil }); err == nil {
		t.Fatal("mid-segment corruption replayed without error")
	}

	// Apply failure on the final line: the callback's error must come
	// back out — the torn-tail skip is for decode failures only.
	dir = t.TempDir()
	writeSegment(dir, "segment-00000001.ndjson", mkRecord(1), mkRecord(2))
	sentinel := errors.New("apply failed")
	_, err = replayLive(dir, 0, nil, func(rec *Record) error {
		if rec.Epoch == 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("apply error on the final line came back as %v, want the apply error", err)
	}
}

// TestFollowerBootstrapsFromParentArchive pins Record compatibility
// across commits: testdata/archive-parent holds one segment (18 records:
// a snapshot, decisions including a layout switch, three appends and a
// compaction) written by an Archiver built from the commit BEFORE the
// single-transition refactor, against a 96-row buildOrders leader. A
// follower built from this tree must replay it, offline, to the recorded
// tail: epoch 17 on layout compact-1 with a 2-row delta over a 101-row
// base. Never regenerate the segment to make a codec change pass.
func TestFollowerBootstrapsFromParentArchive(t *testing.T) {
	testleak.Check(t)
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // a refused connection: the follower has only the archive
	fol, err := NewFollower(FollowerConfig{
		Upstream:     dead.URL,
		Tables:       []TableData{{Name: "orders", Dataset: buildOrders(96)}},
		ArchiveDir:   filepath.Join("testdata", "archive-parent"),
		Logf:         t.Logf,
		ForwardQueue: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	if err := fol.WaitReady(context.Background()); err != nil {
		t.Fatal(err)
	}
	pos, ok := fol.Core().ReplicaPosition("orders")
	if !ok || pos.Epoch != 17 || fol.Position("orders") != 17 {
		t.Fatalf("bootstrap reached epoch %d (ok=%v), want 17", pos.Epoch, ok)
	}
	if name := pos.Snapshot.Serving.Name; name != "compact-1" {
		t.Fatalf("serving layout %q, want compact-1", name)
	}
	if pos.Dataset.NumRows() != 101 || pos.Delta == nil || pos.Delta.NumRows() != 2 {
		t.Fatalf("base %d rows, delta %v; want 101 and 2", pos.Dataset.NumRows(), pos.Delta)
	}
	if got, want := pos.Snapshot.Stats.Queries, 13; got != want {
		t.Fatalf("replicated decision count %d, want %d", got, want)
	}
	st := &fol.stats
	if st.snapshots.Load() != 1 || st.decisions.Load() != 13 || st.appends.Load() != 3 || st.compactions.Load() != 1 || st.gaps.Load() != 0 {
		t.Fatalf("applied-record counters: %d snapshots, %d decisions, %d appends, %d compactions, %d gaps; want 1, 13, 3, 1, 0",
			st.snapshots.Load(), st.decisions.Load(), st.appends.Load(), st.compactions.Load(), st.gaps.Load())
	}
	if fol.Generation() != 1 {
		t.Fatalf("generation %d, want the archived term 1", fol.Generation())
	}
	// Rows 96..102 arrived through the archive's append records; five of
	// them were folded into the base and two still sit in the delta.
	res, err := fol.Core().Answer(context.Background(), serve.QueryRequest{
		Table: "orders", Execute: true,
		Preds: []serve.PredicateJSON{{Col: "order_ts", HasLo: true, LoI: 96}},
		Aggs:  []serve.AggregateJSON{{Op: "count"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ex := res[0].Execution; ex == nil || ex.MatchedRows != 7 || ex.DeltaRows != 2 || res[0].Layout != "compact-1" {
		t.Fatalf("probe over the appended rows: %+v / %+v", res[0], res[0].Execution)
	}
}

// TestReplaySkipsWhatASnapshotSupersedes pins where replay starts: each
// table at its newest snapshot (bounded: the newest at or below the
// bound), in archive order, with the older segments left unopened once
// every requested table has one — and from the first line for a table
// the archive never snapshotted.
func TestReplaySkipsWhatASnapshotSupersedes(t *testing.T) {
	dir := t.TempDir()
	line := func(typ, table string, epoch uint64) string {
		b, err := json.Marshal(Record{Type: typ, Table: table, Epoch: epoch})
		if err != nil {
			t.Fatal(err)
		}
		return string(b) + "\n"
	}
	seg1 := line(RecordSnapshot, "a", 0) + line(RecordDecision, "a", 1) +
		line(RecordSnapshot, "b", 0) + line(RecordDecision, "b", 1) + line(RecordDecision, "c", 1)
	// Session 2 resumed a and re-snapshotted b after its leader restarted.
	seg2 := line(RecordResume, "a", 1) + line(RecordDecision, "a", 2) +
		line(RecordSnapshot, "b", 5) + line(RecordDecision, "b", 6)
	for name, data := range map[string]string{"segment-00000001.ndjson": seg1, "segment-00000002.ndjson": seg2} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name     string
		maxEpoch uint64
		tables   []string
		want     string
	}{
		{"every table", 0, nil, "snapshot a0, decision a1, decision c1, resume a1, decision a2, snapshot b5, decision b6"},
		{"bounded", 1, nil, "snapshot a0, decision a1, snapshot b0, decision b1, decision c1, resume a1"},
		{"newest segment suffices", 0, []string{"b"}, "resume a1, decision a2, snapshot b5, decision b6"},
		{"walks back for a", 0, []string{"a", "b"}, "snapshot a0, decision a1, decision c1, resume a1, decision a2, snapshot b5, decision b6"},
		{"never snapshotted", 0, []string{"c"}, "snapshot a0, decision a1, decision c1, resume a1, decision a2, snapshot b5, decision b6"},
	} {
		var got []string
		n, err := replayLive(dir, tc.maxEpoch, tc.tables, func(rec *Record) error {
			got = append(got, fmt.Sprintf("%s %s%d", rec.Type, rec.Table, rec.Epoch))
			return nil
		})
		if err != nil || n != len(got) || strings.Join(got, ", ") != tc.want {
			t.Errorf("%s: replayed %d records %q (%v), want %q", tc.name, n, got, err, tc.want)
		}
	}
	// Garbage in a segment replay never opens is not replay's to find.
	if err := os.WriteFile(filepath.Join(dir, "segment-00000001.ndjson"), []byte(strings.Replace(seg1, line(RecordSnapshot, "b", 0), "not json\n", 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := replayLive(dir, 0, []string{"b"}, func(*Record) error { return nil }); err != nil {
		t.Fatalf("replay of the newest session read an older segment: %v", err)
	}
	if _, err := replayLive(dir, 0, nil, func(*Record) error { return nil }); err == nil {
		t.Fatal("mid-segment garbage past a table's start went unreported")
	}
}

// FuzzArchiveReplay feeds arbitrary bytes to Recover as the one segment
// of an archive over the 96-row orders fixture testdata/archive-parent
// was written against. Disk bytes are untrusted input: Recover must
// return an error or a leader, and never panic or hang.
func FuzzArchiveReplay(f *testing.F) {
	parent, err := os.ReadFile(filepath.Join("testdata", "archive-parent", "segment-00000001.ndjson"))
	if err != nil {
		f.Fatal(err)
	}
	// The segment ends in a newline, so its last line is lines[n-2].
	lines := strings.SplitAfter(string(parent), "\n")
	n := len(lines)
	torn := parent[:len(parent)-len(lines[n-2])/2-1]
	garbage := strings.Join(lines[:n/2], "") + "{\"type\":\"decision\",garbage\n" + strings.Join(lines[n/2:], "")
	f.Add(parent)
	f.Add(torn)
	f.Add([]byte(garbage))
	const rows = 96
	boot := buildOrders(rows)
	cfg := serve.Config{QueueSize: 64, ScanParallelism: 1}
	engines := map[string]oreo.Config{"orders": ordersEngineConfig(80)}
	quiet := func(string, ...any) {}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "segment-00000001.ndjson"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		core, pub, err := Recover(dir, []TableData{{Name: "orders", Dataset: boot}}, cfg, engines, PublisherConfig{Logf: quiet})
		if err != nil {
			return
		}
		core.Close()
		pub.Close()
	})
}
