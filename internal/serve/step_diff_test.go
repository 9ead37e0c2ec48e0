package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"oreo"
	"oreo/internal/persist"
	"oreo/internal/replica"
	"oreo/internal/serve"
)

// The differential step test: a leader state is driven through a
// schedule of observations, appends, manual and threshold-triggered
// compactions; every update it emits crosses the replication wire
// (Record encode → JSON → decode) into a replica state; and after EVERY
// step the two must be bit-equal. Midway the replica is promoted at a
// compaction boundary and from then on receives the leader's own events
// — promoted ≡ never-failed — while a fresh replica follows it. No
// goroutines, no sleeps: serve.StepTable calls the shard's handlers
// synchronously.

const (
	stepRows      = 160
	stepThreshold = 11 // auto-compaction: small enough for schedules to cross it
)

// stepSchema's region column is read by no query, so only the publish
// step builds its statistics (see assertComplete).
var stepSchema = oreo.NewSchema(
	oreo.Column{Name: "order_ts", Type: oreo.Int64},
	oreo.Column{Name: "status", Type: oreo.String},
	oreo.Column{Name: "amount", Type: oreo.Float64},
	oreo.Column{Name: "region", Type: oreo.String},
)

// stepRowsOver builds logical rows [from, from+n) over schema —
// closed-form, so leader and replica boot byte-identical tables
// independently, each over its own schema instance.
func stepRowsOver(schema *oreo.Schema, from, n int) *oreo.Dataset {
	statuses := []string{"cancelled", "delivered", "pending", "returned", "lost"}
	b := oreo.NewDatasetBuilder(schema, n)
	for i := from; i < from+n; i++ {
		amount := float64(i%97) + 0.25
		if i%53 == 0 {
			amount = math.Inf(1) // non-finite cells must survive the wire's bit framing
		}
		b.AppendRow(oreo.Int(int64(i)), oreo.Str(statuses[(i*7)%len(statuses)]), oreo.Float(amount), oreo.Str([]string{"east", "west"}[i%2]))
	}
	return b.Build()
}

// stepConfig reorganizes eagerly; reorgDelay > 0 keeps a pending layout
// in flight across steps, so Switched must fire when the swap lands.
func stepConfig(reorgDelay int) oreo.Config {
	return oreo.Config{Alpha: 1.5, WindowSize: 8, Partitions: 4, Seed: 3, ReorgDelay: reorgDelay}
}

// stepQuery is a drifting workload: the phase changes every dozen
// queries, which makes a low-alpha optimizer reorganize repeatedly.
func stepQuery(i int) oreo.Query {
	switch (i / 12) % 3 {
	case 0:
		lo := int64((i * 31) % (stepRows - 20))
		return oreo.Query{ID: i, Preds: []oreo.Predicate{oreo.IntRange("order_ts", lo, lo+19)}}
	case 1:
		lo := float64((i * 13) % 80)
		return oreo.Query{ID: i, Preds: []oreo.Predicate{oreo.FloatRange("amount", lo, lo+9)}}
	default:
		st := []string{"cancelled", "delivered", "pending", "returned", "lost"}[i%5]
		return oreo.Query{ID: i, Preds: []oreo.Predicate{oreo.StrIn("status", st)}}
	}
}

var stepProbes = []oreo.Query{
	{Preds: []oreo.Predicate{oreo.IntRange("order_ts", 10, 59)}},
	{Preds: []oreo.Predicate{oreo.IntGE("order_ts", stepRows-5)}}, // lands in appended rows
	{Preds: []oreo.Predicate{oreo.FloatRange("amount", 20.5, 44)}},
	{Preds: []oreo.Predicate{oreo.StrIn("status", "pending", "lost")}},
	{Preds: []oreo.Predicate{oreo.StrIn("status", "returned"), oreo.IntGE("order_ts", 100)}},
	{Preds: []oreo.Predicate{oreo.IntRange("order_ts", -10, -1)}}, // unsatisfiable
}

// stepNode is one side of the comparison: a table and the boot dataset
// (own schema instance) its wire records are decoded against.
type stepNode struct {
	tbl  *serve.StepTable
	boot *oreo.Dataset
}

func newStepLeader(t testing.TB, reorgDelay int) stepNode {
	boot := stepRowsOver(stepSchema, 0, stepRows)
	cfg := stepConfig(reorgDelay)
	cfg.InitialSort = []string{"order_ts"}
	opt, err := oreo.New(boot, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return stepNode{serve.NewStepLeader(boot, opt, stepThreshold), boot}
}

func newStepReplica() stepNode {
	schema := oreo.NewSchema(stepSchema.Cols()...)
	boot := stepRowsOver(schema, 0, stepRows)
	return stepNode{serve.NewStepReplica(boot), boot}
}

// ship sends one update across the wire into dst: Record encode → JSON
// → decode → apply. Everything a real follower does, minus the socket.
func ship(t testing.TB, dst stepNode, upd serve.DecisionUpdate, bootRows int) {
	t.Helper()
	rec, err := replica.EncodeUpdate("t", upd, bootRows)
	if err != nil {
		t.Fatalf("encoding %s update at epoch %d: %v", upd.Kind, upd.Epoch, err)
	}
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var back replica.Record
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	in, err := replica.DecodeRecord(&back, dst.boot)
	if err != nil {
		t.Fatalf("decoding %s record at epoch %d: %v", back.Type, back.Epoch, err)
	}
	applied, err := dst.tbl.Apply(in)
	if err != nil || !applied {
		t.Fatalf("applying %s update at epoch %d: applied=%v err=%v", upd.Kind, upd.Epoch, applied, err)
	}
	assertComplete(t, fmt.Sprintf("follower apply of %s at epoch %d", upd.Kind, upd.Epoch), dst)
	// The replayed update must come out as the update that went in (a
	// snapshot is cut from a position, not emitted, and knows no Switched).
	if out := dst.tbl.Drain(); len(out) != 1 || out[0].Kind != upd.Kind || out[0].Epoch != upd.Epoch ||
		(out[0].Switched != upd.Switched && upd.Kind != serve.UpdateSnapshot) ||
		out[0].DeltaRows != upd.DeltaRows || out[0].Folded != upd.Folded {
		t.Fatalf("replayed %s update at epoch %d re-emitted as %+v", upd.Kind, upd.Epoch, out)
	}
}

// seed ships src's whole position to dst as a snapshot record.
func seed(t testing.TB, src, dst stepNode) {
	t.Helper()
	pos := src.tbl.Position()
	upd := serve.DecisionUpdate{Kind: serve.UpdateSnapshot, Epoch: pos.Epoch, Snapshot: pos.Snapshot, Base: pos.Dataset, Rows: pos.Delta}
	if pos.Delta != nil {
		upd.DeltaRows = pos.Delta.NumRows()
	}
	ship(t, dst, upd, stepRows)
}

// follow ships everything src emitted since the last call to dst.
func follow(t testing.TB, src, dst stepNode) {
	t.Helper()
	for _, upd := range src.tbl.Drain() {
		ship(t, dst, upd, 0)
	}
}

// assertSame is the bit-equality check: epoch, serving assignment,
// statistics block, counters, delta rows, and the probe set's costs,
// survivor lists and executed row counts.
func assertSame(t testing.TB, step int, what string, a, b stepNode) {
	t.Helper()
	pa, pb := a.tbl.Position(), b.tbl.Position()
	if pa.Epoch != pb.Epoch {
		t.Fatalf("step %d, %s: epoch %d vs %d", step, what, pa.Epoch, pb.Epoch)
	}
	sa, err := persist.CaptureStateWithData(pa.Snapshot.Serving, pa.Dataset, 0, pa.Delta)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := persist.CaptureStateWithData(pb.Snapshot.Serving, pb.Dataset, 0, pb.Delta)
	if err != nil {
		t.Fatal(err)
	}
	// Layout = name + row→partition RLE; Stats = the statistics block with
	// floats as bit patterns; Data = every base and delta row, ditto. The
	// cost memo is a cache, not state, and is left out.
	for _, part := range []struct {
		name string
		a, b any
	}{{"serving layout", sa.Layout, sb.Layout}, {"statistics block", sa.Stats, sb.Stats}, {"rows", sa.Data, sb.Data}} {
		ja, _ := json.Marshal(part.a)
		jb, _ := json.Marshal(part.b)
		if !bytes.Equal(ja, jb) {
			t.Fatalf("step %d, %s at epoch %d: %s differs:\n%s\n%s", step, what, pa.Epoch, part.name, ja, jb)
		}
	}
	if ja, jb := statsBits(pa.Snapshot.Stats), statsBits(pb.Snapshot.Stats); ja != jb {
		t.Fatalf("step %d, %s at epoch %d: counters %+v vs %+v", step, what, pa.Epoch, ja, jb)
	}
	if (pa.Snapshot.Pending == nil) != (pb.Snapshot.Pending == nil) ||
		(pa.Snapshot.Pending != nil && pa.Snapshot.Pending.Name != pb.Snapshot.Pending.Name) {
		t.Fatalf("step %d, %s at epoch %d: pending layout differs", step, what, pa.Epoch)
	}
	for i, q := range stepProbes {
		ra, err := a.tbl.Probe(q)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.tbl.Probe(q)
		if err != nil {
			t.Fatal(err)
		}
		ra.Observed, rb.Observed = false, false // the hand-off differs by role; the answer must not
		if math.Float64bits(ra.Cost) != math.Float64bits(rb.Cost) || !reflect.DeepEqual(ra, rb) {
			t.Fatalf("step %d, %s at epoch %d, probe %d:\n%+v %+v\n%+v %+v", step, what, pa.Epoch, i, ra, ra.Execution, rb, rb.Execution)
		}
	}
}

// assertComplete checks that the node publishes a serving layout whose
// every column's statistics are built, so no reader's first touch pays
// for a column sweep. It must run before anything that reads the
// layout's metadata in full (a snapshot capture, an executed probe).
func assertComplete(t testing.TB, what string, n stepNode) {
	t.Helper()
	part := n.tbl.Position().Snapshot.Serving.Part
	for c := 0; c < n.boot.Schema().NumCols(); c++ {
		if !part.Built(c) {
			t.Fatalf("%s: serving layout published with column %s unbuilt", what, n.boot.Schema().Col(c).Name)
		}
	}
}

// statsBits is oreo.Stats with its floats as bit patterns, comparable.
func statsBits(s oreo.Stats) [8]uint64 {
	return [8]uint64{
		uint64(s.Queries), uint64(s.Reorganizations), math.Float64bits(s.QueryCost), math.Float64bits(s.ReorgCost),
		uint64(s.States), uint64(s.MaxStates), uint64(s.Phases), math.Float64bits(s.CompetitiveBound),
	}
}

// runStepSchedule interprets one schedule byte per step: the low three
// bits pick the operation, the rest parameterize it.
func runStepSchedule(t testing.TB, schedule []byte) {
	reorgDelay := len(schedule) % 3
	leader, rep := newStepLeader(t, reorgDelay), newStepReplica()
	seed(t, leader, rep)
	assertSame(t, -1, "leader vs replica", leader, rep)

	promoted := false
	var tail stepNode // follows the promoted leader
	queries, nextRow := 0, stepRows
	// do runs one operation on every deciding node, ships what each
	// emitted to its follower, and compares all of them.
	do := func(step int, op func(n stepNode)) {
		op(leader)
		assertComplete(t, fmt.Sprintf("step %d, leader", step), leader)
		if !promoted {
			follow(t, leader, rep)
			assertSame(t, step, "leader vs replica", leader, rep)
			return
		}
		leader.tbl.Drain()
		op(rep)
		assertComplete(t, fmt.Sprintf("step %d, promoted", step), rep)
		follow(t, rep, tail)
		assertSame(t, step, "never-failed vs promoted", leader, rep)
		assertSame(t, step, "promoted vs its replica", rep, tail)
	}
	appendOp := func(n int) func(stepNode) {
		from := nextRow
		nextRow += n
		return func(node stepNode) {
			if err := node.tbl.Append(stepRowsOver(node.boot.Schema(), from, n)); err != nil {
				t.Fatal(err)
			}
		}
	}
	compactOp := func(node stepNode) {
		if err := node.tbl.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	for step, b := range schedule {
		op, arg := b&7, int(b>>3)
		if (op == 6 && arg%4 != 0) || (op == 7 && promoted) {
			op = 0 // keep folds rare enough for windows to fill and layouts to switch
		}
		switch op {
		case 0, 1, 2, 3, 4:
			q := stepQuery(queries)
			queries++
			do(step, func(n stepNode) { n.tbl.Observe(q) })
		case 5:
			do(step, appendOp(1+arg%6)) // crosses stepThreshold every few appends
		case 6:
			do(step, compactOp) // a no-op, on every node alike, when the delta is empty
		case 7:
			// Promote at a compaction boundary: both engines are then
			// rebuilt from the same layout over the same base, so the
			// promoted node continues exactly the run the leader has.
			do(step, appendOp(2))
			do(step, compactOp)
			if err := rep.tbl.Promote(stepConfig(reorgDelay), stepThreshold); err != nil {
				t.Fatal(err)
			}
			assertComplete(t, fmt.Sprintf("step %d, promotion", step), rep)
			promoted, tail = true, newStepReplica()
			seed(t, rep, tail)
			assertSame(t, step, "promoted vs its replica", rep, tail)
		}
	}
}

func TestShardStepDifferential(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		schedule := make([]byte, 160+seed) // the length picks the ReorgDelay
		rng.Read(schedule)
		for i := range schedule[:len(schedule)/2] {
			if schedule[i]&7 == 7 {
				schedule[i] &^= 7 // promote in the second half, after real history
			}
		}
		runStepSchedule(t, schedule)
	}
}

// TestFoldNamesNeverRepeatAcrossPromotion: a leader folds, then
// reorganizes away from the compacted layout, and is replaced by its
// promoted follower, whose next fold must not reuse a layout name the
// stream has already carried.
func TestFoldNamesNeverRepeatAcrossPromotion(t *testing.T) {
	leader, rep := newStepLeader(t, 0), newStepReplica()
	seed(t, leader, rep)
	carried := map[string]bool{leader.tbl.Position().Snapshot.Serving.Name: true}
	relay := func() {
		for _, upd := range leader.tbl.Drain() {
			carried[upd.Snapshot.Serving.Name] = true
			ship(t, rep, upd, 0)
		}
	}
	fold := func(n stepNode, from int) string {
		if err := n.tbl.Append(stepRowsOver(n.boot.Schema(), from, 2)); err != nil {
			t.Fatal(err)
		}
		if err := n.tbl.Compact(); err != nil {
			t.Fatal(err)
		}
		return n.tbl.Position().Snapshot.Serving.Name
	}

	if name := fold(leader, stepRows); !strings.HasPrefix(name, "compact-") {
		t.Fatalf("fold served %q, want a compacted layout", name)
	}
	relay()
	for i := 0; strings.HasPrefix(leader.tbl.Position().Snapshot.Serving.Name, "compact-"); i++ {
		if i == 500 {
			t.Fatal("the leader never reorganized away from its compacted layout")
		}
		leader.tbl.Observe(stepQuery(i))
		relay()
	}
	if err := rep.tbl.Promote(stepConfig(0), stepThreshold); err != nil {
		t.Fatal(err)
	}
	if name := fold(rep, stepRows+2); carried[name] {
		t.Fatalf("the promoted leader's fold reuses %q; the stream carried %v", name, carried)
	}
}

func FuzzShardStep(f *testing.F) {
	f.Add([]byte{0, 8, 16, 36, 44, 6, 1, 7, 2, 12, 4, 6, 3})
	f.Add(bytes.Repeat([]byte{4, 0, 45}, 12))
	f.Add([]byte{7, 0, 1, 2, 3, 4, 5, 6})
	f.Fuzz(func(t *testing.T, schedule []byte) {
		if len(schedule) > 200 {
			schedule = schedule[:200]
		}
		runStepSchedule(t, schedule)
	})
}
