package serve

import (
	"context"
	"sync"
	"testing"
	"time"

	"oreo"
	"oreo/internal/testleak"
)

// parkedGenerator is a Qd-tree generator whose first Generate blocks
// until Release, holding the table's consumer inside a candidate
// generation; entered is closed once it is parked there.
type parkedGenerator struct {
	oreo.Generator
	entered, release chan struct{}
	park, unpark     sync.Once
}

func newParkedGenerator() *parkedGenerator {
	return &parkedGenerator{Generator: oreo.NewQdTreeGenerator(), entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *parkedGenerator) Generate(d *oreo.Dataset, qs []oreo.Query, k int) *oreo.Layout {
	g.park.Do(func() {
		close(g.entered)
		<-g.release
	})
	return g.Generator.Generate(d, qs, k)
}

// Release lets the parked generation finish; idempotent.
func (g *parkedGenerator) Release() { g.unpark.Do(func() { close(g.release) }) }

// updateLog records the kind of every update the decision hook sees,
// by epoch.
type updateLog struct {
	mu    sync.Mutex
	kinds map[uint64]string
}

func (l *updateLog) hook(_ string, upd DecisionUpdate) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.kinds[upd.Epoch] = upd.Kind
}

func (l *updateLog) kind(epoch uint64) string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.kinds[epoch]
}

// parkedObservations is how many observations newParkedCore feeds; the
// tenth starts the first candidate generation of its 10-query window.
const parkedObservations = 20

// newParkedCore boots a 1000-row orders leader with a 10-query window
// and a parked generator, logs its updates, and feeds it observations
// until its consumer is parked in the first candidate generation, with
// the later observations queued behind it.
func newParkedCore(t *testing.T, threshold int) (*Core, *parkedGenerator, *updateLog) {
	t.Helper()
	gen := newParkedGenerator()
	m := oreo.NewMulti()
	if err := m.AddTable("orders", buildOrdersDet(1000), oreo.Config{
		Partitions: 4, InitialSort: []string{"order_ts"}, Seed: 1, WindowSize: 10, Generator: gen,
	}); err != nil {
		t.Fatal(err)
	}
	core, err := NewCore(m, Config{CompactThreshold: threshold})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gen.Release(); core.Close() })
	log := &updateLog{kinds: make(map[uint64]string)}
	core.SetDecisionHook(log.hook)
	for i := 0; i < parkedObservations; i++ {
		q := oreo.Query{Preds: []oreo.Predicate{oreo.IntRange("order_ts", int64(i*40), int64(i*40+99))}}
		if ok, err := core.Observe("orders", q); err != nil || !ok {
			t.Fatalf("observation %d: observed=%v err=%v", i, ok, err)
		}
	}
	select {
	case <-gen.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the consumer never entered a candidate generation")
	}
	return core, gen, log
}

type appendResult struct {
	ack AppendResponse
	err error
}

// appendAsync appends orders rows [from, from+n) on its own goroutine.
func appendAsync(core *Core, from, n int) <-chan appendResult {
	rows := make([]map[string]any, n)
	for i := range rows {
		rows[i] = ordersWireRow(from + i)
	}
	done := make(chan appendResult, 1)
	go func() {
		ack, err := core.Append(context.Background(), "orders", rows)
		done <- appendResult{ack, err}
	}()
	return done
}

// within waits up to 5 s for an append's result.
func within(t *testing.T, what string, done <-chan appendResult) AppendResponse {
	t.Helper()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("%s: %v", what, r.err)
		}
		return r.ack
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: no acknowledgment within 5 s", what)
	}
	return AppendResponse{}
}

// waitState polls the published state until cond holds, for up to 5 s.
func waitState(t *testing.T, core *Core, what string, cond func(Position) bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if pos, ok := core.ReplicaPosition("orders"); ok && cond(pos) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
	}
}

func deltaRows(pos Position) int {
	if pos.Delta == nil {
		return 0
	}
	return pos.Delta.NumRows()
}

// TestAppendDoesNotWaitForGeneration pins where appends run: with the
// consumer parked inside a candidate generation, an append lands and is
// acknowledged at once, at an epoch below the decision that generation
// belongs to, which is minted when it is published.
func TestAppendDoesNotWaitForGeneration(t *testing.T) {
	testleak.Check(t)
	core, gen, log := newParkedCore(t, -1)
	ack := within(t, "append during generation", appendAsync(core, 1000, 5))
	if ack.DeltaRows != 5 {
		t.Fatalf("append during generation: delta %d, want 5", ack.DeltaRows)
	}
	gen.Release()
	const total = parkedObservations + 1
	waitState(t, core, "every observation processed", func(pos Position) bool { return pos.Epoch == total })
	if ack.Epoch >= total {
		t.Fatalf("append acked at epoch %d, not below the parked decision's", ack.Epoch)
	}
	if got := log.kind(ack.Epoch); got != UpdateAppend {
		t.Fatalf("epoch %d is a %q update, want the append", ack.Epoch, got)
	}
	if got := log.kind(ack.Epoch + 1); got != UpdateDecision {
		t.Fatalf("epoch %d is a %q update, want the parked decision", ack.Epoch+1, got)
	}
}

// TestAppendCrossingThresholdWaitsForFold pins the one append that
// still waits on the consumer: the rows that carry the delta to the
// threshold are published at once, but their acknowledgment follows
// the fold, queued behind the parked generation, and reports it.
func TestAppendCrossingThresholdWaitsForFold(t *testing.T) {
	testleak.Check(t)
	core, gen, _ := newParkedCore(t, 64)
	if ack := within(t, "below threshold", appendAsync(core, 1000, 63)); ack.DeltaRows != 63 {
		t.Fatalf("below threshold: delta %d, want 63", ack.DeltaRows)
	}
	done := appendAsync(core, 1063, 1)
	waitState(t, core, "the crossing rows published", func(pos Position) bool { return deltaRows(pos) == 64 })
	select {
	case r := <-done:
		t.Fatalf("crossing append acknowledged before its fold could run: %+v, %v", r.ack, r.err)
	case <-time.After(50 * time.Millisecond):
	}
	gen.Release()
	ack := within(t, "crossing append", done)
	pos, _ := core.ReplicaPosition("orders")
	if ack.DeltaRows != 0 || pos.Dataset.NumRows() != 1064 {
		t.Fatalf("crossing append: delta %d, base %d rows; want 0 and 1064 (folded)", ack.DeltaRows, pos.Dataset.NumRows())
	}
	st, err := core.Stats("orders")
	if err != nil {
		t.Fatal(err)
	}
	if st.Compactions != 1 {
		t.Fatalf("compactions = %d, want 1", st.Compactions)
	}
}

// TestCloseDuringGenerationAcksLandedAppends pins shutdown while the
// consumer is parked: every append whose rows landed is acknowledged —
// the one waiting for its fold too — appends after close land nothing,
// and close returns once the queued fold has run.
func TestCloseDuringGenerationAcksLandedAppends(t *testing.T) {
	testleak.Check(t)
	core, gen, _ := newParkedCore(t, 32)
	within(t, "first append", appendAsync(core, 1000, 16))
	crossing := appendAsync(core, 1016, 16)
	waitState(t, core, "the crossing rows published", func(pos Position) bool { return deltaRows(pos) == 32 })
	// The fold is queued already, so this one does not wait for it.
	if ack := within(t, "append past the threshold", appendAsync(core, 1032, 16)); ack.DeltaRows != 48 {
		t.Fatalf("append past the threshold: delta %d, want 48", ack.DeltaRows)
	}

	closed := make(chan struct{})
	go func() {
		core.Close()
		close(closed)
	}()
	for !core.shards["orders"].obsClosed.Load() {
		time.Sleep(time.Millisecond)
	}
	if _, err := core.Append(context.Background(), "orders", []map[string]any{ordersWireRow(1048)}); err == nil || err.(*Error).Code != CodeUnavailable {
		t.Fatalf("append after close: %v, want unavailable", err)
	}
	gen.Release()
	within(t, "crossing append", crossing)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("close did not return after the generation was released")
	}
	pos, _ := core.ReplicaPosition("orders")
	if rows := pos.Dataset.NumRows() + deltaRows(pos); rows != 1048 {
		t.Fatalf("the table holds %d rows, want 1048: every acked row and nothing else", rows)
	}
}

// TestAppendAckedWhenCloseBeatsItsFold pins the window between an
// append landing and its fold reaching the consumer: a shard closed
// there refuses the fold, and the append is acked at its own epoch —
// a 503 would make a retrying client land its rows twice.
func TestAppendAckedWhenCloseBeatsItsFold(t *testing.T) {
	testleak.Check(t)
	core := newOrdersCore(t, 1000, 4, 8)
	closed := make(chan struct{})
	core.SetDecisionHook(func(_ string, upd DecisionUpdate) {
		if upd.Kind != UpdateAppend {
			return
		}
		go func() {
			core.Close()
			close(closed)
		}()
		// Close has begun once the flag is up; it then waits for this
		// append to release the shard.
		for !core.shards["orders"].obsClosed.Load() {
			time.Sleep(time.Millisecond)
		}
	})
	ack := within(t, "append crossing the threshold", appendAsync(core, 1000, 8))
	if ack.Epoch != 1 || ack.DeltaRows != 8 {
		t.Fatalf("ack = %+v, want the append's own: epoch 1, delta 8", ack)
	}
	<-closed
	if pos, _ := core.ReplicaPosition("orders"); pos.Epoch != 1 || deltaRows(pos) != 8 {
		t.Fatalf("after close: epoch %d, delta %d; want 1 and 8 (no fold)", pos.Epoch, deltaRows(pos))
	}
}
