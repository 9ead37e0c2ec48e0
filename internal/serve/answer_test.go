package serve

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"oreo"
	"oreo/internal/exec"
)

// randomOrdersQuery draws one of the four query shapes the orders
// fixture supports — time range, value range, categorical, conjunction —
// over a logical table of n rows.
func randomOrdersQuery(rng *rand.Rand, id, n int) oreo.Query {
	statuses := []string{"cancelled", "delivered", "pending", "returned"}
	lo := rng.Int63n(int64(n))
	var preds []oreo.Predicate
	switch rng.Intn(4) {
	case 0:
		preds = []oreo.Predicate{oreo.IntRange("order_ts", lo, lo+rng.Int63n(400))}
	case 1:
		f := rng.Float64() * 450
		preds = []oreo.Predicate{oreo.FloatRange("amount", f, f+rng.Float64()*80)}
	case 2:
		preds = []oreo.Predicate{oreo.StrIn("status", statuses[rng.Intn(4)], statuses[rng.Intn(4)])}
	default:
		preds = []oreo.Predicate{oreo.IntGE("order_ts", lo), oreo.StrEq("status", statuses[rng.Intn(4)])}
	}
	return oreo.Query{ID: id, Preds: preds}
}

// TestExecuteAgreesWithCosting pins the promise an execute answer makes
// about its costing half: at one epoch, over a non-empty delta, the
// executed answer's cost (bitwise), layout, skip-list, delta size and
// reorganization report are the costing answer's, and what it matched
// is what the row oracle matches. The shard is stepped with no
// consumer, so both answers provably read the same state — across
// reorganizations, appends and a fold.
func TestExecuteAgreesWithCosting(t *testing.T) {
	const boot = 3000
	ds := buildOrdersDet(boot)
	opt, err := oreo.New(ds, oreo.Config{
		Alpha: 2, WindowSize: 20, Partitions: 16, InitialSort: []string{"order_ts"}, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	tbl := NewStepLeader(ds, opt, -1)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(17))
	next := boot
	grow := func(n int) {
		t.Helper()
		if err := tbl.Append(rowsOver(ds.Schema(), next, n)); err != nil {
			t.Fatal(err)
		}
		next += n
	}
	layouts := map[string]bool{}
	for round := 0; round < 6; round++ {
		for i := 0; i < 60; i++ {
			tbl.Observe(randomOrdersQuery(rng, i, next))
		}
		grow(25)
		if round == 3 {
			if err := tbl.Compact(); err != nil {
				t.Fatal(err)
			}
			grow(10)
		}
		pos := tbl.Position()
		if pos.Delta == nil || pos.Delta.NumRows() == 0 {
			t.Fatalf("round %d: empty delta; the combined cost is not exercised", round)
		}
		layouts[pos.Snapshot.Serving.Name] = true
		all := rowsOver(ds.Schema(), 0, next)
		for i := 0; i < 50; i++ {
			q := randomOrdersQuery(rng, i, next+50)
			cost, err := tbl.s.answer(ctx, q, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := tbl.s.answer(ctx, q, true, []exec.AggSpec{{Op: exec.AggCount}})
			if err != nil {
				t.Fatal(err)
			}
			if cost.Execution != nil || got.Execution == nil {
				t.Fatalf("round %d query %d: execution present on costing=%v, on execute=%v", round, i, cost.Execution != nil, got.Execution != nil)
			}
			if math.Float64bits(got.Cost) != math.Float64bits(cost.Cost) || got.Layout != cost.Layout ||
				got.NumPartitions != cost.NumPartitions || got.DeltaRows != cost.DeltaRows ||
				!reflect.DeepEqual(got.SurvivorPartitions, cost.SurvivorPartitions) ||
				got.Reorganizing != cost.Reorganizing || got.PendingLayout != cost.PendingLayout ||
				got.QueryID != cost.QueryID || got.Table != cost.Table {
				t.Fatalf("round %d query %d: executed answer %+v disagrees with costing answer %+v", round, i, got, cost)
			}
			if want, _ := refCount(all, q); got.Execution.MatchedRows != want ||
				got.Execution.DeltaRows != cost.DeltaRows || got.Execution.RowsTotal != next {
				t.Fatalf("round %d query %d: execution %+v, oracle matched %d of %d rows", round, i, *got.Execution, want, next)
			}
		}
	}
	if len(layouts) < 3 {
		t.Fatalf("only layouts %v served; the property needs reorganizations and a fold", layouts)
	}
}

// TestTraceWhileDeciding is the one place two goroutines still meet on
// a live optimizer: /trace readers load the shard's engine and read its
// decision trace while the consumer — the engine's only other caller —
// records into it, and while two compactions swap the engine itself.
// Meaningful under -race: the recorder's own lock and the atomic engine
// pointer are all that stand between them.
func TestTraceWhileDeciding(t *testing.T) {
	const boot = 2000
	m := oreo.NewMulti()
	if err := m.AddTable("orders", buildOrdersDet(boot), oreo.Config{
		Alpha: 2, WindowSize: 20, Partitions: 8, InitialSort: []string{"order_ts"}, Seed: 5, TraceCapacity: 32,
	}); err != nil {
		t.Fatal(err)
	}
	s, err := New(m, Config{QueueSize: 4096, CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	core := s.Core()
	ctx := context.Background()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tr, err := core.Trace("orders")
				if err != nil {
					t.Error(err)
					return
				}
				// One call reads one engine's ring: stream positions never
				// run backwards inside it.
				for i := 1; i < len(tr.Events); i++ {
					if tr.Events[i].Seq < tr.Events[i-1].Seq {
						t.Errorf("torn trace: event %d at q%d after q%d", i, tr.Events[i].Seq, tr.Events[i-1].Seq)
						return
					}
				}
			}
		}()
	}

	rng := rand.New(rand.NewSource(23))
	next := boot
	for i := 0; i < 600; i++ {
		q := randomOrdersQuery(rng, i, next)
		if observed, err := core.Observe("orders", q); err != nil || !observed {
			t.Fatalf("observation %d: observed=%v err=%v", i, observed, err)
		}
		if i == 200 || i == 400 {
			rows := make([]map[string]any, 16)
			for j := range rows {
				rows[j] = ordersWireRow(next)
				next++
			}
			if _, err := core.Append(ctx, "orders", rows); err != nil {
				t.Fatal(err)
			}
			if ack, err := core.Compact(ctx, "orders"); err != nil || ack.Folded != len(rows) {
				t.Fatalf("compaction at %d: %+v, %v", i, ack, err)
			}
		}
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		st, err := core.Stats("orders")
		if err != nil {
			t.Fatal(err)
		}
		if st.Queries == 600 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("decision loop never drained: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()

	st, _ := core.Stats("orders")
	tr, _ := core.Trace("orders")
	if st.Compactions != 2 || len(tr.Events) == 0 {
		t.Fatalf("%d compactions and %d trace events on the last engine; the readers raced nothing", st.Compactions, len(tr.Events))
	}
}
