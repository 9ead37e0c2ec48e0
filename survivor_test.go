package oreo

import (
	"math/rand"
	"reflect"
	"testing"

	"oreo/internal/query"
)

// TestSurvivorPartitionsNeverNil pins both halves of the wire-shape
// contract: a zero Decision (no layout — the not-yet-served case a
// transport can hit) and an unsatisfiable query (layout, empty mask)
// must BOTH return an empty non-nil list. Encoders serialize the two
// identically as [], never null depending on which path produced the
// decision.
func TestSurvivorPartitionsNeverNil(t *testing.T) {
	var zero Decision
	if got := zero.SurvivorPartitions(); got == nil || len(got) != 0 {
		t.Fatalf("zero decision survivors = %#v, want non-nil empty", got)
	}

	ds := buildEventsTable(t, 500)
	opt, err := New(ds, Config{Partitions: 8, InitialSort: []string{"ts"}})
	if err != nil {
		t.Fatal(err)
	}
	// ts is in [0, 500); this range is unsatisfiable on every partition.
	dec := opt.ProcessQuery(Query{Preds: []Predicate{IntRange("ts", 10_000, 20_000)}})
	if got := dec.SurvivorPartitions(); got == nil || len(got) != 0 {
		t.Fatalf("unsatisfiable-query survivors = %#v, want non-nil empty", got)
	}
	if dec.Cost != 0 {
		t.Fatalf("unsatisfiable-query cost = %v, want 0", dec.Cost)
	}
}

// TestDecisionSurvivorPartitions is the satellite contract for the
// survivor return path: the skip-list the public API reports must agree
// with interpreted per-partition prunable checks (query.MayMatch over
// the served layout's metadata), and the decision's Cost must be
// exactly the listed partitions' row mass over the table size. The
// snapshot read path (Optimizer.Snapshot, OptimizerSnapshot.CostQuery)
// must report the same state and the same answer at every boundary.
func TestDecisionSurvivorPartitions(t *testing.T) {
	ds := buildEventsTable(t, 3000)
	opt, err := New(ds, Config{
		Alpha: 12, Partitions: 16, WindowSize: 60, Period: 60,
		InitialSort: []string{"ts"}, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(11))
	users := []string{"alice", "bob", "carol", "dave"}
	for i := 0; i < 800; i++ {
		var q Query
		switch i % 3 {
		case 0:
			lo := rng.Int63n(2800)
			q = Query{ID: i, Preds: []Predicate{IntRange("ts", lo, lo+200)}}
		case 1:
			q = Query{ID: i, Preds: []Predicate{StrEq("user", users[rng.Intn(len(users))])}}
		default:
			q = Query{ID: i, Preds: []Predicate{
				FloatGE("latency", rng.Float64()*400),
				StrIn("user", users[rng.Intn(4)], users[rng.Intn(4)]),
			}}
		}
		dec := opt.ProcessQuery(q)

		// Interpreted reference: a partition survives iff its metadata
		// cannot rule the conjunction out.
		var want []int
		rows := 0
		for pid, m := range dec.Layout.Part.Meta() {
			if q.MayMatch(dec.Layout.Schema(), m) {
				want = append(want, pid)
				rows += m.NumRows
			}
		}
		surv := dec.SurvivorPartitions()
		if len(surv) != len(want) {
			t.Fatalf("query %d: %d survivors, interpreted says %d", i, len(surv), len(want))
		}
		for j := range want {
			if surv[j] != want[j] {
				t.Fatalf("query %d: survivors %v != interpreted %v", i, surv, want)
			}
		}
		if wantCost := float64(rows) / float64(dec.Layout.Part.TotalRows); dec.Cost != wantCost {
			t.Fatalf("query %d: Cost %v != survivor row mass %v", i, dec.Cost, wantCost)
		}
		// And bit-identical to the interpreted reference cost path.
		if ref := query.FractionScanned(dec.Layout.Schema(), dec.Layout.Part, q); dec.Cost != ref {
			t.Fatalf("query %d: Cost %v != interpreted FractionScanned %v", i, dec.Cost, ref)
		}

		// The snapshot taken at this query boundary is the optimizer's
		// state, and its memo-free read path answers what the decision
		// path just did, without deciding anything.
		snap := opt.Snapshot()
		if snap.Serving != opt.CurrentLayout() || snap.Pending != opt.PendingLayout() || snap.Stats != opt.Stats() {
			t.Fatalf("query %d: snapshot %+v is not the optimizer's state", i, snap)
		}
		rd := snap.CostQuery(q)
		if rd.Cost != dec.Cost || rd.Layout != dec.Layout || rd.Reorganized {
			t.Fatalf("query %d: snapshot read (%v on %s, reorganized=%v) != decision (%v on %s)",
				i, rd.Cost, rd.Layout.Name, rd.Reorganized, dec.Cost, dec.Layout.Name)
		}
		if got := rd.SurvivorPartitions(); !reflect.DeepEqual(got, surv) {
			t.Fatalf("query %d: snapshot survivors %v != decision survivors %v", i, got, surv)
		}
		if opt.Stats() != snap.Stats {
			t.Fatalf("query %d: CostQuery moved the counters", i)
		}
	}
}
