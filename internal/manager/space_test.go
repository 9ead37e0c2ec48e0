package manager

import (
	"math/rand"
	"slices"
	"testing"

	"oreo/internal/datagen"
	"oreo/internal/layout"
	"oreo/internal/mts"
	"oreo/internal/query"
	"oreo/internal/workload"
)

// newTestManager returns a manager over the ts-sorted layout whose
// reservoir already holds a mixed sample, with a feed period long
// enough that the tests offer every candidate themselves.
func newTestManager(t *testing.T, epsilon float64, maxStates int) (*Manager, func(cols ...string) *layout.Layout) {
	t.Helper()
	d := testDataset(400)
	gen := func(cols ...string) *layout.Layout {
		return layout.NewSortGenerator(cols...).Generate(d, nil, 4)
	}
	m := New(newTestFeed(d, FeedConfig{WindowSize: 50, Period: 1000}), gen("ts"), epsilon, maxStates)
	for i := 0; i < 20; i++ {
		q := tsQuery(i, int64(i*15), int64(i*15+40))
		if i%2 == 1 {
			q = catQuery(i, []string{"a", "b", "c", "d"}[i%4])
		}
		if len(m.Observe(q)) != 0 {
			t.Fatal("fixture feed generated a candidate")
		}
	}
	return m, gen
}

func TestManagerAdmission(t *testing.T) {
	m, gen := newTestManager(t, 0.08, 0)
	if m.Len() != 1 || m.Layout(InitialState).Name != "sort(ts)" {
		t.Fatalf("fresh space = %d states, initial %v", m.Len(), m.Layout(InitialState))
	}

	id, v := m.Offer(gen("cat"))
	if v != Admitted || id != InitialState+1 || m.Layout(id).Name != "sort(cat)" {
		t.Fatalf("distinct candidate: verdict %d under ID %d", v, id)
	}
	// The same name again — even as a fresh *Layout — is a duplicate.
	if _, v := m.Offer(gen("cat")); v != Duplicate {
		t.Errorf("second sort(cat): verdict %d, want Duplicate", v)
	}
	// sort(ts,cat) has a new name but the cost vector of sort(ts) (ts is
	// unique, so the tie-break column never matters): within ε.
	if _, v := m.Offer(gen("ts", "cat")); v != Rejected {
		t.Errorf("ε-close candidate: verdict %d, want Rejected", v)
	}
	if m.Len() != 2 {
		t.Errorf("|S| = %d after one admission, want 2", m.Len())
	}
}

func TestManagerPruneSparesCurrentAndNeverReusesIDs(t *testing.T) {
	// ε < 0 admits everything that is not a duplicate name, so the space
	// can hold two layouts with identical cost vectors: sort(ts) and
	// sort(ts,cat) are each other's nearest neighbour at distance 0.
	m, gen := newTestManager(t, -1, 2)
	twin, _ := m.Offer(gen("ts", "cat"))
	if _, _, ok := m.Prune(InitialState); ok {
		t.Fatal("pruned a space that is within its cap")
	}
	other, _ := m.Offer(gen("cat"))
	if twin != 1 || other != 2 || m.Len() != 3 {
		t.Fatalf("admitted under IDs %d, %d; |S| = %d", twin, other, m.Len())
	}

	// Both twins are equally redundant; whichever is current survives.
	for _, current := range []mts.StateID{InitialState, twin} {
		m, gen := newTestManager(t, -1, 2)
		m.Offer(gen("ts", "cat"))
		m.Offer(gen("cat"))
		victim, l, ok := m.Prune(current)
		if !ok || victim == current || victim == other {
			t.Fatalf("current=%d: pruned %d (ok=%v), want the other twin", current, victim, ok)
		}
		if m.Layout(victim) != nil || m.Len() != 2 || l == nil {
			t.Errorf("current=%d: victim %d still held, |S| = %d", current, victim, m.Len())
		}
		if _, _, ok := m.Prune(current); ok {
			t.Errorf("current=%d: pruned again at the cap", current)
		}
		// The freed ID is gone for good: the next admission mints a new one.
		if id, v := m.Offer(l); v != Admitted || id != other+1 {
			t.Errorf("current=%d: re-admission got ID %d (verdict %d), want %d", current, id, v, other+1)
		}
	}
}

// TestManagerJudgesCollidingQdTreesByEpsilon offers two Qd-tree
// candidates that the window tag cannot tell apart — every query has ID
// 0, and each window harvests two cuts and carves three leaves — but
// that split the table at different places. The second must meet the ε
// rule, not be dropped as a duplicate of the first.
func TestManagerJudgesCollidingQdTreesByEpsilon(t *testing.T) {
	m, _ := newTestManager(t, -1, 0) // ε < 0: every non-duplicate is admitted
	gen := layout.NewQdTreeGenerator()
	d := testDataset(400)
	a := gen.Generate(d, []query.Query{tsQuery(0, 100, 199)}, 8)
	b := gen.Generate(d, []query.Query{tsQuery(0, 150, 249)}, 8)
	if a.Part.NumPartitions != 3 || b.Part.NumPartitions != 3 || slices.Equal(a.Part.Assign, b.Part.Assign) {
		t.Fatalf("fixture: %d and %d leaves, want 3 each over different assignments", a.Part.NumPartitions, b.Part.NumPartitions)
	}
	if _, v := m.Offer(a); v != Admitted {
		t.Fatalf("first candidate %q: verdict %d, want Admitted", a.Name, v)
	}
	if id, v := m.Offer(b); v != Admitted || m.Layout(id) != b {
		t.Fatalf("second candidate %q after %q: verdict %d, want Admitted", b.Name, a.Name, v)
	}
}

// TestRejectedCandidateBuildsOnlyReservoirColumns pins what lazy
// partition metadata saves: a candidate Offer rejects was read only
// through its cost vector on the reservoir sample, so of its columns'
// statistics exactly the reservoir's predicate columns are built. An
// admitted candidate has at least those built.
func TestRejectedCandidateBuildsOnlyReservoirColumns(t *testing.T) {
	d := datagen.GenerateTPCH(6000, rand.New(rand.NewSource(1)))
	schema := d.Schema()
	feed := NewFeed(d, layout.NewQdTreeGenerator(), FeedConfig{WindowSize: 100, Period: 50, Partitions: 16}, rand.New(rand.NewSource(2)))
	m := New(feed, layout.NewSortGenerator("o_orderdate").Generate(d, nil, 16), 0.08, 0)
	templates := workload.TPCHTemplates()
	rng := rand.New(rand.NewSource(3))
	rejected := 0
	for i := 0; i < 1200; i++ {
		tpl := []int{0, 5, 9}[i/400]
		if rng.Intn(4) == 0 {
			tpl = rng.Intn(len(templates))
		}
		for _, c := range m.Observe(query.Query{ID: i, Template: tpl, Preds: templates[tpl].Make(rng)}) {
			read := make([]bool, schema.NumCols())
			for _, q := range feed.ReservoirQueries() {
				for _, p := range q.Preds {
					read[schema.MustIndex(p.Col)] = true
				}
			}
			_, v := m.Offer(c.Layout)
			if v == Duplicate {
				continue
			}
			for col, want := range read {
				if got := c.Layout.Part.Built(col); got != want && (v == Rejected || want) {
					t.Fatalf("query %d: %s candidate %s: column %s built = %v, read by the reservoir = %v",
						i, map[Verdict]string{Admitted: "admitted", Rejected: "rejected"}[v], c.Layout.Name, schema.Col(col).Name, got, want)
				}
			}
			if v == Rejected {
				rejected++
			}
		}
	}
	if rejected == 0 {
		t.Fatal("no candidate was rejected; the stream lost its point")
	}
}
