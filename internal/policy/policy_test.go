package policy

import (
	"math/rand"
	"testing"

	"oreo/internal/layout"
	"oreo/internal/manager"
	"oreo/internal/mts"
	"oreo/internal/query"
	"oreo/internal/table"
	"oreo/internal/workload"
)

func testSchema() *table.Schema {
	return table.NewSchema(
		table.Column{Name: "ts", Type: table.Int64},
		table.Column{Name: "cat", Type: table.String},
	)
}

func testDataset(n int) *table.Dataset {
	b := table.NewBuilder(testSchema(), n)
	cats := []string{"a", "b", "c", "d"}
	for i := 0; i < n; i++ {
		b.AppendRow(table.Int(int64(i)), table.Str(cats[(i/(n/16+1))%4]))
	}
	return b.Build()
}

func tsQuery(id int, lo, hi int64) query.Query {
	return query.Query{ID: id, Preds: []query.Predicate{query.IntRange("ts", lo, hi)}}
}

func catQuery(id int, v string) query.Query {
	return query.Query{ID: id, Preds: []query.Predicate{query.StrEq("cat", v)}}
}

func defaultLayout(d *table.Dataset) *layout.Layout {
	return layout.NewSortGenerator("ts").Generate(d, nil, 8)
}

var testFeedConfig = manager.FeedConfig{WindowSize: 20, Period: 20, Partitions: 8, MinWindowFill: 10}

func newFeed(d *table.Dataset, seed int64) *manager.Feed {
	return NewFeed(d, layout.NewQdTreeGenerator(), testFeedConfig, seed)
}

func TestStaticNeverSwitches(t *testing.T) {
	d := testDataset(200)
	l := defaultLayout(d)
	s := NewStatic(l)
	if s.Name() != "Static" {
		t.Errorf("Name = %q", s.Name())
	}
	for i := 0; i < 100; i++ {
		if s.Observe(catQuery(i, "a")) != nil {
			t.Fatal("Static requested a switch")
		}
	}
	if s.Current() != l {
		t.Error("Current changed")
	}
}

func TestGreedySwitchesToBetterCandidate(t *testing.T) {
	d := testDataset(400)
	g := NewGreedy(newFeed(d, 1), defaultLayout(d))
	switched := false
	// Workload of categorical filters: time layout is blind to them, so
	// the first qd-tree candidate should win and greedy should move.
	for i := 0; i < 200; i++ {
		if g.Observe(catQuery(i, []string{"a", "b"}[i%2])) != nil {
			switched = true
		}
	}
	if !switched {
		t.Error("Greedy never switched despite a dominant candidate")
	}
	if g.Current().Name == defaultLayout(d).Name {
		t.Error("Greedy still on the default layout")
	}
}

func TestGreedyIgnoresWorseCandidates(t *testing.T) {
	d := testDataset(400)
	g := NewGreedy(newFeed(d, 2), defaultLayout(d))
	// Pure time-range workload: the time layout is optimal; qd-tree
	// candidates can tie but not beat it, so greedy must hold still.
	for i := 0; i < 200; i++ {
		lo := int64((i * 13) % 360)
		if target := g.Observe(tsQuery(i, lo, lo+40)); target != nil {
			t.Fatalf("greedy switched to %q on a workload its layout already wins", target.Name)
		}
	}
}

func TestRegretWaitsForAlpha(t *testing.T) {
	d := testDataset(400)
	alpha := 1e9 // unreachable savings
	r := NewRegret(newFeed(d, 3), defaultLayout(d), alpha)
	for i := 0; i < 300; i++ {
		if r.Observe(catQuery(i, "a")) != nil {
			t.Fatal("Regret switched before savings reached alpha")
		}
	}
}

func TestRegretEventuallySwitches(t *testing.T) {
	d := testDataset(400)
	alpha := 5.0
	r := NewRegret(newFeed(d, 4), defaultLayout(d), alpha)
	switched := false
	for i := 0; i < 300 && !switched; i++ {
		switched = r.Observe(catQuery(i, []string{"a", "b"}[i%2])) != nil
	}
	if !switched {
		t.Error("Regret never switched despite accumulating savings >> alpha")
	}
}

func TestRegretRetroactiveScoring(t *testing.T) {
	d := testDataset(400)
	// With alpha just below the savings a single window of history
	// provides, the switch should occur promptly after the first
	// candidate arrives (retroactive scoring covers history).
	r := NewRegret(newFeed(d, 5), defaultLayout(d), 3.0)
	switchAt := -1
	for i := 0; i < 300; i++ {
		if r.Observe(catQuery(i, "a")) != nil {
			switchAt = i
			break
		}
	}
	if switchAt < 0 {
		t.Fatal("no switch")
	}
	// First candidate possible at query 19 (period 20); retroactive
	// credit should let it fire within a few periods.
	if switchAt > 100 {
		t.Errorf("switch at %d; retroactive scoring seems inert", switchAt)
	}
}

func TestOREOIntegration(t *testing.T) {
	d := testDataset(800)
	o := NewOREO(d, layout.NewQdTreeGenerator(), defaultLayout(d), OREOConfig{
		Feed: testFeedConfig, MTS: mts.Config{Alpha: 10, Gamma: 1}, Epsilon: 0.05,
	}, 6)

	if o.StateSpaceSize() != 1 {
		t.Fatalf("initial |S| = %d", o.StateSpaceSize())
	}
	switches := 0
	for i := 0; i < 600; i++ {
		var q query.Query
		if i < 300 {
			q = catQuery(i, []string{"a", "b"}[i%2])
		} else {
			lo := int64((i * 7) % 360)
			q = tsQuery(i, lo, lo+40)
		}
		if o.Observe(q) != nil {
			switches++
		}
	}
	if o.StateSpaceSize() < 2 {
		t.Error("no candidate was ever admitted")
	}
	if switches == 0 {
		t.Error("OREO never reorganized under a drifting workload")
	}
	if o.Reorganizer().MaxSpace() < o.StateSpaceSize() {
		t.Error("MaxSpace below current size")
	}
}

func TestOREOMaxStatesPruning(t *testing.T) {
	d := testDataset(800)
	o := NewOREO(d, layout.NewQdTreeGenerator(), defaultLayout(d), OREOConfig{
		Feed: testFeedConfig, MTS: mts.Config{Alpha: 10}, Epsilon: 0.01, MaxStates: 3,
	}, 8)
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 1000; i++ {
		var q query.Query
		switch rng.Intn(3) {
		case 0:
			q = catQuery(i, []string{"a", "b", "c", "d"}[rng.Intn(4)])
		case 1:
			lo := rng.Int63n(700)
			q = tsQuery(i, lo, lo+30)
		default:
			q = query.Query{ID: i, Preds: []query.Predicate{
				query.IntRange("ts", rng.Int63n(400), 799), query.StrEq("cat", "a")}}
		}
		o.Observe(q)
		if o.StateSpaceSize() > 3 {
			t.Fatalf("query %d: |S| = %d exceeds MaxStates=3", i, o.StateSpaceSize())
		}
	}
}

func TestOREODoesNotDuplicateNames(t *testing.T) {
	d := testDataset(400)
	o := NewOREO(d, layout.NewZOrderGenerator(1, "ts"), defaultLayout(d), OREOConfig{
		Feed: testFeedConfig, MTS: mts.Config{Alpha: 10}, Epsilon: 0.0,
	}, 11)
	for i := 0; i < 400; i++ {
		o.Observe(tsQuery(i, int64(i%300), int64(i%300)+50))
	}
	// A single stable top column means at most one zorder candidate name;
	// even with eps=0 the name dedup must keep the space at <= 2.
	if o.StateSpaceSize() > 2 {
		t.Errorf("|S| = %d; identical layout admitted repeatedly", o.StateSpaceSize())
	}
}

func TestMTSOptimalSwitchesBetweenOracleLayouts(t *testing.T) {
	d := testDataset(800)
	catL := layout.NewSortGenerator("cat").Generate(d, nil, 8)
	reorg := mts.New(mts.Config{Alpha: 5}, rand.New(rand.NewSource(13)))
	m := NewMTSOptimal(defaultLayout(d), []*layout.Layout{catL}, reorg)
	if m.StateSpaceSize() != 2 {
		t.Fatalf("|S| = %d", m.StateSpaceSize())
	}
	switched := false
	for i := 0; i < 400 && !switched; i++ {
		switched = m.Observe(catQuery(i, "a")) != nil
	}
	if !switched {
		t.Error("MTS Optimal never left the default layout on a cat workload")
	}
	if m.Current() != catL {
		t.Errorf("current = %s", m.Current().Name)
	}
}

func TestOfflineOptimalFollowsSchedule(t *testing.T) {
	d := testDataset(400)
	def := defaultLayout(d)
	catL := layout.NewSortGenerator("cat").Generate(d, nil, 8)

	stream := &workload.Stream{
		Segments: []workload.Segment{
			{Template: 0, Start: 0, Length: 10},
			{Template: 1, Start: 10, Length: 10},
			{Template: 0, Start: 20, Length: 10},
		},
	}
	for i := 0; i < 30; i++ {
		tmpl := 0
		if i >= 10 && i < 20 {
			tmpl = 1
		}
		stream.Queries = append(stream.Queries, query.Query{ID: i, Template: tmpl})
	}
	o := NewOfflineOptimal(def, stream, map[int]*layout.Layout{0: def, 1: catL})

	switches := 0
	for _, q := range stream.Queries {
		if target := o.Observe(q); target != nil {
			switches++
			if q.ID != 10 && q.ID != 20 {
				t.Fatalf("switch at query %d, want only at segment starts", q.ID)
			}
		}
	}
	if switches != 2 {
		t.Errorf("switches = %d, want 2", switches)
	}
}

func TestOfflineOptimalSkipsUnknownTemplates(t *testing.T) {
	d := testDataset(100)
	def := defaultLayout(d)
	stream := &workload.Stream{
		Segments: []workload.Segment{{Template: 3, Start: 0, Length: 5}},
		Queries:  []query.Query{{ID: 0, Template: 3}},
	}
	o := NewOfflineOptimal(def, stream, nil)
	if o.Observe(stream.Queries[0]) != nil {
		t.Error("switched to a layout that does not exist")
	}
}

func TestPolicyNames(t *testing.T) {
	d := testDataset(100)
	def := defaultLayout(d)
	reorg := mts.New(mts.Config{Alpha: 5}, rand.New(rand.NewSource(1)))
	names := map[string]string{
		NewStatic(def).Name():                                  "Static",
		NewGreedy(newFeed(d, 1), def).Name():                   "Greedy",
		NewRegret(newFeed(d, 1), def, 5).Name():                "Regret",
		NewMTSOptimal(def, nil, reorg).Name():                  "MTS Optimal",
		NewOfflineOptimal(def, &workload.Stream{}, nil).Name(): "Offline Optimal",
	}
	for got, want := range names {
		if got != want {
			t.Errorf("policy name %q, want %q", got, want)
		}
	}
}
