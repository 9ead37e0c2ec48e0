package sim

import (
	"math"
	"testing"

	"oreo/internal/layout"
	"oreo/internal/policy"
	"oreo/internal/query"
	"oreo/internal/storage"
	"oreo/internal/table"
)

func testDataset(n int) *table.Dataset {
	schema := table.NewSchema(
		table.Column{Name: "ts", Type: table.Int64},
		table.Column{Name: "cat", Type: table.String},
	)
	b := table.NewBuilder(schema, n)
	cats := []string{"a", "b"}
	for i := 0; i < n; i++ {
		b.AppendRow(table.Int(int64(i)), table.Str(cats[i%2]))
	}
	return b.Build()
}

func tsLayout(d *table.Dataset) *layout.Layout {
	return layout.NewSortGenerator("ts").Generate(d, nil, 10)
}

func catLayout(d *table.Dataset) *layout.Layout {
	return layout.NewSortGenerator("cat").Generate(d, nil, 10)
}

func tsQuery(id int, lo, hi int64) query.Query {
	return query.Query{ID: id, Preds: []query.Predicate{query.IntRange("ts", lo, hi)}}
}

// scriptedPolicy switches to a fixed layout at a scripted query ID.
type scriptedPolicy struct {
	current  *layout.Layout
	switchAt map[int]*layout.Layout
}

func (p *scriptedPolicy) Name() string { return "scripted" }
func (p *scriptedPolicy) Observe(q query.Query) *layout.Layout {
	if l, ok := p.switchAt[q.ID]; ok {
		p.current = l
		return l
	}
	return nil
}
func (p *scriptedPolicy) Current() *layout.Layout { return p.current }

func TestRunAccountsQueryCosts(t *testing.T) {
	d := testDataset(100)
	l := tsLayout(d)
	qs := []query.Query{tsQuery(0, 0, 9), tsQuery(1, 0, 19)}
	res := Run(qs, policy.NewStatic(l), Config{Alpha: 80})
	if res.Switches != 0 || res.ReorgCost != 0 {
		t.Fatalf("static run reorganized: %+v", res)
	}
	if math.Abs(res.QueryCost-0.3) > 1e-12 {
		t.Errorf("QueryCost = %g, want 0.3 (0.1 + 0.2)", res.QueryCost)
	}
	if res.Queries != 2 || res.Policy != "Static" {
		t.Errorf("metadata = %+v", res)
	}
	if res.Total() != res.QueryCost {
		t.Errorf("Total = %g", res.Total())
	}
}

func TestRunChargesAlphaPerSwitch(t *testing.T) {
	d := testDataset(100)
	a, b := tsLayout(d), catLayout(d)
	pol := &scriptedPolicy{current: a, switchAt: map[int]*layout.Layout{2: b}}
	qs := make([]query.Query, 5)
	for i := range qs {
		qs[i] = tsQuery(i, 0, 9)
	}
	res := Run(qs, pol, Config{Alpha: 7})
	if res.Switches != 1 || res.ReorgCost != 7 {
		t.Errorf("switches=%d reorg=%g", res.Switches, res.ReorgCost)
	}
}

func TestRunIgnoresNoopSwitch(t *testing.T) {
	d := testDataset(100)
	a := tsLayout(d)
	// Policy "switches" to the layout already being served.
	pol := &scriptedPolicy{current: a, switchAt: map[int]*layout.Layout{1: a}}
	qs := []query.Query{tsQuery(0, 0, 9), tsQuery(1, 0, 9), tsQuery(2, 0, 9)}
	res := Run(qs, pol, Config{Alpha: 7})
	if res.Switches != 0 {
		t.Errorf("no-op switch charged: %+v", res)
	}
}

func TestRunDelaySemantics(t *testing.T) {
	d := testDataset(100)
	a, b := tsLayout(d), catLayout(d)
	// Query ts in [0,9]: costs 0.1 on the ts layout. On the cat layout
	// (stable sort by cat) the ten matching rows split across the first
	// partition of each cat group, so the cost is 0.2.
	const onA, onB = 0.1, 0.2

	rows := []struct {
		name     string
		delay    int
		script   map[int]*layout.Layout
		queries  int
		cost     float64
		switches int
		final    *layout.Layout
	}{
		// Decided at query 1, Δ=2: queries 1 and 2 still on ts, query 3 on cat.
		{"delay keeps the old layout for Δ queries", 2, map[int]*layout.Layout{1: b}, 4, 3*onA + onB, 1, b},
		// Δ=0: the switch applies to query 1 itself.
		{"no delay serves the deciding query on the new layout", 0, map[int]*layout.Layout{1: b}, 4, onA + 3*onB, 1, b},
		// A→B at query 1, B→A at query 2, inside Δ=3: the policy ends in
		// A, so the ledger must too — the abandoned B never lands, the one
		// switch stays charged, the return is free.
		{"back to serving inside Δ aborts the swap", 3, map[int]*layout.Layout{1: b, 2: a}, 8, 8 * onA, 1, a},
	}
	for _, row := range rows {
		pol := &scriptedPolicy{current: a, switchAt: row.script}
		qs := make([]query.Query, row.queries)
		for i := range qs {
			qs[i] = tsQuery(i, 0, 9)
		}
		res := Run(qs, pol, Config{Alpha: 5, Delay: row.delay})
		if math.Abs(res.QueryCost-row.cost) > 1e-9 {
			t.Errorf("%s: QueryCost = %g, want %g", row.name, res.QueryCost, row.cost)
		}
		// Delay must not change the reorganization cost (paper §VI-D5).
		if res.Switches != row.switches || res.ReorgCost != 5*float64(row.switches) {
			t.Errorf("%s: %d switches, reorg cost %g; want %d, %g", row.name, res.Switches, res.ReorgCost, row.switches, 5*float64(row.switches))
		}
		if res.FinalLayout != row.final.Name || pol.Current() != row.final {
			t.Errorf("%s: ledger ends serving %q, policy in %q, want both %q", row.name, res.FinalLayout, pol.Current().Name, row.final.Name)
		}
	}
}

func TestRunCurveSampling(t *testing.T) {
	d := testDataset(100)
	l := tsLayout(d)
	qs := make([]query.Query, 10)
	for i := range qs {
		qs[i] = tsQuery(i, 0, 9) // cost 0.1 each
	}
	res := Run(qs, policy.NewStatic(l), Config{Alpha: 1, CurveStride: 2})
	if len(res.Curve) != 5 {
		t.Fatalf("curve has %d points, want 5", len(res.Curve))
	}
	for i := 1; i < len(res.Curve); i++ {
		if res.Curve[i] < res.Curve[i-1] {
			t.Fatal("cumulative curve decreased")
		}
	}
	if math.Abs(res.Curve[4]-1.0) > 1e-9 {
		t.Errorf("final curve point = %g, want 1.0", res.Curve[4])
	}
}

func TestRunPhysicalTimes(t *testing.T) {
	d := testDataset(100)
	a, b := tsLayout(d), catLayout(d)
	disk := storage.DefaultDiskModel()
	pol := &scriptedPolicy{current: a, switchAt: map[int]*layout.Layout{1: b}}
	qs := []query.Query{tsQuery(0, 0, 9), tsQuery(1, 0, 9), tsQuery(2, 0, 9)}
	res := Run(qs, pol, Config{Alpha: 5, Disk: &disk, TableMB: 1000})
	if res.QuerySeconds <= 0 {
		t.Error("no physical query time accounted")
	}
	wantReorg := disk.ReorgSeconds(1000)
	if math.Abs(res.ReorgSeconds-wantReorg) > 1e-9 {
		t.Errorf("ReorgSeconds = %g, want %g", res.ReorgSeconds, wantReorg)
	}
	if res.TotalSeconds() != res.QuerySeconds+res.ReorgSeconds {
		t.Error("TotalSeconds inconsistent")
	}
}

// spacePolicy reports a fake state-space size.
type spacePolicy struct {
	scriptedPolicy
	size int
}

func (p *spacePolicy) StateSpaceSize() int { return p.size }

func TestRunSpaceSampling(t *testing.T) {
	d := testDataset(100)
	l := tsLayout(d)
	pol := &spacePolicy{scriptedPolicy: scriptedPolicy{current: l}, size: 4}
	qs := make([]query.Query, 10)
	for i := range qs {
		qs[i] = tsQuery(i, 0, 9)
	}
	res := Run(qs, pol, Config{Alpha: 1, SpaceStride: 2})
	if res.AvgSpace != 4 || res.MaxSpace != 4 {
		t.Errorf("space stats = %g/%d, want 4/4", res.AvgSpace, res.MaxSpace)
	}
}

func TestRunEmptyStream(t *testing.T) {
	d := testDataset(10)
	res := Run(nil, policy.NewStatic(tsLayout(d)), Config{Alpha: 1})
	if res.Queries != 0 || res.QueryCost != 0 {
		t.Errorf("empty stream result = %+v", res)
	}
}
