package oreo_test

import (
	"fmt"
	"math/rand"

	"oreo"
)

// buildDemoTable makes a tiny deterministic events table.
func buildDemoTable() *oreo.Dataset {
	schema := oreo.NewSchema(
		oreo.Column{Name: "ts", Type: oreo.Int64},
		oreo.Column{Name: "kind", Type: oreo.String},
	)
	b := oreo.NewDatasetBuilder(schema, 1000)
	kinds := []string{"click", "purchase", "view"}
	for i := 0; i < 1000; i++ {
		b.AppendRow(oreo.Int(int64(i)), oreo.Str(kinds[i%3]))
	}
	return b.Build()
}

// The minimal lifecycle: construct an optimizer over a table, process
// queries, read the accounting.
func ExampleNew() {
	ds := buildDemoTable()
	opt, err := oreo.New(ds, oreo.Config{
		Alpha:       40,
		Partitions:  10,
		InitialSort: []string{"ts"},
	})
	if err != nil {
		panic(err)
	}
	dec := opt.ProcessQuery(oreo.Query{ID: 0, Preds: []oreo.Predicate{
		oreo.IntRange("ts", 0, 99),
	}})
	// The time-sorted layout skips 9 of 10 partitions for a 10% range.
	fmt.Printf("scanned %.0f%% of the table\n", dec.Cost*100)
	fmt.Printf("reorganized: %v\n", dec.Reorganized)
	// Output:
	// scanned 10% of the table
	// reorganized: false
}

// Layouts can be generated directly and compared on workloads, without
// running the full optimizer.
func ExampleGenerator() {
	ds := buildDemoTable()
	timeLayout := oreo.NewSortGenerator("ts").Generate(ds, nil, 10)
	kindLayout := oreo.NewSortGenerator("kind").Generate(ds, nil, 10)

	q := oreo.Query{Preds: []oreo.Predicate{oreo.StrEq("kind", "purchase")}}
	fmt.Printf("time layout scans %.0f%%\n", timeLayout.Cost(q)*100)
	fmt.Printf("kind layout scans %.0f%%\n", kindLayout.Cost(q)*100)
	// Output:
	// time layout scans 100%
	// kind layout scans 40%
}

// Quickstart: a table starts in arrival order, a dashboard workload
// keeps that layout, then the workload drifts to status filters and
// OREO admits a status-aware layout and switches once the counters say
// the move pays for itself. Stats carries the competitive bound
// 2·H(|S_max|) next to the bill.
func Example_quickstart() {
	schema := oreo.NewSchema(
		oreo.Column{Name: "order_ts", Type: oreo.Int64},
		oreo.Column{Name: "status", Type: oreo.String},
		oreo.Column{Name: "amount", Type: oreo.Float64},
	)
	const rows = 20000
	rng := rand.New(rand.NewSource(1))
	b := oreo.NewDatasetBuilder(schema, rows)
	statuses := []string{"cancelled", "delivered", "pending", "returned"}
	for i := 0; i < rows; i++ {
		b.AppendRow(
			oreo.Int(int64(i)),
			oreo.Str(statuses[rng.Intn(len(statuses))]),
			oreo.Float(rng.Float64()*500),
		)
	}
	opt, err := oreo.New(b.Build(), oreo.Config{
		Partitions:  16,
		WindowSize:  100,
		Alpha:       40, // reorganization ≈ 40 full scans on this setup
		InitialSort: []string{"order_ts"},
		Seed:        7,
	})
	if err != nil {
		panic(err)
	}
	run := func(from, to int, pred func(i int) oreo.Predicate) {
		for i := from; i < to; i++ {
			dec := opt.ProcessQuery(oreo.Query{ID: i, Preds: []oreo.Predicate{pred(i)}})
			if dec.Reorganized {
				fmt.Printf("  query %4d: switched to %s\n", i, dec.Layout.Name)
			}
		}
		st := opt.Stats()
		fmt.Printf("  stats: %d queries, query cost %.1f, %d reorgs (cost %.0f), |S|=%d, bound 2H(|Smax|)=%.2f\n",
			st.Queries, st.QueryCost, st.Reorganizations, st.ReorgCost, st.States, st.CompetitiveBound)
	}

	fmt.Println("phase 1: time-range queries (default layout is ideal)")
	run(0, 600, func(int) oreo.Predicate {
		lo := rng.Int63n(rows - 1000)
		return oreo.IntRange("order_ts", lo, lo+1000)
	})
	fmt.Println("phase 2: status-filter queries (workload drift)")
	run(600, 2000, func(i int) oreo.Predicate { return oreo.StrEq("status", statuses[i%2]) })
	// Output:
	// phase 1: time-range queries (default layout is ideal)
	//   stats: 600 queries, query cost 67.2, 0 reorgs (cost 0), |S|=2, bound 2H(|Smax|)=3.00
	// phase 2: status-filter queries (workload drift)
	//   query  772: switched to qdtree(cuts=2,leaves=3,w=q600..699,tree=0e41a25d27377d44)
	//   stats: 2000 queries, query cost 544.2, 1 reorgs (cost 40), |S|=3, bound 2H(|Smax|)=3.67
}

// Workload drift, the scenario of the paper's introduction: three
// analyst teams take turns (regional rollups, brand deep-dives,
// date-range forecasting) over one sales table. The same stream runs
// twice, once pinned to the initial time layout and once under OREO,
// and the cumulative bills are compared every 600 queries.
func Example_workloadDrift() {
	const rows = 30000
	schema := oreo.NewSchema(
		oreo.Column{Name: "sold_day", Type: oreo.Int64},
		oreo.Column{Name: "region", Type: oreo.String},
		oreo.Column{Name: "brand", Type: oreo.String},
		oreo.Column{Name: "units", Type: oreo.Int64},
		oreo.Column{Name: "revenue", Type: oreo.Float64},
	)
	rng := rand.New(rand.NewSource(2))
	regions := []string{"apac", "emea", "latam", "na"}
	brand := func(i int) string { return fmt.Sprintf("brand-%02d", i) }
	b := oreo.NewDatasetBuilder(schema, rows)
	for i := 0; i < rows; i++ {
		units := int64(1 + rng.Intn(40))
		b.AppendRow(
			oreo.Int(int64(i/30)), // ~30 sales per day, arrival-ordered
			oreo.Str(regions[rng.Intn(len(regions))]),
			oreo.Str(brand(rng.Intn(12))),
			oreo.Int(units),
			oreo.Float(float64(units)*(5+rng.Float64()*95)),
		)
	}
	ds := b.Build()

	rng = rand.New(rand.NewSource(3))
	var qs []oreo.Query
	add := func(preds ...oreo.Predicate) { qs = append(qs, oreo.Query{ID: len(qs), Preds: preds}) }
	for i := 0; i < 1200; i++ { // epoch 1: regional rollups
		add(oreo.StrEq("region", regions[rng.Intn(len(regions))]))
	}
	for i := 0; i < 1200; i++ { // epoch 2: brand deep-dives
		add(oreo.StrEq("brand", brand(rng.Intn(12))), oreo.IntGE("units", 20))
	}
	for i := 0; i < 1200; i++ { // epoch 3: date-range forecasting
		lo := rng.Int63n(rows/30 - 60)
		add(oreo.IntRange("sold_day", lo, lo+60))
	}

	cfg := oreo.Config{Alpha: 50, Partitions: 24, InitialSort: []string{"sold_day"}, Seed: 4}
	// A window so large it never fills: no candidate is ever generated,
	// so this optimizer is the paper's Static policy.
	staticCfg := cfg
	staticCfg.WindowSize = len(qs) + 1
	static, err := oreo.New(ds, staticCfg)
	if err != nil {
		panic(err)
	}
	cfg.WindowSize, cfg.Period = 150, 150
	dynamic, err := oreo.New(ds, cfg)
	if err != nil {
		panic(err)
	}

	fmt.Printf("%8s %14s %14s %10s\n", "query#", "static cost", "oreo cost", "oreo |S|")
	for i, q := range qs {
		static.ProcessQuery(q)
		if dec := dynamic.ProcessQuery(q); dec.Reorganized {
			fmt.Printf("%8d   -> reorganized to %s\n", i, dec.Layout.Name)
		}
		if (i+1)%600 == 0 {
			ss, sd := static.Stats(), dynamic.Stats()
			fmt.Printf("%8d %14.1f %14.1f %10d\n",
				i+1, ss.QueryCost+ss.ReorgCost, sd.QueryCost+sd.ReorgCost, sd.States)
		}
	}
	ss, sd := static.Stats(), dynamic.Stats()
	staticTotal, oreoTotal := ss.QueryCost+ss.ReorgCost, sd.QueryCost+sd.ReorgCost
	fmt.Printf("static total: %.1f   oreo total: %.1f (%.1f%% better, %d reorgs, worst-case bound %.2fx)\n",
		staticTotal, oreoTotal, (staticTotal-oreoTotal)/staticTotal*100,
		sd.Reorganizations, sd.CompetitiveBound)
	// Output:
	//   query#    static cost      oreo cost   oreo |S|
	//      199   -> reorganized to qdtree(cuts=4,leaves=4,w=q0..149,tree=b921626489702d0f)
	//      600          600.0          349.3          2
	//     1200         1200.0          499.3          2
	//     1438   -> reorganized to qdtree(cuts=13,leaves=24,w=q1200..1349,tree=cee927d3f0830030)
	//     1800         1800.0          803.1          3
	//     2400         2400.0          829.3          3
	//     2455   -> reorganized to sort(sold_day)
	//     3000         2460.3          988.8          3
	//     3600         2521.5         1050.0          3
	// static total: 2521.5   oreo total: 1050.0 (58.4% better, 3 reorgs, worst-case bound 3.67x)
}

// The paper's multi-table configuration (§VIII): a star-schema workload
// over an orders fact table and a customers dimension. Each table runs
// its own OREO and sees only the predicates on its own columns, so
// each table's layout follows the part of the workload it can serve:
// the late triage epoch moves orders and leaves customers alone.
func ExampleMultiOptimizer() {
	rng := rand.New(rand.NewSource(11))
	ob := oreo.NewDatasetBuilder(oreo.NewSchema(
		oreo.Column{Name: "order_day", Type: oreo.Int64},
		oreo.Column{Name: "priority", Type: oreo.String},
		oreo.Column{Name: "total", Type: oreo.Float64},
	), 24000)
	prios := []string{"high", "low", "medium", "urgent"}
	for i := 0; i < 24000; i++ {
		ob.AppendRow(oreo.Int(int64(i/40)), oreo.Str(prios[rng.Intn(len(prios))]), oreo.Float(rng.Float64()*1000))
	}
	cb := oreo.NewDatasetBuilder(oreo.NewSchema(
		oreo.Column{Name: "signup_day", Type: oreo.Int64},
		oreo.Column{Name: "segment", Type: oreo.String},
		oreo.Column{Name: "nation", Type: oreo.String},
	), 12000)
	segments := []string{"automobile", "building", "furniture", "household", "machinery"}
	nations := []string{"br", "cn", "de", "fr", "in", "jp", "uk", "us"}
	for i := 0; i < 12000; i++ {
		cb.AppendRow(oreo.Int(int64(i/20)), oreo.Str(segments[rng.Intn(len(segments))]), oreo.Str(nations[rng.Intn(len(nations))]))
	}

	m := oreo.NewMulti()
	if err := m.AddTable("orders", ob.Build(), oreo.Config{
		Alpha: 40, Partitions: 16, WindowSize: 100, InitialSort: []string{"order_day"}, Seed: 12,
	}); err != nil {
		panic(err)
	}
	if err := m.AddTable("customers", cb.Build(), oreo.Config{
		Alpha: 40, Partitions: 12, WindowSize: 100, InitialSort: []string{"signup_day"}, Seed: 13,
	}); err != nil {
		panic(err)
	}
	report := func(tag string) {
		st := m.Stats()
		for _, name := range m.Tables() {
			s := st[name]
			fmt.Printf("  %-10s queries=%-5d queryCost=%-8.1f reorgs=%d (layout: %s)\n",
				name, s.Queries, s.QueryCost, s.Reorganizations, m.Optimizer(name).CurrentLayout().Name)
		}
		q, r := m.TotalCost()
		fmt.Printf("  %-10s combined bill: %.1f query + %.0f reorg\n", tag, q, r)
	}

	// A join query carries predicates for both tables; each table's
	// optimizer sees only its own columns.
	fmt.Println("epoch 1: date-range reporting (both layouts already fit)")
	for i := 0; i < 900; i++ {
		lo := rng.Int63n(500)
		q := oreo.Query{ID: i, Preds: []oreo.Predicate{oreo.IntRange("order_day", lo, lo+30)}}
		if i%3 == 0 { // join with a recent-customers filter
			q.Preds = append(q.Preds, oreo.IntGE("signup_day", 400))
		}
		m.ProcessQuery(q)
	}
	report("epoch 1")

	fmt.Println("epoch 2: segment analysis")
	for i := 900; i < 2400; i++ {
		q := oreo.Query{ID: i, Preds: []oreo.Predicate{
			oreo.StrEq("segment", segments[i%len(segments)]),
			oreo.StrEq("nation", nations[i%len(nations)]),
		}}
		if i%4 == 0 { // the join side keeps a weak date filter on orders
			q.Preds = append(q.Preds, oreo.IntGE("order_day", 100))
		}
		m.ProcessQuery(q)
	}
	report("epoch 2")

	fmt.Println("epoch 3: priority triage (only orders reorganizes)")
	for i := 2400; i < 3600; i++ {
		m.ProcessQuery(oreo.Query{ID: i, Preds: []oreo.Predicate{
			oreo.StrIn("priority", "urgent", "high"),
			oreo.FloatGE("total", 800),
		}})
	}
	report("epoch 3")
	// Output:
	// epoch 1: date-range reporting (both layouts already fit)
	//   orders     queries=900   queryCost=101.2    reorgs=0 (layout: sort(order_day))
	//   customers  queries=300   queryCost=100.0    reorgs=0 (layout: sort(signup_day))
	//   epoch 1    combined bill: 201.2 query + 0 reorg
	// epoch 2: segment analysis
	//   orders     queries=1275  queryCost=420.4    reorgs=1 (layout: qdtree(cuts=1,leaves=2,w=q900..1296,tree=3a32c22d442546f8))
	//   customers  queries=1800  queryCost=429.6    reorgs=1 (layout: qdtree(cuts=13,leaves=12,w=q900..999,tree=50c42a6dda52219f))
	//   epoch 2    combined bill: 850.0 query + 80 reorg
	// epoch 3: priority triage (only orders reorganizes)
	//   orders     queries=2475  queryCost=701.7    reorgs=2 (layout: qdtree(cuts=2,leaves=4,w=q2425..2524,tree=25f10431e412f195))
	//   customers  queries=1800  queryCost=429.6    reorgs=1 (layout: qdtree(cuts=13,leaves=12,w=q900..999,tree=50c42a6dda52219f))
	//   epoch 3    combined bill: 1131.3 query + 120 reorg
}

// hotColumnGenerator is a user-defined oreo.Generator: it sorts by
// whichever column the recent workload filters on most.
type hotColumnGenerator struct{ fallback string }

func (g *hotColumnGenerator) Name() string { return "hot-column" }

func (g *hotColumnGenerator) Generate(d *oreo.Dataset, qs []oreo.Query, k int) *oreo.Layout {
	counts := make(map[string]int)
	for _, q := range qs {
		for _, p := range q.Preds {
			counts[p.Col]++
		}
	}
	hot, best := g.fallback, 0
	for col, n := range counts {
		if _, ok := d.Schema().Index(col); ok && (n > best || (n == best && col < hot)) {
			hot, best = col, n
		}
	}
	// The built-in sort generator does the mechanics; the value added
	// here is the workload-driven column choice.
	return oreo.NewSortGenerator(hot).Generate(d, qs, k)
}

// OREO is agnostic to how layouts are generated: Config.Generator
// plugs in any Generator, and admission by ε-distance, the counters,
// the phases and the worst-case bound work unchanged on top of it.
func ExampleGenerator_custom() {
	const rows = 15000
	rng := rand.New(rand.NewSource(8))
	b := oreo.NewDatasetBuilder(oreo.NewSchema(
		oreo.Column{Name: "ts", Type: oreo.Int64},
		oreo.Column{Name: "tenant", Type: oreo.String},
		oreo.Column{Name: "cpu", Type: oreo.Float64},
	), rows)
	for i := 0; i < rows; i++ {
		b.AppendRow(oreo.Int(int64(i)), oreo.Str(fmt.Sprintf("tenant-%02d", rng.Intn(20))), oreo.Float(rng.Float64()*100))
	}
	opt, err := oreo.New(b.Build(), oreo.Config{
		Alpha: 30, Partitions: 20, WindowSize: 100,
		Generator:   &hotColumnGenerator{fallback: "ts"},
		InitialSort: []string{"ts"},
		Seed:        9,
	})
	if err != nil {
		panic(err)
	}

	epochs := []struct {
		name string
		pred func() oreo.Predicate
	}{
		{"tenant filters", func() oreo.Predicate {
			return oreo.StrEq("tenant", fmt.Sprintf("tenant-%02d", rng.Intn(20)))
		}},
		{"cpu hotspots", func() oreo.Predicate {
			lo := rng.Float64() * 90
			return oreo.FloatRange("cpu", lo, lo+5)
		}},
		{"time windows", func() oreo.Predicate {
			lo := rng.Int63n(rows - 500)
			return oreo.IntRange("ts", lo, lo+500)
		}},
	}
	id := 0
	for _, e := range epochs {
		var cost float64
		for i := 0; i < 800; i++ {
			dec := opt.ProcessQuery(oreo.Query{ID: id, Preds: []oreo.Predicate{e.pred()}})
			id++
			cost += dec.Cost
			if dec.Reorganized {
				fmt.Printf("  [%s] switched to %s\n", e.name, dec.Layout.Name)
			}
		}
		fmt.Printf("epoch %-16s avg fraction scanned %.3f\n", e.name, cost/800)
	}
	st := opt.Stats()
	fmt.Printf("total: %d reorgs over %d queries, |Smax|=%d, worst-case bound %.2fx offline\n",
		st.Reorganizations, st.Queries, st.MaxStates, st.CompetitiveBound)
	// Output:
	//   [tenant filters] switched to sort(tenant)
	// epoch tenant filters   avg fraction scanned 0.265
	//   [cpu hotspots] switched to sort(cpu)
	// epoch cpu hotspots     avg fraction scanned 0.261
	//   [time windows] switched to sort(ts)
	// epoch time windows     avg fraction scanned 0.141
	// total: 3 reorgs over 2400 queries, |Smax|=3, worst-case bound 3.67x offline
}

// The paper's production motivation: an append-only ingestion log
// serves dashboard time ranges until an incident turns the workload to
// per-collector triage and a failure sweep, then back. MaxStates caps
// the state space, so stale layouts are evicted as new ones arrive.
func Example_telemetryOps() {
	const (
		rows       = 40000
		spanSec    = 30 * 24 * 3600 // one month of log
		collectors = 30
		day        = int64(24 * 3600)
	)
	rng := rand.New(rand.NewSource(5))
	b := oreo.NewDatasetBuilder(oreo.NewSchema(
		oreo.Column{Name: "arrival_time", Type: oreo.Int64},
		oreo.Column{Name: "collector", Type: oreo.String},
		oreo.Column{Name: "status", Type: oreo.String},
		oreo.Column{Name: "bytes", Type: oreo.Int64},
	), rows)
	collector := 0
	for i := 0; i < rows; i++ {
		if rng.Float64() < 0.01 { // bursty: collectors report in runs
			collector = rng.Intn(collectors)
		}
		status := "OK"
		if rng.Float64() < 0.03 {
			status = "FAILED"
		}
		b.AppendRow(
			oreo.Int(int64(float64(i)/rows*spanSec)),
			oreo.Str(fmt.Sprintf("collector-%02d", collector)),
			oreo.Str(status),
			oreo.Int(rng.Int63n(1<<30)),
		)
	}
	opt, err := oreo.New(b.Build(), oreo.Config{
		Alpha: 60, Partitions: 32, WindowSize: 120,
		MaxStates:   4, // cap the state space; prune redundant layouts
		InitialSort: []string{"arrival_time"},
		Seed:        6,
	})
	if err != nil {
		panic(err)
	}

	rng = rand.New(rand.NewSource(7))
	id := 0
	phase := func(name string, n int, preds func() []oreo.Predicate) {
		var cost float64
		reorgs := 0
		for i := 0; i < n; i++ {
			dec := opt.ProcessQuery(oreo.Query{ID: id, Preds: preds()})
			id++
			cost += dec.Cost
			if dec.Reorganized {
				reorgs++
				fmt.Printf("  reorganized to %s\n", dec.Layout.Name)
			}
		}
		fmt.Printf("%-22s avg scan %.3f of table, %d reorgs this phase, |S|=%d\n",
			name, cost/float64(n), reorgs, opt.Stats().States)
	}
	dashboards := func() []oreo.Predicate {
		width := day * int64(1+rng.Intn(3))
		lo := rng.Int63n(spanSec - width)
		return []oreo.Predicate{oreo.IntRange("arrival_time", lo, lo+width)}
	}
	phase("dashboards", 900, dashboards)
	phase("triage", 1500, func() []oreo.Predicate {
		return []oreo.Predicate{oreo.StrEq("collector", fmt.Sprintf("collector-%02d", rng.Intn(collectors)))}
	})
	phase("failure sweep", 1200, func() []oreo.Predicate {
		lo := spanSec - day*int64(2+rng.Intn(5))
		return []oreo.Predicate{oreo.StrEq("status", "FAILED"), oreo.IntGE("arrival_time", lo)}
	})
	phase("dashboards (again)", 900, dashboards)

	st := opt.Stats()
	fmt.Printf("month total: %d queries, query cost %.0f, %d reorgs (cost %.0f), |Smax|=%d, bound %.2fx\n",
		st.Queries, st.QueryCost, st.Reorganizations, st.ReorgCost, st.MaxStates, st.CompetitiveBound)
	// Output:
	// dashboards             avg scan 0.098 of table, 0 reorgs this phase, |S|=2
	//   reorganized to qdtree(cuts=29,leaves=30,w=q960..1079,tree=8a0205c6a98a8674)
	// triage                 avg scan 0.126 of table, 1 reorgs this phase, |S|=3
	//   reorganized to sort(arrival_time)
	//   reorganized to qdtree(cuts=6,leaves=8,w=q2400..2519,tree=f09bdde784d61795)
	// failure sweep          avg scan 0.157 of table, 2 reorgs this phase, |S|=4
	//   reorganized to qdtree(cuts=240,leaves=32,w=q360..479,tree=6ea983b74a081e14)
	//   reorganized to sort(arrival_time)
	// dashboards (again)     avg scan 0.231 of table, 2 reorgs this phase, |S|=4
	// month total: 4500 queries, query cost 673, 5 reorgs (cost 300), |Smax|=4, bound 4.17x
}
