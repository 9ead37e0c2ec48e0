package experiments

import (
	"testing"

	"oreo/internal/datagen"
	"oreo/internal/manager"
	"oreo/internal/policy"
	"oreo/internal/sim"
)

// tinyScenario keeps integration tests fast while exercising every
// moving part (candidate generation, admission, MTS switching).
func tinyScenario(t *testing.T, dataset string) *Scenario {
	t.Helper()
	s, err := Build(ScenarioConfig{
		Dataset:     dataset,
		Rows:        6000,
		NumQueries:  1500,
		NumSegments: 5,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func tinyParams() RunParams {
	p := DefaultParams()
	p.Window = 100
	p.Period = 100
	p.Alpha = 40
	return p
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(ScenarioConfig{Dataset: "nope", Rows: 10, NumQueries: 10, NumSegments: 1}); err == nil {
		t.Error("unknown dataset accepted")
	}
	if _, err := Build(ScenarioConfig{Dataset: datagen.TPCH, Rows: 0, NumQueries: 10}); err == nil {
		t.Error("zero rows accepted")
	}
}

func TestBuildScenarioShape(t *testing.T) {
	s := tinyScenario(t, datagen.TPCH)
	if s.Data.NumRows() != 6000 {
		t.Errorf("rows = %d", s.Data.NumRows())
	}
	if len(s.Stream.Queries) != 1500 {
		t.Errorf("queries = %d", len(s.Stream.Queries))
	}
	if len(s.Stream.Segments) != 5 {
		t.Errorf("segments = %d", len(s.Stream.Segments))
	}
	if s.Partitions < 4 {
		t.Errorf("partitions = %d", s.Partitions)
	}
	if s.Default == nil || s.Default.Part.NumPartitions != s.Partitions {
		t.Error("default layout missing or mis-sized")
	}
}

func TestDefaultAndSmallScenarios(t *testing.T) {
	d := DefaultScenario(datagen.Telemetry)
	if d.NumQueries != 24000 {
		t.Errorf("telemetry default queries = %d, want 24000 (paper)", d.NumQueries)
	}
	if DefaultScenario(datagen.TPCH).NumQueries != 30000 {
		t.Error("tpch default queries != 30000")
	}
	sm := SmallScenario(datagen.TPCH)
	if sm.Rows >= d.Rows && sm.NumQueries >= d.NumQueries {
		t.Error("small scenario not smaller than default")
	}
}

func TestTimeColumns(t *testing.T) {
	cases := map[string]string{
		datagen.TPCH:      "o_orderdate",
		datagen.TPCDS:     "ss_sold_date",
		datagen.Telemetry: "arrival_time",
		"unknown":         "",
	}
	for ds, want := range cases {
		if got := TimeColumnFor(ds); got != want {
			t.Errorf("TimeColumnFor(%s) = %q, want %q", ds, got, want)
		}
	}
}

func TestGeneratorKinds(t *testing.T) {
	s := tinyScenario(t, datagen.TPCH)
	if s.Generator(GenQdTree).Name() != "qdtree" {
		t.Error("qdtree generator wrong")
	}
	if s.Generator(GenZOrder).Name() != "zorder" {
		t.Error("zorder generator wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown generator kind did not panic")
		}
	}()
	s.Generator("nope")
}

func TestStaticAndPerTemplateLayouts(t *testing.T) {
	s := tinyScenario(t, datagen.TPCH)
	gen := s.Generator(GenQdTree)
	static := s.StaticLayout(gen)
	if static.Part.TotalRows != 6000 {
		t.Error("static layout does not cover the dataset")
	}
	perT := s.PerTemplateLayouts(gen)
	byT := s.Stream.QueriesByTemplate()
	if len(perT) != len(byT) {
		t.Errorf("per-template layouts = %d, templates in stream = %d", len(perT), len(byT))
	}
	// An oracle layout should beat the default on its own template for
	// at least one template (otherwise switching can never pay off).
	improved := false
	for tmpl, l := range perT {
		qs := byT[tmpl]
		if len(qs) > 100 {
			qs = qs[:100]
		}
		if l.AvgCost(qs) < s.Default.AvgCost(qs)-0.01 {
			improved = true
			break
		}
	}
	if !improved {
		t.Error("no per-template layout beats the default on its own template")
	}
}

func TestFig3SmallShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	s := tinyScenario(t, datagen.TPCH)
	rows := Fig3(s, tinyParams())
	if len(rows) != 8 {
		t.Fatalf("Fig3 rows = %d, want 8 (4 policies x 2 generators)", len(rows))
	}
	byKey := make(map[string]Row)
	for _, r := range rows {
		byKey[r.Group+"/"+r.Policy] = r
		if r.QueryCost < 0 || r.ReorgCost < 0 || r.TotalSeconds() < 0 {
			t.Errorf("negative costs: %+v", r)
		}
		if r.ReorgCost != float64(r.Switches)*tinyParams().Alpha {
			t.Errorf("reorg cost %g inconsistent with %d switches", r.ReorgCost, r.Switches)
		}
	}
	for _, gen := range []string{"qdtree", "zorder"} {
		static := byKey[gen+"/Static"]
		greedy := byKey[gen+"/Greedy"]
		regret := byKey[gen+"/Regret"]
		if static.Switches != 0 {
			t.Errorf("%s: static switched", gen)
		}
		// Greedy is the most aggressive reorganizer; Regret the most
		// conservative (paper §VI-B).
		if greedy.Switches < regret.Switches {
			t.Errorf("%s: greedy switched less (%d) than regret (%d)", gen, greedy.Switches, regret.Switches)
		}
	}
}

func TestFig4Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	s := tinyScenario(t, datagen.TPCH)
	series := Fig4(s, tinyParams())
	if len(series) != 4 {
		t.Fatalf("Fig4 series = %d", len(series))
	}
	var offline, static sim.Result
	for _, sr := range series {
		if len(sr.Curve) == 0 {
			t.Errorf("%s: empty curve", sr.Policy)
		}
		for i := 1; i < len(sr.Curve); i++ {
			if sr.Curve[i] < sr.Curve[i-1] {
				t.Fatalf("%s: cumulative curve decreased", sr.Policy)
			}
		}
		switch sr.Policy {
		case "Offline Optimal":
			offline = sr
		case "Static":
			static = sr
		}
	}
	// The full-knowledge oracle must not lose to never-switching.
	if offline.Total() > static.Total() {
		t.Errorf("Offline Optimal (%.0f) worse than Static (%.0f)", offline.Total(), static.Total())
	}
	// Offline switches exactly at template changes.
	if want := s.Stream.NumSwitches(); offline.Switches > want+1 || offline.Switches == 0 {
		t.Errorf("Offline switches = %d, segments-1 = %d", offline.Switches, want)
	}
}

func TestFig5SwitchesDecreaseWithAlpha(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	s := tinyScenario(t, datagen.TPCH)
	rows := Fig5(s, tinyParams(), []float64{10, 80, 300})
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Switches < rows[2].Switches {
		t.Errorf("switches did not decrease with alpha: %d@10 vs %d@300",
			rows[0].Switches, rows[2].Switches)
	}
	// Each row is labelled with the α it ran with, as Figure 5's first
	// column prints it.
	for i, want := range []string{"10", "80", "300"} {
		if rows[i].Variant != want {
			t.Errorf("row %d: Variant = %q, want %q", i, rows[i].Variant, want)
		}
	}
}

func TestFig6SpaceShrinksWithEpsilon(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	s := tinyScenario(t, datagen.TPCH)
	rows := Fig6(s, tinyParams(), []float64{0.01, 0.4})
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].MaxSpace < rows[1].MaxSpace {
		t.Errorf("state space did not shrink with epsilon: %d@0.01 vs %d@0.4",
			rows[0].MaxSpace, rows[1].MaxSpace)
	}
	// Each row is labelled with the ε it ran with, as Figure 6's first
	// column prints it.
	for i, want := range []string{"0.01", "0.4"} {
		if rows[i].Variant != want {
			t.Errorf("row %d: Variant = %q, want %q", i, rows[i].Variant, want)
		}
	}
}

func TestTable1Shape(t *testing.T) {
	rows := Table1()
	if len(rows) != 5 {
		t.Fatalf("Table1 rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Alpha < 55 || r.Alpha > 105 {
			t.Errorf("alpha(%g) = %.1f out of band", r.FileMB, r.Alpha)
		}
	}
}

func TestTable2Structure(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	s := tinyScenario(t, datagen.TPCH)
	rows := Table2(s, tinyParams())
	if len(rows) != 10 {
		t.Fatalf("Table2 rows = %d, want 10 (4 gamma + 3 sampling + 3 delay)", len(rows))
	}
	groups := map[string]int{}
	defaults := 0
	for _, r := range rows {
		groups[r.Group]++
		if r.Default {
			defaults++
		}
		if r.QueryCost < 0 || r.ReorgCost < 0 {
			t.Errorf("negative costs: %+v", r)
		}
	}
	if groups["gamma"] != 4 || groups["sampling"] != 3 || groups["delay"] != 3 {
		t.Errorf("groups = %v", groups)
	}
	if defaults != 3 {
		t.Errorf("default rows = %d, want 3 (one per group)", defaults)
	}
}

func TestTable2DelayOnlyAffectsQueryCost(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	s := tinyScenario(t, datagen.TPCH)
	rows := Table2(s, tinyParams())
	var d0, d80 Row
	for _, r := range rows {
		if r.Group == "delay" {
			switch r.Variant {
			case "Δ=0":
				d0 = r
			case "Δ=80":
				d80 = r
			}
		}
	}
	// §VI-D5: the delay does not change the reorganization cost, only
	// the query cost (served longer on the outdated layout).
	if d0.ReorgCost != d80.ReorgCost {
		t.Errorf("delay changed reorg cost: %g vs %g", d0.ReorgCost, d80.ReorgCost)
	}
	if d80.QueryCost < d0.QueryCost {
		t.Errorf("delay decreased query cost: %g vs %g", d80.QueryCost, d0.QueryCost)
	}
}

func TestRunParamsPlumbing(t *testing.T) {
	p := DefaultParams()
	if p.Alpha != 80 || p.Gamma != 1 || p.Epsilon != 0.08 || p.Window != 200 {
		t.Errorf("paper defaults wrong: %+v", p)
	}
	if sc := p.Config; sc.Alpha != 80 || sc.Delay != 0 {
		t.Errorf("Config = %+v", sc)
	}
	oc := p.oreoConfig(32)
	if fc := oc.Feed; fc.Partitions != 32 || fc.WindowSize != 200 || fc.Source != manager.SourceWindow {
		t.Errorf("oreoConfig.Feed = %+v", fc)
	}
	if oc.MTS.Alpha != 80 || oc.MTS.Gamma != 1 || oc.Epsilon != 0.08 {
		t.Errorf("oreoConfig = %+v", oc)
	}
}

func TestPoliciesShareCandidateStream(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	// Greedy and OREO constructed with the same seed must see identical
	// candidate sequences; we verify indirectly: two OREO runs with the
	// same seed produce identical results.
	s := tinyScenario(t, datagen.TPCH)
	p := tinyParams()
	gen := s.Generator(GenQdTree)
	r1 := s.Run(s.NewOREO(gen, p), p)
	r2 := s.Run(s.NewOREO(s.Generator(GenQdTree), p), p)
	if r1.QueryCost != r2.QueryCost || r1.Switches != r2.Switches {
		t.Errorf("identical seeds diverged: %+v vs %+v", r1, r2)
	}
}

func TestStaticPolicyViaScenario(t *testing.T) {
	s := tinyScenario(t, datagen.Telemetry)
	p := tinyParams()
	res := s.Run(policy.NewStatic(s.Default), p)
	if res.Switches != 0 {
		t.Error("static switched")
	}
	if res.QueryCost <= 0 {
		t.Error("no query cost accumulated")
	}
}
