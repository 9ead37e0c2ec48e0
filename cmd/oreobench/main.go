// Command oreobench regenerates every table and figure of the paper's
// evaluation as text or CSV tables. Experiment IDs are the paper's own
// table and figure numbers (internal/experiments builds each one):
//
//	oreobench -exp table1
//	oreobench -exp fig3  [-scale small|default] [-dataset tpch|tpcds|telemetry|all]
//	oreobench -exp fig4  [-dataset tpch]
//	oreobench -exp fig5
//	oreobench -exp fig6
//	oreobench -exp table2 [-dataset all]
//	oreobench -exp ablate
//	oreobench -exp all
//
// Add -format csv for machine-readable output.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"oreo/internal/datagen"
	"oreo/internal/experiments"
	"oreo/internal/report"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id: table1|fig3|fig4|fig5|fig6|table2|ablate|all")
		dataset = flag.String("dataset", "all", "dataset: tpch|tpcds|telemetry|all")
		scale   = flag.String("scale", "default", "scenario scale: small|default")
		format  = flag.String("format", "text", "output format: text|csv")
		seed    = flag.Int64("seed", 1, "scenario seed")
	)
	flag.Parse()

	f, err := report.ParseFormat(*format)
	if err == nil {
		err = run(*exp, *dataset, *scale, *seed, f)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "oreobench:", err)
		os.Exit(1)
	}
}

func run(exp, dataset, scale string, seed int64, f report.Format) error {
	datasets, err := resolveDatasets(dataset)
	if err != nil {
		return err
	}
	scenario := func(name string) (*experiments.Scenario, error) {
		var cfg experiments.ScenarioConfig
		switch scale {
		case "small":
			cfg = experiments.SmallScenario(name)
		case "default":
			cfg = experiments.DefaultScenario(name)
		default:
			return nil, fmt.Errorf("unknown scale %q", scale)
		}
		cfg.Seed = seed
		return experiments.Build(cfg)
	}
	emit := func(t *report.Table) error { return t.Write(os.Stdout, f) }

	ids := []string{exp}
	if exp == "all" {
		ids = []string{"table1", "fig3", "fig4", "fig5", "fig6", "table2", "ablate", "appendixa", "sweep"}
	}
	for _, id := range ids {
		switch id {
		case "table1":
			if err := emit(table1Table()); err != nil {
				return err
			}
		case "fig3":
			for _, d := range datasets {
				s, err := scenario(d)
				if err != nil {
					return err
				}
				if err := emit(fig3Table(s)); err != nil {
					return err
				}
			}
		case "fig4":
			for _, d := range datasets {
				if d == datagen.Telemetry {
					continue // the paper shows Fig 4 on TPC-H and TPC-DS
				}
				s, err := scenario(d)
				if err != nil {
					return err
				}
				summary, curves := fig4Tables(s)
				if err := emit(summary); err != nil {
					return err
				}
				if err := emit(curves); err != nil {
					return err
				}
			}
		case "fig5":
			s, err := scenario(datagen.TPCH)
			if err != nil {
				return err
			}
			if err := emit(fig5Table(s)); err != nil {
				return err
			}
		case "fig6":
			s, err := scenario(datagen.TPCH)
			if err != nil {
				return err
			}
			if err := emit(fig6Table(s)); err != nil {
				return err
			}
		case "table2":
			for _, d := range datasets {
				s, err := scenario(d)
				if err != nil {
					return err
				}
				t := labelledTable(fmt.Sprintf("Table II: ablations, dataset=%s (logical costs)", s.Cfg.Dataset),
					[]string{"group", "variant", "query_cost", "reorg_cost", "switches", "default"},
					experiments.Table2(s, experiments.DefaultParams()))
				if err := emit(t); err != nil {
					return err
				}
			}
		case "ablate":
			s, err := scenario(datagen.TPCH)
			if err != nil {
				return err
			}
			p := experiments.DefaultParams()
			t := labelledTable(fmt.Sprintf("Ablations: design choices (dataset=%s, qd-tree)", s.Cfg.Dataset),
				[]string{"ablation", "variant", "query_cost", "reorg_cost", "reorgs", "default"},
				append(experiments.AblationStayInPlace(s, p), experiments.AblationMultiCopy(s, p, nil)...))
			if err := emit(t); err != nil {
				return err
			}
		case "appendixa":
			s, err := scenario(datagen.TPCH)
			if err != nil {
				return err
			}
			if err := emit(appendixATable(s)); err != nil {
				return err
			}
		case "sweep":
			s, err := scenario(datagen.Telemetry)
			if err != nil {
				return err
			}
			if err := emit(sweepTable(s)); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unknown experiment %q", id)
		}
	}
	return nil
}

func resolveDatasets(flagVal string) ([]string, error) {
	if flagVal == "all" {
		return datagen.Names(), nil
	}
	for _, n := range datagen.Names() {
		if n == flagVal {
			return []string{n}, nil
		}
	}
	return nil, fmt.Errorf("unknown dataset %q (want %s or all)",
		flagVal, strings.Join(datagen.Names(), "|"))
}

func table1Table() *report.Table {
	t := &report.Table{
		Title:  "Table I: relative cost of reorganization over query (alpha)",
		Header: []string{"file_mb", "query_s", "reorg_s", "alpha"},
	}
	for _, r := range experiments.Table1() {
		t.AddRow(r.FileMB, round2(r.QuerySeconds), round2(r.ReorgSeconds), round2(r.Alpha))
	}
	return t
}

func fig3Table(s *experiments.Scenario) *report.Table {
	t := &report.Table{
		Title: fmt.Sprintf("Figure 3: end-to-end time, dataset=%s (rows=%d queries=%d k=%d)",
			s.Cfg.Dataset, s.Cfg.Rows, s.Cfg.NumQueries, s.Partitions),
		Header: []string{"gen", "policy", "query_h", "reorg_h", "total_h", "qcost", "rcost", "switches"},
	}
	for _, r := range experiments.Fig3(s, experiments.DefaultParams()) {
		t.AddRow(r.Group, r.Policy,
			round2(r.QuerySeconds/3600), round2(r.ReorgSeconds/3600), round2(r.TotalSeconds()/3600),
			round0(r.QueryCost), round0(r.ReorgCost), r.Switches)
	}
	return t
}

func fig4Tables(s *experiments.Scenario) (summary, curves *report.Table) {
	series := experiments.Fig4(s, experiments.DefaultParams())
	summary = &report.Table{
		Title:  fmt.Sprintf("Figure 4: totals, dataset=%s", s.Cfg.Dataset),
		Header: []string{"policy", "total", "switches"},
	}
	for _, sr := range series {
		summary.AddRow(sr.Policy, round0(sr.Total()), sr.Switches)
	}

	curves = &report.Table{
		Title:  fmt.Sprintf("Figure 4: cumulative total cost vs query number, dataset=%s", s.Cfg.Dataset),
		Header: []string{"query"},
	}
	for _, sr := range series {
		curves.Header = append(curves.Header, sr.Policy)
	}
	if len(series) > 0 && len(series[0].Curve) > 0 {
		n := len(series[0].Curve)
		step := n / 20
		if step < 1 {
			step = 1
		}
		for i := 0; i < n; i += step {
			row := []interface{}{(i + 1) * series[0].CurveStride}
			for _, sr := range series {
				v := 0.0
				if i < len(sr.Curve) {
					v = sr.Curve[i]
				}
				row = append(row, round0(v))
			}
			curves.AddRow(row...)
		}
	}
	return summary, curves
}

func fig5Table(s *experiments.Scenario) *report.Table {
	t := &report.Table{
		Title:  fmt.Sprintf("Figure 5: effect of reorganization cost alpha (dataset=%s, qd-tree)", s.Cfg.Dataset),
		Header: []string{"alpha", "query_cost", "reorg_cost", "total", "switches"},
	}
	for _, r := range experiments.Fig5(s, experiments.DefaultParams(), nil) {
		t.AddRow(r.Variant, round0(r.QueryCost), round0(r.ReorgCost), round0(r.Total()), r.Switches)
	}
	return t
}

func fig6Table(s *experiments.Scenario) *report.Table {
	t := &report.Table{
		Title:  fmt.Sprintf("Figure 6: effect of distance threshold epsilon (dataset=%s, qd-tree)", s.Cfg.Dataset),
		Header: []string{"epsilon", "avg_states", "max_states", "query_cost", "reorg_cost", "total"},
	}
	for _, r := range experiments.Fig6(s, experiments.DefaultParams(), nil) {
		t.AddRow(r.Variant, round2(r.AvgSpace), r.MaxSpace,
			round0(r.QueryCost), round0(r.ReorgCost), round0(r.Total()))
	}
	return t
}

// labelledTable renders Table II and the design-choice ablations: one
// line per labelled run, the default configuration starred.
func labelledTable(title string, header []string, rows []experiments.Row) *report.Table {
	t := &report.Table{Title: title, Header: header}
	for _, r := range rows {
		def := ""
		if r.Default {
			def = "*"
		}
		t.AddRow(r.Group, r.Variant, round0(r.QueryCost), round0(r.ReorgCost), r.Switches, def)
	}
	return t
}

func appendixATable(s *experiments.Scenario) *report.Table {
	t := &report.Table{
		Title: fmt.Sprintf("Appendix A: static-layout degradation under drift (dataset=%s, qd-tree)",
			s.Cfg.Dataset),
		Header: []string{"segment", "template", "first_seg_layout", "own_layout", "default_layout"},
	}
	for _, r := range experiments.AppendixA(s) {
		t.AddRow(r.Segment, r.Template, round2(r.StaticCost), round2(r.OwnCost), round2(r.DefaultCost))
	}
	return t
}

func sweepTable(s *experiments.Scenario) *report.Table {
	t := &report.Table{
		Title: fmt.Sprintf("Column sweep (§V-A): SW vs RS candidates (dataset=%s, qd-tree)",
			s.Cfg.Dataset),
		Header: []string{"source", "query_cost", "reorg_cost", "switches"},
	}
	for _, r := range experiments.ColumnSweep(s, experiments.DefaultParams(), 300) {
		t.AddRow(r.Variant, round0(r.QueryCost), round0(r.ReorgCost), r.Switches)
	}
	return t
}

// round2 rounds to two decimals. float64(v*100) rounds the product
// before the add, which arm64 would otherwise fuse.
func round2(v float64) float64 { return float64(int64(float64(v*100)+0.5)) / 100 }

func round0(v float64) float64 { return float64(int64(v + 0.5)) }
