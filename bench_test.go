package oreo

// Benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (§VI), as internal/experiments assembles them.
// Each benchmark runs the corresponding experiment at a reduced-but-faithful
// scale and reports the headline quantities via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates every artifact. The CLI (cmd/oreobench) runs the same
// experiments at paper scale with full row/series output.

import (
	"fmt"
	"testing"

	"oreo/internal/datagen"
	"oreo/internal/experiments"
	"oreo/internal/query"
)

// benchScenario returns the reduced-scale scenario used by benchmarks.
func benchScenario(b *testing.B, dataset string) *experiments.Scenario {
	b.Helper()
	// ~1200 queries per segment keeps the paper's switch-amortization
	// regime (30k queries / 20 segments = 1500) at a tractable scale.
	s, err := experiments.Build(experiments.ScenarioConfig{
		Dataset:     dataset,
		Rows:        20000,
		NumQueries:  9600,
		NumSegments: 8,
		Seed:        1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func benchParams() experiments.RunParams {
	p := experiments.DefaultParams()
	return p
}

// BenchmarkTable1Alpha regenerates Table I: the relative reorganization
// cost alpha for file sizes 16MB..4096MB on the storage simulator.
func BenchmarkTable1Alpha(b *testing.B) {
	var rows []struct{ alpha float64 }
	for i := 0; i < b.N; i++ {
		for _, r := range experiments.Table1() {
			rows = append(rows[:0], struct{ alpha float64 }{r.Alpha})
			b.ReportMetric(r.Alpha, fmt.Sprintf("alpha_%.0fMB", r.FileMB))
		}
	}
	_ = rows
}

// BenchmarkFig3EndToEnd regenerates Figure 3 on each dataset: total
// query+reorg time for Static / OREO / Greedy / Regret with Qd-tree and
// Z-order layouts. Reported metrics are total hours per policy for the
// Qd-tree generator (the paper's headline comparison).
func BenchmarkFig3EndToEnd(b *testing.B) {
	for _, dataset := range datagen.Names() {
		dataset := dataset
		b.Run(dataset, func(b *testing.B) {
			s := benchScenario(b, dataset)
			p := benchParams()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rows := experiments.Fig3(s, p)
				for _, r := range rows {
					if r.Group == string(experiments.GenQdTree) {
						b.ReportMetric(r.TotalSeconds()/3600, "h_"+sanitize(r.Policy))
					}
				}
			}
		})
	}
}

// BenchmarkFig4GapToOptimal regenerates Figure 4 on TPC-H and TPC-DS:
// total cost of Offline Optimal / OREO / MTS Optimal / Static, plus the
// OREO-vs-offline gap the paper reports (44%-74% in their runs).
func BenchmarkFig4GapToOptimal(b *testing.B) {
	for _, dataset := range []string{datagen.TPCH, datagen.TPCDS} {
		dataset := dataset
		b.Run(dataset, func(b *testing.B) {
			s := benchScenario(b, dataset)
			p := benchParams()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				series := experiments.Fig4(s, p)
				var offline, oreoTotal float64
				for _, sr := range series {
					b.ReportMetric(sr.Total(), "cost_"+sanitize(sr.Policy))
					switch sr.Policy {
					case "Offline Optimal":
						offline = sr.Total()
					case "OREO":
						oreoTotal = sr.Total()
					}
				}
				if offline > 0 {
					b.ReportMetric((oreoTotal-offline)/offline*100, "gap_pct")
				}
			}
		})
	}
}

// BenchmarkFig5AlphaSweep regenerates Figure 5: OREO's total cost and
// switch count across the alpha sweep on TPC-H with Qd-tree layouts.
func BenchmarkFig5AlphaSweep(b *testing.B) {
	s := benchScenario(b, datagen.TPCH)
	p := benchParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig5(s, p, nil)
		for _, r := range rows {
			b.ReportMetric(r.Total(), "total_a"+r.Variant)
			b.ReportMetric(float64(r.Switches), "switches_a"+r.Variant)
		}
	}
}

// BenchmarkFig6EpsilonSweep regenerates Figure 6: the dynamic state
// space size and total cost across the epsilon sweep.
func BenchmarkFig6EpsilonSweep(b *testing.B) {
	s := benchScenario(b, datagen.TPCH)
	p := benchParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig6(s, p, nil)
		for _, r := range rows {
			b.ReportMetric(float64(r.MaxSpace), "maxS_e"+r.Variant)
			b.ReportMetric(r.Total(), "total_e"+r.Variant)
		}
	}
}

// BenchmarkTable2Ablations regenerates Table II on each dataset: the
// gamma sweep, SW vs RS vs SW+RS candidate sources, and the
// reorganization delay sweep, in logical costs.
func BenchmarkTable2Ablations(b *testing.B) {
	for _, dataset := range datagen.Names() {
		dataset := dataset
		b.Run(dataset, func(b *testing.B) {
			s := benchScenario(b, dataset)
			p := benchParams()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rows := experiments.Table2(s, p)
				for _, r := range rows {
					b.ReportMetric(r.QueryCost, "q_"+sanitize(r.Variant))
					b.ReportMetric(r.ReorgCost, "r_"+sanitize(r.Variant))
				}
			}
		})
	}
}

// BenchmarkCostPathTPCH compares the three service-cost paths on the
// TPC-H-shaped scenario workload: the interpreted reference, the
// compiled pruning engine without memoization, and the production
// memoized path — each re-costing a full sliding window against the
// default layout, the layout manager's per-period hot loop.
func BenchmarkCostPathTPCH(b *testing.B) {
	s, err := experiments.Build(experiments.ScenarioConfig{
		Dataset:     datagen.TPCH,
		Rows:        20000,
		NumQueries:  2000,
		NumSegments: 4,
		Seed:        1,
	})
	if err != nil {
		b.Fatal(err)
	}
	window := s.Stream.Queries[:200]
	l := s.Default

	b.Run("interpreted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = query.AvgFractionScanned(l.Schema(), l.Part, window)
		}
	})
	b.Run("compiled", func(b *testing.B) {
		cqs := l.CompileWorkload(window)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sum := 0.0
			for _, cq := range cqs {
				sum += cq.FractionScanned(l.Part)
			}
			_ = sum / float64(len(cqs))
		}
	})
	b.Run("memoized", func(b *testing.B) {
		l.AvgCost(window)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = l.AvgCost(window)
		}
	})
}

// sanitize converts labels to metric-name-safe strings.
func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		case r == 'γ':
			out = append(out, 'g')
		case r == 'Δ':
			out = append(out, 'd')
		case r == '=' || r == '+':
			// keep compact: drop
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}
