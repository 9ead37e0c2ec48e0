package experiments

import (
	"math/rand"

	"oreo/internal/manager"
	"oreo/internal/sim"
	"oreo/internal/workload"
)

// AppendixARow is one segment of the static-degradation study: how a
// layout optimized for the *first* workload segment performs as the
// workload drifts away from it (the technical report's Appendix A
// example, which motivates the whole paper: "a static layout results in
// almost no savings under changing workloads").
type AppendixARow struct {
	Segment  int
	Template string
	// StaticCost is the avg fraction scanned by the layout built for
	// segment 0; OwnCost by a layout built for this segment's template;
	// DefaultCost by the arrival-time layout.
	StaticCost  float64
	OwnCost     float64
	DefaultCost float64
}

// AppendixA reproduces the degradation study on a scenario: build a
// Qd-tree layout from the first segment's queries, then measure it (and
// the oracle per-segment layouts) on every segment.
func AppendixA(s *Scenario) []AppendixARow {
	gen := s.Generator(GenQdTree)
	if len(s.Stream.Segments) == 0 {
		return nil
	}
	first := s.Stream.Segments[0]
	firstQs := s.Stream.Queries[first.Start : first.Start+first.Length]
	static := gen.Generate(s.Data, workloadSample(firstQs, 300), s.Partitions)

	perTemplate := s.PerTemplateLayouts(gen)

	rows := make([]AppendixARow, 0, len(s.Stream.Segments))
	for i, seg := range s.Stream.Segments {
		qs := s.Stream.Queries[seg.Start : seg.Start+seg.Length]
		probe := workloadSample(qs, 200)
		row := AppendixARow{
			Segment:     i,
			Template:    s.Stream.Templates[seg.Template].Name,
			StaticCost:  static.AvgCost(probe),
			DefaultCost: s.Default.AvgCost(probe),
		}
		if own, ok := perTemplate[seg.Template]; ok {
			row.OwnCost = own.AvgCost(probe)
		}
		rows = append(rows, row)
	}
	return rows
}

// ColumnSweep runs the §V-A column-sweep workload under sliding-window
// and reservoir-sample candidate generation, reproducing the argument
// for the SW default: on a workload that visits one column at a time,
// reservoir-sourced layouts are blends over multiple columns and lose
// to per-column specialists. It builds the sweep over the scenario's
// dataset (queriesPerCol per column) and runs OREO once per candidate
// source, labelled in Variant.
func ColumnSweep(s *Scenario, p RunParams, queriesPerCol int) []Row {
	rng := rand.New(rand.NewSource(s.Cfg.Seed + 17))
	stream := workload.GenerateColumnSweep(s.Data, queriesPerCol, rng)

	gen := s.Generator(GenQdTree)
	var rows []Row
	for _, src := range []manager.Source{manager.SourceWindow, manager.SourceReservoir} {
		pp := p
		pp.Source = src
		r := sim.Run(stream.Queries, s.NewOREO(gen, pp), pp.Config)
		rows = append(rows, Row{Variant: src.String(), Result: r})
	}
	return rows
}
