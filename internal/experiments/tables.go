package experiments

import (
	"fmt"

	"oreo/internal/manager"
	"oreo/internal/storage"
)

// Table1 reproduces Table I: the measured relative reorganization cost
// α for file sizes from 16MB to 4GB, via the storage simulator.
func Table1() []storage.AlphaRow {
	return storage.DefaultDiskModel().MeasureAlpha(nil)
}

// Table2 reproduces Table II on one scenario: the effect of the
// transition-distribution bias γ ∈ {0,1,2,3}, of the candidate
// workload-sampling strategy (SW, RS, SW+RS), and of the
// reorganization delay Δ ∈ {0, 40, 80} — all with Qd-tree layouts and
// logical costs, as in the paper. Group is "gamma", "sampling" or
// "delay"; Variant the setting ("γ=1", "SW", "Δ=40").
func Table2(s *Scenario, p RunParams) []Row {
	gen := s.Generator(GenQdTree)
	var rows []Row

	run := func(group, variant string, def bool, pp RunParams) {
		r := s.Run(s.NewOREO(gen, pp), pp)
		rows = append(rows, Row{Group: group, Variant: variant, Default: def, Result: r})
	}

	// γ sweep (default γ=1).
	for _, g := range []float64{1, 0, 2, 3} {
		pp := p
		pp.Gamma = g
		//oreovet:ignore floatbits compares a literal sweep constant to the config default; both are exact compile-time values
		run("gamma", fmt.Sprintf("γ=%g", g), g == p.Gamma, pp)
	}

	// Sampling-source sweep (default SW).
	for _, src := range []manager.Source{manager.SourceWindow, manager.SourceReservoir, manager.SourceBoth} {
		pp := p
		pp.Source = src
		run("sampling", src.String(), src == p.Source, pp)
	}

	// Δ sweep (default Δ=0). The paper studies Δ up to α.
	for _, d := range []int{0, 40, 80} {
		pp := p
		pp.Delay = d
		run("delay", fmt.Sprintf("Δ=%d", d), d == p.Delay, pp)
	}
	return rows
}
