package experiments

import (
	"strconv"

	"oreo/internal/policy"
	"oreo/internal/sim"
	"oreo/internal/storage"
)

// Fig3 reproduces Figure 3: total query + reorganization time for
// {Static, OREO, Greedy, Regret} × {Qd-tree, Z-order} on the given
// scenario, one row per bar with the generator kind as its Group.
// TableMB is derived from the row count at ~120 bytes of compressed
// Parquet per row (wide denormalized rows), scaled so the paper's
// 100–200MB-per-partition guidance holds at the paper's own scale.
func Fig3(s *Scenario, p RunParams) []Row {
	disk := storage.DefaultDiskModel()
	p.Disk = &disk
	p.TableMB = float64(s.Cfg.Rows) * 120 / 1e6 * 400 // scale to paper-like volume

	var rows []Row
	for _, kind := range []GeneratorKind{GenQdTree, GenZOrder} {
		gen := s.Generator(kind)
		static := s.StaticLayout(gen)

		for _, r := range []sim.Result{
			s.Run(policy.NewStatic(static), p),
			s.Run(s.NewOREO(gen, p), p),
			s.Run(s.NewGreedy(gen, p), p),
			s.Run(s.NewRegret(gen, p), p),
		} {
			rows = append(rows, Row{Group: string(kind), Result: r})
		}
	}
	return rows
}

// Fig4 reproduces Figure 4 on one scenario (the paper shows TPC-H and
// TPC-DS): cumulative total cost over the query stream for Offline
// Optimal, OREO, MTS Optimal, and Static, all with Qd-tree layouts.
// The runs differ only by policy, so each is its sim.Result.
func Fig4(s *Scenario, p RunParams) []sim.Result {
	if p.CurveStride <= 0 {
		p.CurveStride = max(1, len(s.Stream.Queries)/200)
	}
	gen := s.Generator(GenQdTree)
	static := s.StaticLayout(gen)
	perTemplate := s.PerTemplateLayouts(gen)

	return []sim.Result{
		s.Run(s.NewOfflineOptimal(perTemplate), p),
		s.Run(s.NewOREO(gen, p), p),
		s.Run(s.NewMTSOptimal(perTemplate, p), p),
		s.Run(policy.NewStatic(static), p),
	}
}

// Fig5Alphas are the α values swept in Figure 5.
var Fig5Alphas = []float64{10, 50, 80, 100, 150, 170, 200, 250, 300}

// Fig5 reproduces Figure 5: OREO's cost split and switch count as the
// relative reorganization cost α varies (TPC-H + Qd-tree in the paper),
// one row per α with the α as its Variant.
func Fig5(s *Scenario, p RunParams, alphas []float64) []Row {
	if alphas == nil {
		alphas = Fig5Alphas
	}
	gen := s.Generator(GenQdTree)
	rows := make([]Row, 0, len(alphas))
	for _, a := range alphas {
		pa := p
		pa.Alpha = a
		r := s.Run(s.NewOREO(gen, pa), pa)
		rows = append(rows, Row{Variant: strconv.FormatFloat(a, 'g', -1, 64), Result: r})
	}
	return rows
}

// Fig6Epsilons are the ε values swept in Figure 6.
var Fig6Epsilons = []float64{0.01, 0.02, 0.04, 0.08, 0.16, 0.32}

// Fig6 reproduces Figure 6: the dynamic state-space size and OREO's
// costs as the admission distance threshold ε varies, one row per ε
// with the ε as its Variant.
func Fig6(s *Scenario, p RunParams, epsilons []float64) []Row {
	if epsilons == nil {
		epsilons = Fig6Epsilons
	}
	if p.SpaceStride <= 0 {
		p.SpaceStride = max(1, len(s.Stream.Queries)/500)
	}
	gen := s.Generator(GenQdTree)
	rows := make([]Row, 0, len(epsilons))
	for _, eps := range epsilons {
		pe := p
		pe.Epsilon = eps
		r := s.Run(s.NewOREO(gen, pe), pe)
		rows = append(rows, Row{Variant: strconv.FormatFloat(eps, 'g', -1, 64), Result: r})
	}
	return rows
}
