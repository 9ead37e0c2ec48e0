package experiments

import (
	"oreo/internal/policy"
	"oreo/internal/sim"
	"oreo/internal/storage"
)

// Fig3Row is one bar of Figure 3: a (dataset, generator, policy) cell
// with its split of simulated query and reorganization time, plus the
// logical costs behind them.
type Fig3Row struct {
	Dataset   string
	Generator GeneratorKind
	Policy    string

	QueryHours float64
	ReorgHours float64
	TotalHours float64

	QueryCost float64
	ReorgCost float64
	Switches  int
}

// Fig3 reproduces Figure 3: total query + reorganization time for
// {Static, OREO, Greedy, Regret} × {Qd-tree, Z-order} on the given
// scenario. TableMB is derived from the row count at ~120 bytes of
// compressed Parquet per row (wide denormalized rows), scaled so the
// paper's 100–200MB-per-partition guidance holds at the paper's own
// scale.
func Fig3(s *Scenario, p RunParams) []Fig3Row {
	disk := storage.DefaultDiskModel()
	p.Disk = &disk
	p.TableMB = float64(s.Cfg.Rows) * 120 / 1e6 * 400 // scale to paper-like volume

	var rows []Fig3Row
	for _, kind := range []GeneratorKind{GenQdTree, GenZOrder} {
		gen := s.Generator(kind)
		static := s.StaticLayout(gen)

		runs := []sim.Result{
			s.Run(policy.NewStatic(static), p),
			s.Run(s.NewOREO(gen, p), p),
			s.Run(s.NewGreedy(gen, p), p),
			s.Run(s.NewRegret(gen, p), p),
		}
		for _, r := range runs {
			rows = append(rows, Fig3Row{
				Dataset:    s.Cfg.Dataset,
				Generator:  kind,
				Policy:     r.Policy,
				QueryHours: r.QuerySeconds / 3600,
				ReorgHours: r.ReorgSeconds / 3600,
				TotalHours: r.TotalSeconds() / 3600,
				QueryCost:  r.QueryCost,
				ReorgCost:  r.ReorgCost,
				Switches:   r.Switches,
			})
		}
	}
	return rows
}

// Fig4Series is one line of Figure 4: a policy's cumulative total cost
// curve over the stream, plus its switch count.
type Fig4Series struct {
	Dataset  string
	Policy   string
	Curve    []float64
	Stride   int
	Total    float64
	Switches int
}

// Fig4 reproduces Figure 4 on one scenario (the paper shows TPC-H and
// TPC-DS): cumulative total cost over the query stream for Offline
// Optimal, OREO, MTS Optimal, and Static, all with Qd-tree layouts.
func Fig4(s *Scenario, p RunParams) []Fig4Series {
	if p.CurveStride <= 0 {
		p.CurveStride = maxInt(1, len(s.Stream.Queries)/200)
	}
	gen := s.Generator(GenQdTree)
	static := s.StaticLayout(gen)
	perTemplate := s.PerTemplateLayouts(gen)

	runs := []sim.Result{
		s.Run(s.NewOfflineOptimal(perTemplate), p),
		s.Run(s.NewOREO(gen, p), p),
		s.Run(s.NewMTSOptimal(perTemplate, p), p),
		s.Run(policy.NewStatic(static), p),
	}
	out := make([]Fig4Series, 0, len(runs))
	for _, r := range runs {
		out = append(out, Fig4Series{
			Dataset:  s.Cfg.Dataset,
			Policy:   r.Policy,
			Curve:    r.Curve,
			Stride:   r.CurveStride,
			Total:    r.Total(),
			Switches: r.Switches,
		})
	}
	return out
}

// Fig5Row is one α setting of Figure 5.
type Fig5Row struct {
	Alpha     float64
	QueryCost float64
	ReorgCost float64
	Total     float64
	Switches  int
}

// Fig5Alphas are the α values swept in Figure 5.
var Fig5Alphas = []float64{10, 50, 80, 100, 150, 170, 200, 250, 300}

// Fig5 reproduces Figure 5: OREO's cost split and switch count as the
// relative reorganization cost α varies (TPC-H + Qd-tree in the paper).
func Fig5(s *Scenario, p RunParams, alphas []float64) []Fig5Row {
	if alphas == nil {
		alphas = Fig5Alphas
	}
	gen := s.Generator(GenQdTree)
	rows := make([]Fig5Row, 0, len(alphas))
	for _, a := range alphas {
		pa := p
		pa.Alpha = a
		r := s.Run(s.NewOREO(gen, pa), pa)
		rows = append(rows, Fig5Row{
			Alpha:     a,
			QueryCost: r.QueryCost,
			ReorgCost: r.ReorgCost,
			Total:     r.Total(),
			Switches:  r.Switches,
		})
	}
	return rows
}

// Fig6Row is one ε setting of Figure 6.
type Fig6Row struct {
	Epsilon   float64
	AvgSpace  float64
	MaxSpace  int
	QueryCost float64
	ReorgCost float64
	Total     float64
}

// Fig6Epsilons are the ε values swept in Figure 6.
var Fig6Epsilons = []float64{0.01, 0.02, 0.04, 0.08, 0.16, 0.32}

// Fig6 reproduces Figure 6: the dynamic state-space size and OREO's
// costs as the admission distance threshold ε varies.
func Fig6(s *Scenario, p RunParams, epsilons []float64) []Fig6Row {
	if epsilons == nil {
		epsilons = Fig6Epsilons
	}
	if p.SpaceStride <= 0 {
		p.SpaceStride = maxInt(1, len(s.Stream.Queries)/500)
	}
	gen := s.Generator(GenQdTree)
	rows := make([]Fig6Row, 0, len(epsilons))
	for _, eps := range epsilons {
		pe := p
		pe.Epsilon = eps
		r := s.Run(s.NewOREO(gen, pe), pe)
		rows = append(rows, Fig6Row{
			Epsilon:   eps,
			AvgSpace:  r.AvgSpace,
			MaxSpace:  r.MaxSpace,
			QueryCost: r.QueryCost,
			ReorgCost: r.ReorgCost,
			Total:     r.Total(),
		})
	}
	return rows
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
