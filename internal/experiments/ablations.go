package experiments

import (
	"fmt"

	"oreo/internal/layout"
	"oreo/internal/manager"
	"oreo/internal/mts"
	"oreo/internal/policy"
	"oreo/internal/sim"
)

// AblationStayInPlace quantifies the paper's §IV-A optimization: at a
// phase start, keep the current state rather than jumping to a random
// one (the original BLS behaviour). The paper reports the optimization
// "significantly improves the reorganization cost"; this ablation
// regenerates that comparison on a scenario.
func AblationStayInPlace(s *Scenario, p RunParams) []Row {
	gen := s.Generator(GenQdTree)
	var rows []Row
	for _, disable := range []bool{false, true} {
		pp := p
		pp.DisableStayInPlace = disable
		r := s.Run(s.NewOREO(gen, pp), pp)
		variant := "stay-in-place"
		if disable {
			variant = "random-restart"
		}
		rows = append(rows, Row{Group: "stay-in-place", Variant: variant, Default: !disable, Result: r})
	}
	return rows
}

// AblationMultiCopy evaluates the Appendix D variant: keeping up to B
// materialized copies of the dataset under different layouts, serving
// every query on the cheapest resident copy, and paying α only to
// materialize a non-resident layout. B = 1 approximates the single-copy
// algorithm; larger budgets trade storage for reorganization cost.
func AblationMultiCopy(s *Scenario, p RunParams, budgets []int) []Row {
	if budgets == nil {
		budgets = []int{1, 2, 4}
	}
	gen := s.Generator(GenQdTree)
	rows := make([]Row, 0, len(budgets))
	for _, b := range budgets {
		r := runMultiCopy(s, gen, b, p)
		rows = append(rows, Row{Group: "multi-copy", Variant: fmt.Sprintf("B=%d", b), Default: b == 1, Result: r})
	}
	return rows
}

// runMultiCopy drives the multi-copy decision maker over the scenario
// stream on the LAYOUT MANAGER OREO runs on: same seeded feed, same
// ε-admission, same state space. Switches counts materializations.
func runMultiCopy(s *Scenario, gen layout.Generator, budget int, p RunParams) sim.Result {
	cfg := p.oreoConfig(s.Partitions)
	mgr, rng := policy.NewManager(s.Data, gen, s.Default, cfg, p.Seed)
	mc := mts.NewMultiCopy(cfg.MTS, budget, rng)
	mc.AddState(manager.InitialState)
	mc.MakeResident(manager.InitialState)

	res := sim.Result{Policy: "MultiCopy", Queries: len(s.Stream.Queries)}
	for _, q := range s.Stream.Queries {
		for _, c := range mgr.Observe(q) {
			if id, verdict := mgr.Offer(c.Layout); verdict == manager.Admitted {
				mc.AddState(id)
			}
		}
		// One compilation serves the resident-copy scan and the final
		// serving-cost charge.
		cq := s.Default.Compile(q)
		serveIn, materialized := mc.Observe(func(id mts.StateID) float64 {
			return mgr.Layout(id).CostCompiled(cq)
		})
		if materialized {
			res.ReorgCost += p.Alpha
			res.Switches++
		}
		res.QueryCost += mgr.Layout(serveIn).CostCompiled(cq)
	}
	return res
}
