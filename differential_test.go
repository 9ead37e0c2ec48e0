package oreo

import (
	"fmt"
	"math"
	"testing"

	"oreo/internal/datagen"
	"oreo/internal/experiments"
	"oreo/internal/policy"
)

// TestFiguresRunOnTheShippedEngine holds the experiment harness to the
// public Optimizer: same scenario, seed, generator and parameters, and
// the two must agree on the served layout, the bits of the cost, the
// switches charged so far and |S| after every single query — under
// Δ = 0, under a Δ inside Table II's sweep, and under Δ > α, where a
// policy can return to the serving layout while a swap is in flight.
//
// sim.Run reports a whole run, not its steps, so the per-query identity
// is asserted on the step it loops over (a policy.Stepper over
// Scenario.NewOREO) and sim.Run itself on every point of its per-query
// cumulative-cost curve and on its final ledger.
func TestFiguresRunOnTheShippedEngine(t *testing.T) {
	s, err := experiments.Build(experiments.SmallScenario(datagen.TPCH))
	if err != nil {
		t.Fatal(err)
	}
	for _, delay := range []int{0, 40, 200} {
		t.Run(fmt.Sprintf("delay=%d", delay), func(t *testing.T) {
			p := experiments.DefaultParams()
			p.Delay = delay
			p.CurveStride = 1
			p.SpaceStride = 1

			opt, err := New(s.Data, Config{
				Alpha: p.Alpha, Gamma: p.Gamma, Epsilon: p.Epsilon,
				WindowSize: p.Window, Period: p.Period, Partitions: s.Partitions,
				Generator: s.Generator(experiments.GenQdTree), Initial: s.Default,
				ReorgDelay: delay, Seed: p.Seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			pol := s.NewOREO(s.Generator(experiments.GenQdTree), p)
			loop := policy.NewStepper(pol, delay)
			res := s.Run(s.NewOREO(s.Generator(experiments.GenQdTree), p), p)

			maxStates := 0
			for i, q := range s.Stream.Queries {
				d := opt.ProcessQuery(q)
				cost, _ := loop.Step(q)
				st := opt.Stats()
				if d.Layout.Name != loop.Serving.Name {
					t.Fatalf("query %d: optimizer serves %s, harness %s", i, d.Layout.Name, loop.Serving.Name)
				}
				if math.Float64bits(d.Cost) != math.Float64bits(cost) {
					t.Fatalf("query %d: cost %v vs %v", i, d.Cost, cost)
				}
				if st.Reorganizations != loop.Switches {
					t.Fatalf("query %d: %d switches charged vs %d", i, st.Reorganizations, loop.Switches)
				}
				if st.States != pol.StateSpaceSize() {
					t.Fatalf("query %d: |S| = %d vs %d", i, st.States, pol.StateSpaceSize())
				}
				if total := st.QueryCost + st.ReorgCost; math.Float64bits(total) != math.Float64bits(res.Curve[i]) {
					t.Fatalf("query %d: cumulative cost %v, sim.Run's curve %v", i, total, res.Curve[i])
				}
				maxStates = max(maxStates, st.States)
			}

			st := opt.Stats()
			if res.Switches != st.Reorganizations || res.FinalLayout != opt.CurrentLayout().Name ||
				res.MaxSpace != maxStates || math.Float64bits(res.QueryCost) != math.Float64bits(st.QueryCost) {
				t.Errorf("sim.Run ends at %d switches, %q, max |S| %d, query cost %v; optimizer at %d, %q, %d, %v",
					res.Switches, res.FinalLayout, res.MaxSpace, res.QueryCost,
					st.Reorganizations, opt.CurrentLayout().Name, maxStates, st.QueryCost)
			}
			if st.Reorganizations == 0 || maxStates < 2 {
				t.Errorf("vacuous run: %d switches, max |S| %d", st.Reorganizations, maxStates)
			}
		})
	}
}
