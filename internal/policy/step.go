package policy

import (
	"oreo/internal/layout"
	"oreo/internal/query"
)

// Stepper is the one loop that turns a policy's switch decisions into a
// served layout and a cost ledger. It is the only code that knows the
// background-reorganization rule of §VI-D5: a decision is charged when
// it is made and lands Δ queries later; a decision to return to the
// layout still being served, made while a swap is in flight, aborts
// that swap. The public Optimizer's ProcessQuery and the experiment
// harness's sim.Run are both this loop, so a figure and the shipped
// engine cannot account the same decisions differently.
//
// The exported fields are the ledger, true as of the last Step; callers
// read them and never write them. The charge for a switch is the
// caller's α per unit of Switches.
type Stepper struct {
	// Serving is the layout queries are physically served on. Under a
	// delay it trails the policy's logical state (Policy.Current).
	Serving *layout.Layout
	// Pending is the layout an in-flight reorganization is building, or
	// nil when none is.
	Pending *layout.Layout

	// Queries counts the steps taken, Switches the reorganizations
	// charged, QueryCost the sum of c(Serving, q) over the steps.
	Queries   int
	Switches  int
	QueryCost float64

	pol       Policy
	delay     int
	countdown int
}

// NewStepper returns the loop over pol, serving pol.Current(). delay is
// Δ: the number of queries still served on the outgoing layout after a
// switch decision (0 applies switches immediately).
func NewStepper(pol Policy, delay int) *Stepper {
	return &Stepper{pol: pol, delay: delay, Serving: pol.Current()}
}

// Step shows q to the policy, applies the delay rule to its decision,
// and serves q on the layout then in effect. switched reports a
// decision that is charged as a reorganization.
//
// A target other than the serving layout is such a decision: it becomes
// Pending (replacing any swap already in flight, whose charge stands)
// and lands after delay further queries. A target equal to the serving
// layout is never charged; if a swap is in flight the policy has
// abandoned it, so it is dropped rather than landing a layout the
// policy already left — the aborted build's earlier charge stands too,
// so oscillating inside the delay window is never free.
func (s *Stepper) Step(q query.Query) (cost float64, switched bool) {
	if target := s.pol.Observe(q); target != nil {
		if target.Name != s.Serving.Name {
			s.Switches++
			switched = true
			s.Pending = target
			s.countdown = s.delay
		} else {
			s.Pending = nil
		}
	}
	if s.Pending != nil {
		if s.countdown <= 0 {
			s.Serving = s.Pending
			s.Pending = nil
		} else {
			s.countdown--
		}
	}

	cost = s.Serving.Cost(q)
	s.Queries++
	s.QueryCost += cost
	return cost, switched
}
