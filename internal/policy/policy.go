// Package policy is where the paper's two components meet the query
// stream. It holds:
//
//   - the reorganization strategies the paper compares, behind one
//     Policy interface: OREO itself (orchestration over the LAYOUT
//     MANAGER of internal/manager and the D-UMTS REORGANIZER of
//     internal/mts), the Static, Greedy and Regret baselines, and the
//     two oracle references (MTS Optimal, Offline Optimal);
//   - NewOREO, the one constructor of an OREO system — the public
//     oreo.New and the experiment harness both call it — with the
//     seeding convention (NewFeed, DecisionRand), the paper's default
//     parameters and the partition-count rule beside it;
//   - Stepper, the one loop that turns any policy's switch decisions
//     into a served layout and a cost ledger under the
//     background-reorganization delay Δ. Optimizer.ProcessQuery and
//     sim.Run are both that loop.
package policy

import (
	"oreo/internal/layout"
	"oreo/internal/query"
)

// Policy is a layout-switching strategy. Stepper calls Observe for
// every query, in stream order, before the query is served. A non-nil
// return value requests a reorganization into the returned layout
// (charged α when it differs from the serving layout; applied after the
// configured delay).
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Observe processes one query and optionally requests a switch.
	Observe(q query.Query) *layout.Layout
	// Current returns the layout the policy believes it is in. This is
	// the policy's *logical* state; under background-reorganization
	// delay the Stepper may still be serving an older layout.
	Current() *layout.Layout
}

// SpaceReporter is implemented by policies that maintain a dynamic
// state space; sim.Run samples it for the ε-sweep experiment.
type SpaceReporter interface {
	StateSpaceSize() int
}

// Static is the paper's offline baseline: a single layout, optimized
// for the entire workload in advance, never changed.
type Static struct {
	layout *layout.Layout
}

// NewStatic returns the static policy pinned to the given layout.
func NewStatic(l *layout.Layout) *Static { return &Static{layout: l} }

// Name implements Policy.
func (s *Static) Name() string { return "Static" }

// Observe implements Policy; Static never switches.
func (s *Static) Observe(query.Query) *layout.Layout { return nil }

// Current implements Policy.
func (s *Static) Current() *layout.Layout { return s.layout }
