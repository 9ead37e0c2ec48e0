package policy

import (
	"fmt"

	"oreo/internal/layout"
	"oreo/internal/manager"
	"oreo/internal/mts"
	"oreo/internal/query"
	"oreo/internal/trace"
)

// OREO is the paper's system: the LAYOUT MANAGER (internal/manager)
// producing a dynamic state space, and the D-UMTS REORGANIZER
// (internal/mts) consuming it to decide when to switch layouts. This
// type is only the orchestration between the two: it mirrors the
// manager's admissions and removals into the reorganizer, asks the
// reorganizer for its move, and narrates both to the trace.
type OREO struct {
	mgr   *manager.Manager
	reorg *mts.Reorganizer

	// rec, when set, receives admission/prune/switch/phase events.
	// A nil recorder discards everything at negligible cost.
	rec  *trace.Recorder
	seen int
}

// Name implements Policy.
func (o *OREO) Name() string { return "OREO" }

// Current implements Policy.
func (o *OREO) Current() *layout.Layout { return o.mgr.Layout(o.reorg.Current()) }

// StateSpaceSize implements SpaceReporter.
func (o *OREO) StateSpaceSize() int { return o.reorg.NumStates() }

// Reorganizer exposes the underlying D-UMTS decision maker for
// diagnostics (phase counts, competitive bound).
func (o *OREO) Reorganizer() *mts.Reorganizer { return o.reorg }

// SetRecorder attaches an event recorder (nil detaches).
func (o *OREO) SetRecorder(rec *trace.Recorder) { o.rec = rec }

// Observe implements Policy. Order of operations per query:
//
//  1. offer the query to the layout manager; add every candidate it
//     admits as a new state (deferred by the reorganizer to the next
//     phase, per Algorithm 4);
//  2. if the space overflowed, remove the state the manager prunes
//     (a state-removal query in D-UMTS terms);
//  3. run the D-UMTS counter update for the service query and switch
//     states if the current one saturated.
func (o *OREO) Observe(q query.Query) *layout.Layout {
	var forced *layout.Layout
	o.seen++
	o.rec.SetSeq(o.seen)

	for _, c := range o.mgr.Observe(q) {
		id, verdict := o.mgr.Offer(c.Layout)
		switch verdict {
		case manager.Duplicate:
			continue
		case manager.Rejected:
			o.rec.Record(trace.EventReject, c.Layout.Name,
				fmt.Sprintf("eps=%.3g", o.mgr.Epsilon()))
			continue
		}
		o.reorg.AddState(id)
		o.rec.Record(trace.EventAdmit, c.Layout.Name,
			fmt.Sprintf("|S|=%d", o.reorg.NumStates()))

		if victim, l, ok := o.mgr.Prune(o.reorg.Current()); ok {
			o.rec.Record(trace.EventPrune, l.Name,
				fmt.Sprintf("cap=%d", o.mgr.MaxStates()))
			if o.reorg.RemoveState(victim) {
				// Removal evicted the current state: the reorganizer
				// already jumped; surface the move to the harness.
				forced = o.Current()
			}
		}
	}

	phasesBefore := o.reorg.Phases()
	from := o.reorg.Current()
	// Compile the query once; the D-UMTS counter update costs it against
	// every state in the space.
	cq := o.Current().Compile(q)
	switched, sid := o.reorg.Observe(func(id mts.StateID) float64 {
		return o.mgr.Layout(id).CostCompiled(cq)
	})
	if o.reorg.Phases() != phasesBefore {
		o.rec.Record(trace.EventPhase, o.Current().Name,
			fmt.Sprintf("phase=%d", o.reorg.Phases()))
	}
	if switched {
		o.rec.Record(trace.EventSwitch, o.mgr.Layout(sid).Name,
			fmt.Sprintf("from=%s", o.mgr.Layout(from).Name))
		return o.mgr.Layout(sid)
	}
	if forced != nil {
		o.rec.Record(trace.EventSwitch, forced.Name, "from=pruned-current")
	}
	return forced
}
