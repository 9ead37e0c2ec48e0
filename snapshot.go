package oreo

// OptimizerSnapshot is one consistent view of an optimizer's serving
// state, taken at a query boundary: the three fields were all true at
// the same instant (immediately after some ProcessQuery returned, or at
// construction time). It is a value and never changes once taken, so
// the goroutine that owns the optimizer can publish it — through an
// atomic pointer, a channel, a replication stream — and any number of
// readers holding it can cost queries and read skip-lists against
// Serving without any lock (layouts are immutable once built) while the
// decision path keeps advancing underneath them.
type OptimizerSnapshot struct {
	// Serving is the layout queries were served on as of the snapshot.
	Serving *Layout
	// Pending is the in-flight background reorganization target, or nil.
	Pending *Layout
	// Stats are the cumulative counters as of the snapshot.
	Stats Stats
}

// Snapshot returns the optimizer's serving state as of the last
// ProcessQuery. Like ProcessQuery it belongs to the one goroutine
// driving the optimizer; the value it returns does not.
func (o *Optimizer) Snapshot() OptimizerSnapshot {
	return OptimizerSnapshot{Serving: o.loop.Serving, Pending: o.loop.Pending, Stats: o.Stats()}
}

// CostQuery costs q on the snapshot's serving layout and pre-computes
// the survivor partition skip-list, without advancing any decision
// state: no counters move, no admission runs, and Reorganized is always
// false. The evaluation compiles against the layout's immutable
// statistics block and deliberately bypasses the layout's shared cost
// memo, so concurrent readers scale with cores instead of serializing
// on the memo lock. Callers that want the query to also inform
// reorganization decisions hand it to the optimizer's owner for
// ProcessQuery (through a queue, as internal/serve does).
func (s OptimizerSnapshot) CostQuery(q Query) Decision {
	cost, ids := s.Serving.CostSurvivorsSnapshot(q)
	if ids == nil {
		ids = []int{}
	}
	return Decision{Cost: cost, Layout: s.Serving, query: q, survivors: ids}
}
