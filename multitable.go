package oreo

import (
	"fmt"
	"sort"
)

// MultiOptimizer manages one OREO instance per table, implementing the
// multi-table configuration the paper describes (§VIII): "each table
// can maintain its own instance of OREO and make decisions based on a
// subset of query predicates relevant to the table." A multi-table
// query (e.g. a join with filters on several tables) is routed by
// predicate: each table's optimizer sees only the predicates on its own
// columns and independently decides whether to reorganize that table.
type MultiOptimizer struct {
	names      []string // insertion order, for deterministic iteration
	optimizers map[string]*Optimizer
	datasets   map[string]*Dataset
}

// NewMulti returns an empty multi-table optimizer.
func NewMulti() *MultiOptimizer {
	return &MultiOptimizer{
		optimizers: make(map[string]*Optimizer),
		datasets:   make(map[string]*Dataset),
	}
}

// AddTable registers a table with its own OREO configuration. Table
// names must be unique.
func (m *MultiOptimizer) AddTable(name string, ds *Dataset, cfg Config) error {
	if name == "" {
		return fmt.Errorf("oreo: empty table name")
	}
	if _, dup := m.optimizers[name]; dup {
		return fmt.Errorf("oreo: table %q already registered", name)
	}
	opt, err := New(ds, cfg)
	if err != nil {
		return fmt.Errorf("oreo: table %q: %w", name, err)
	}
	m.names = append(m.names, name)
	m.optimizers[name] = opt
	m.datasets[name] = ds
	return nil
}

// Tables returns the registered table names in registration order.
func (m *MultiOptimizer) Tables() []string {
	return append([]string(nil), m.names...)
}

// Optimizer returns the per-table optimizer, or nil if the table is
// not registered.
func (m *MultiOptimizer) Optimizer(table string) *Optimizer {
	return m.optimizers[table]
}

// Dataset returns the registered table's dataset, or nil if the table
// is not registered.
func (m *MultiOptimizer) Dataset(table string) *Dataset {
	return m.datasets[table]
}

// Route splits the query's predicates by table: each table whose schema
// contains a predicate's column receives that predicate in its
// sub-query. Tables receiving no predicates are absent from the result
// (they would be full scans regardless of layout, so their
// reorganization decisions should not be polluted by them). Predicates
// on columns no table knows are dropped from the routing and reported
// in unrouted (distinct columns, first-appearance order) so callers —
// serving layers in particular — can reject rather than silently answer
// a different question. This is the routing rule of the paper's
// multi-table configuration (§VIII), exposed so serving layers can fan
// a request out across per-table shards.
func (m *MultiOptimizer) Route(q Query) (routed map[string]Query, unrouted []string) {
	return RouteQuery(q, m.names, func(name string) *Schema { return m.datasets[name].Schema() })
}

// RouteQuery is the predicate-routing rule itself, parameterized over
// an ordered table registry: the single implementation behind
// MultiOptimizer.Route and every serving surface that must route
// identically without holding a MultiOptimizer (a replication
// follower's replica core, most importantly — leader/follower answer
// bit-identity depends on one routing rule existing, not two copies).
// schemaOf is called only with names from the list.
func RouteQuery(q Query, names []string, schemaOf func(table string) *Schema) (routed map[string]Query, unrouted []string) {
	perTable := make(map[string][]Predicate)
	seenUnrouted := make(map[string]bool)
	for _, p := range q.Preds {
		found := false
		for _, name := range names {
			if _, ok := schemaOf(name).Index(p.Col); ok {
				perTable[name] = append(perTable[name], p)
				found = true
			}
		}
		if !found && !seenUnrouted[p.Col] {
			seenUnrouted[p.Col] = true
			unrouted = append(unrouted, p.Col)
		}
	}
	routed = make(map[string]Query, len(perTable))
	for name, preds := range perTable {
		routed[name] = Query{ID: q.ID, Template: q.Template, Preds: preds}
	}
	return routed, unrouted
}

// ProcessQuery routes the query's predicates to every table whose
// schema contains the predicate column (see Route), and feeds each
// affected table's optimizer the relevant sub-query. The result maps
// table name to that table's decision.
func (m *MultiOptimizer) ProcessQuery(q Query) map[string]Decision {
	routed, _ := m.Route(q)
	out := make(map[string]Decision, len(routed))
	for _, name := range m.names {
		sub, touched := routed[name]
		if !touched {
			continue
		}
		out[name] = m.optimizers[name].ProcessQuery(sub)
	}
	return out
}

// Stats returns the per-table statistics, keyed by table name.
func (m *MultiOptimizer) Stats() map[string]Stats {
	out := make(map[string]Stats, len(m.optimizers))
	for name, opt := range m.optimizers {
		out[name] = opt.Stats()
	}
	return out
}

// TotalCost sums query and reorganization costs across all tables —
// the combined bill the paper's multi-table experiments report.
func (m *MultiOptimizer) TotalCost() (queryCost, reorgCost float64) {
	names := append([]string(nil), m.names...)
	sort.Strings(names)
	for _, name := range names {
		st := m.optimizers[name].Stats()
		queryCost += st.QueryCost
		reorgCost += st.ReorgCost
	}
	return queryCost, reorgCost
}
