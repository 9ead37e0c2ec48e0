// Package layout defines the data-layout abstraction OREO switches
// between and implements the three layout generation mechanisms the
// paper evaluates: default sort/range partitioning, workload-aware
// Z-ordering (on the most queried columns), and greedy Qd-trees.
//
// A Layout is a materialized mapping of a dataset's rows to partitions
// plus the partition metadata needed for skipping. A Generator produces
// a Layout from a dataset sample, a target query workload, and a target
// partition count — the paper's generate_layout(D, Q, k) interface. The
// companion eval_skipped(s, Q) is 1 − AvgCost(Q): costing works from
// partition metadata alone.
package layout

import (
	"fmt"

	"oreo/internal/prune"
	"oreo/internal/query"
	"oreo/internal/table"
)

// Layout is a candidate data layout: one state of the D-UMTS system.
// All costing methods run on the compiled pruning engine
// (internal/prune): predicates are bound against the schema once,
// evaluated over the partitioning's column-major statistics block, and
// memoized per query fingerprint — bit-for-bit equal to the interpreted
// query.FractionScanned, which remains available as the reference path.
type Layout struct {
	// Name describes how the layout was produced, e.g.
	// "zorder(l_shipdate,l_discount,l_quantity)" or "qdtree(w=200@1400)".
	Name string
	// Part is the materialized partitioning of the full dataset.
	Part *table.Partitioning
	// schema is retained for metadata evaluation.
	schema *table.Schema
	// eng memoizes and evaluates service costs for this layout.
	eng *prune.Engine
}

// New wraps a partitioning as a named layout.
func New(name string, schema *table.Schema, part *table.Partitioning) *Layout {
	return &Layout{Name: name, Part: part, schema: schema, eng: prune.NewEngine(schema, part)}
}

// Schema returns the schema the layout was built over.
func (l *Layout) Schema() *table.Schema { return l.schema }

// Engine returns the layout's costing engine (memo diagnostics).
func (l *Layout) Engine() *prune.Engine { return l.eng }

// Cost returns the paper's service cost c(s, q): the fraction of rows in
// partitions that cannot be skipped for q, judged from metadata only.
func (l *Layout) Cost(q query.Query) float64 {
	if l.eng == nil {
		// Hand-built Layout literal (tests): fall back to the
		// interpreted path rather than requiring New.
		return query.FractionScanned(l.schema, l.Part, q)
	}
	return l.eng.Cost(q)
}

// Compile binds a query against the layout's schema for repeated
// evaluation. The result can be shared across every layout over the same
// schema (the common case for a state space over one dataset).
func (l *Layout) Compile(q query.Query) *prune.CompiledQuery {
	return prune.Compile(l.schema, q)
}

// CompileWorkload binds every query of a sample against the layout's
// schema; see Compile.
func (l *Layout) CompileWorkload(qs []query.Query) []*prune.CompiledQuery {
	return prune.CompileAll(l.schema, qs)
}

// CostCompiled is Cost for a pre-compiled query: callers costing the
// same query against many layouts compile once and fan the result out.
func (l *Layout) CostCompiled(cq *prune.CompiledQuery) float64 {
	if l.eng == nil {
		return query.FractionScanned(l.schema, l.Part, cq.Query())
	}
	return l.eng.CostCompiled(cq)
}

// CostSurvivors returns the service cost together with the survivor
// partition skip-list: the ascending IDs of partitions whose metadata
// cannot rule the query out — exactly the partitions an execution layer
// must read (all others are provably skippable). The cost equals the
// row mass of the list divided by the table size and is bit-for-bit
// equal to Cost(q); the evaluation also warms the layout's cost memo.
func (l *Layout) CostSurvivors(q query.Query) (float64, []int) {
	if l.eng == nil {
		// Hand-built Layout literal (tests): the memo-free path is the
		// whole evaluation.
		return l.CostSurvivorsSnapshot(q)
	}
	return l.eng.CostSurvivors(q)
}

// CostSurvivorsSnapshot is CostSurvivors evaluated memo-free: it
// compiles against the schema and sweeps the partitioning's immutable
// statistics block without ever touching the layout's shared cost memo,
// so concurrent readers holding the layout (serving snapshots, the
// execution layer's store states) scale with cores instead of
// serializing on the memo lock. The cost and skip-list are bit-for-bit
// equal to CostSurvivors.
func (l *Layout) CostSurvivorsSnapshot(q query.Query) (float64, []int) {
	ids, c := prune.Compile(l.schema, q).Survivors(l.Part)
	return c, ids
}

// CostSurvivorsCompiled is CostSurvivors for a pre-compiled query. A
// query compiled against a different schema is transparently rebound.
func (l *Layout) CostSurvivorsCompiled(cq *prune.CompiledQuery) (float64, []int) {
	if l.eng == nil {
		if cq.Schema() != l.schema {
			cq = prune.Compile(l.schema, cq.Query())
		}
		ids, c := cq.Survivors(l.Part)
		return c, ids
	}
	return l.eng.CostSurvivorsCompiled(cq)
}

// AvgCost returns the mean service cost over a workload.
func (l *Layout) AvgCost(qs []query.Query) float64 {
	if len(qs) == 0 {
		return 0
	}
	sum := 0.0
	for _, q := range qs {
		sum += l.Cost(q)
	}
	return sum / float64(len(qs))
}

// AvgCostCompiled is AvgCost over a pre-compiled sample.
func (l *Layout) AvgCostCompiled(cqs []*prune.CompiledQuery) float64 {
	if len(cqs) == 0 {
		return 0
	}
	sum := 0.0
	for _, cq := range cqs {
		sum += l.CostCompiled(cq)
	}
	return sum / float64(len(cqs))
}

// CostVectorCompiled evaluates the layout on each query of a compiled
// sample, producing the vector that Algorithm 5's layout-distance works
// on.
func (l *Layout) CostVectorCompiled(cqs []*prune.CompiledQuery) []float64 {
	v := make([]float64, len(cqs))
	for i, cq := range cqs {
		v[i] = l.CostCompiled(cq)
	}
	return v
}

// Distance returns the normalized L1 distance between two cost vectors,
// the layout-similarity measure of Algorithm 5. Vectors must have equal
// length. The result is in [0, 1] because each component is in [0, 1].
func Distance(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("layout: cost vectors of different lengths %d vs %d", len(a), len(b)))
	}
	if len(a) == 0 {
		return 0
	}
	sum := 0.0
	for i := range a {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return sum / float64(len(a))
}

// Generator produces layouts for (dataset, workload, partition count).
// Implementations must be deterministic given their inputs so that
// experiment runs are reproducible.
type Generator interface {
	// Name identifies the generation mechanism ("qdtree", "zorder", ...).
	Name() string
	// Generate builds a layout of about k partitions for the dataset,
	// tuned to the query workload qs (which may be empty for
	// workload-oblivious generators).
	Generate(d *table.Dataset, qs []query.Query, k int) *Layout
}
