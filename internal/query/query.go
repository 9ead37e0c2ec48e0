// Package query defines the predicate and query model that OREO's cost
// estimation is built on.
//
// A Query is a conjunction of single-column predicates (range predicates
// on numeric columns, equality/IN predicates on categorical columns) —
// the predicate shapes supported by partition-level min/max and
// distinct-set metadata, which is exactly the class the paper evaluates
// (it explicitly excludes templates whose predicates cannot be judged
// from basic partition metadata).
//
// Every predicate supports two evaluations:
//
//   - MatchRow: exact evaluation against a dataset row (used by data
//     generators, tests, and the skipping-soundness property tests);
//   - MayMatch: conservative evaluation against partition metadata (used
//     for partition skipping and cost estimation).
//
// MayMatch is sound by construction: if any row in a partition matches,
// MayMatch must return true for that partition's metadata.
//
// FractionScanned below is the *interpreted* cost path: it re-resolves
// column names per partition per predicate and walks per-partition
// metadata structs. It is kept as the readable reference
// implementation and the oracle the equivalence property tests compare
// against; the production hot path is the compiled engine in
// internal/prune (used by layout.Layout.Cost), which is bit-for-bit
// equal to it by construction and test.
package query

import (
	"fmt"
	"math"
	"strings"

	"oreo/internal/table"
	"oreo/internal/wire"
)

// Predicate is a single-column filter. Exactly one of the following
// shapes is valid:
//
//   - numeric range: Col of Int64/Float64 type with HasLo and/or HasHi
//     set; the predicate is Lo <= col <= Hi over the set bounds;
//   - string IN: Col of String type with a non-empty In list (a single
//     element expresses equality).
type Predicate struct {
	// Col is the column name the predicate filters on.
	Col string

	// Numeric bounds (inclusive). Only consulted when HasLo/HasHi.
	LoI, HiI int64
	LoF, HiF float64
	HasLo    bool
	HasHi    bool

	// In is the accepted value set for a categorical predicate.
	In []string
}

// IntRange returns a closed int64 range predicate lo <= col <= hi.
func IntRange(col string, lo, hi int64) Predicate {
	return Predicate{Col: col, LoI: lo, HiI: hi, HasLo: true, HasHi: true}
}

// IntGE returns an int64 lower-bound predicate col >= lo.
func IntGE(col string, lo int64) Predicate {
	return Predicate{Col: col, LoI: lo, HasLo: true}
}

// IntLE returns an int64 upper-bound predicate col <= hi.
func IntLE(col string, hi int64) Predicate {
	return Predicate{Col: col, HiI: hi, HasHi: true}
}

// FloatRange returns a closed float64 range predicate lo <= col <= hi.
func FloatRange(col string, lo, hi float64) Predicate {
	return Predicate{Col: col, LoF: lo, HiF: hi, HasLo: true, HasHi: true}
}

// FloatGE returns a float64 lower-bound predicate col >= lo.
func FloatGE(col string, lo float64) Predicate {
	return Predicate{Col: col, LoF: lo, HasLo: true}
}

// FloatLE returns a float64 upper-bound predicate col <= hi.
func FloatLE(col string, hi float64) Predicate {
	return Predicate{Col: col, HiF: hi, HasHi: true}
}

// StrEq returns an equality predicate col == v.
func StrEq(col, v string) Predicate { return Predicate{Col: col, In: []string{v}} }

// StrIn returns a membership predicate col IN (vs...).
func StrIn(col string, vs ...string) Predicate { return Predicate{Col: col, In: vs} }

// ToWire returns a conjunction in the wire encoding, internal/wire's
// PredicateJSON: the shape of the query log, of a /v1 request and of a
// follower's forwarded observation. An empty conjunction is nil.
func ToWire(preds []Predicate) []wire.PredicateJSON {
	if len(preds) == 0 {
		return nil
	}
	out := make([]wire.PredicateJSON, len(preds))
	for i, p := range preds {
		out[i] = wire.PredicateJSON{
			Col: p.Col, HasLo: p.HasLo, HasHi: p.HasHi,
			LoI: p.LoI, HiI: p.HiI, LoF: p.LoF, HiF: p.HiF, In: p.In,
		}
	}
	return out
}

// FromWire is the inverse of ToWire. It does not judge shape: a caller
// taking predicates from outside holds them to wire.CheckPreds first.
func FromWire(preds []wire.PredicateJSON) []Predicate {
	if len(preds) == 0 {
		return nil
	}
	out := make([]Predicate, len(preds))
	for i, p := range preds {
		out[i] = Predicate{
			Col: p.Col, HasLo: p.HasLo, HasHi: p.HasHi,
			LoI: p.LoI, HiI: p.HiI, LoF: p.LoF, HiF: p.HiF, In: p.In,
		}
	}
	return out
}

// IsNumeric reports whether the predicate is a numeric range predicate.
func (p Predicate) IsNumeric() bool { return len(p.In) == 0 }

// String renders the predicate for diagnostics.
func (p Predicate) String() string {
	if !p.IsNumeric() {
		if len(p.In) == 1 {
			return fmt.Sprintf("%s = %q", p.Col, p.In[0])
		}
		return fmt.Sprintf("%s IN (%s)", p.Col, strings.Join(p.In, ","))
	}
	lo, hi := "-inf", "+inf"
	if p.HasLo {
		lo = fmt.Sprintf("%v|%v", p.LoI, p.LoF)
	}
	if p.HasHi {
		hi = fmt.Sprintf("%v|%v", p.HiI, p.HiF)
	}
	return fmt.Sprintf("%s in [%s, %s]", p.Col, lo, hi)
}

// Query is a conjunction of predicates, tagged with the workload
// template it was instantiated from (used by oracle baselines and by
// experiment reporting; the online algorithms never look at Template).
type Query struct {
	// ID is the query's position in the stream.
	ID int
	// Template identifies the generating template, or -1 if ad hoc.
	Template int
	// Preds is the conjunction of filters. An empty conjunction matches
	// every row (a full scan).
	Preds []Predicate
}

// Columns returns the distinct column names referenced by the query, in
// first-appearance order.
func (q Query) Columns() []string {
	seen := make(map[string]bool, len(q.Preds))
	var cols []string
	for _, p := range q.Preds {
		if !seen[p.Col] {
			seen[p.Col] = true
			cols = append(cols, p.Col)
		}
	}
	return cols
}

// MatchRow reports whether row r of dataset d satisfies the query.
// Columns missing from the schema are treated as non-matching, so a
// query against the wrong dataset selects nothing rather than panicking.
func (q Query) MatchRow(d *table.Dataset, r int) bool {
	for _, p := range q.Preds {
		if !p.MatchRow(d, r) {
			return false
		}
	}
	return true
}

// MatchRow reports whether row r of dataset d satisfies the predicate.
func (p Predicate) MatchRow(d *table.Dataset, r int) bool {
	ci, ok := d.Schema().Index(p.Col)
	if !ok {
		return false
	}
	switch d.Schema().Col(ci).Type {
	case table.Int64:
		v := d.Int64At(ci, r)
		if p.HasLo && v < p.LoI {
			return false
		}
		if p.HasHi && v > p.HiI {
			return false
		}
		return p.IsNumeric()
	case table.Float64:
		// Bounds must hold affirmatively: a NaN cell satisfies neither
		// v >= lo nor v <= hi, so it never matches a bounded predicate.
		// (The naive `v < lo → reject` structure would let NaN slip
		// through every range — including contradictory ones — and make
		// metadata pruning unsound, since partition min/max are folded
		// from the finite values only.)
		v := d.Float64At(ci, r)
		if p.HasLo && !(v >= p.LoF) {
			return false
		}
		if p.HasHi && !(v <= p.HiF) {
			return false
		}
		return p.IsNumeric()
	case table.String:
		if p.IsNumeric() {
			return false // numeric predicate on string column: type mismatch
		}
		v := d.StringAt(ci, r)
		for _, want := range p.In {
			if v == want {
				return true
			}
		}
		return false
	default:
		return false
	}
}

// MayMatch reports whether, judged from partition metadata alone, the
// partition could contain a row satisfying the predicate. It must never
// return false for a partition that contains a matching row.
func (p Predicate) MayMatch(schema *table.Schema, m *table.PartitionMeta) bool {
	ci, ok := schema.Index(p.Col)
	if !ok {
		// Unknown column: cannot rule the partition out from metadata.
		return true
	}
	cs := &m.Stats[ci]
	if cs.Empty() {
		return false // empty partition holds no rows at all
	}
	switch schema.Col(ci).Type {
	case table.Int64:
		if !p.IsNumeric() {
			return false
		}
		if p.HasLo && cs.MaxI < p.LoI {
			return false
		}
		if p.HasHi && cs.MinI > p.HiI {
			return false
		}
		return true
	case table.Float64:
		if !p.IsNumeric() {
			return false
		}
		if p.HasLo && cs.MaxF < p.LoF {
			return false
		}
		if p.HasHi && cs.MinF > p.HiF {
			return false
		}
		// NaN-poisoned metadata (no finite observations) stays scannable.
		if math.IsNaN(cs.MinF) || math.IsNaN(cs.MaxF) {
			return true
		}
		return true
	case table.String:
		if p.IsNumeric() {
			return false
		}
		for _, want := range p.In {
			if cs.ContainsString(want) {
				return true
			}
		}
		return false
	default:
		return true
	}
}

// MayMatch reports whether the partition could contain a matching row
// for the whole conjunction.
func (q Query) MayMatch(schema *table.Schema, m *table.PartitionMeta) bool {
	if m.NumRows == 0 {
		return false
	}
	for _, p := range q.Preds {
		if !p.MayMatch(schema, m) {
			return false
		}
	}
	return true
}

// FractionScanned returns the paper's service cost c(s, q): the fraction
// of the table's rows living in partitions that cannot be skipped for q
// under partitioning part. The result is in [0, 1] and is computed from
// metadata only.
func FractionScanned(schema *table.Schema, part *table.Partitioning, q Query) float64 {
	if part.TotalRows == 0 {
		return 0
	}
	scanned := 0
	for _, m := range part.Meta() {
		if q.MayMatch(schema, m) {
			scanned += m.NumRows
		}
	}
	return float64(scanned) / float64(part.TotalRows)
}

// AvgFractionScanned returns the mean FractionScanned over a workload.
// An empty workload costs 0.
func AvgFractionScanned(schema *table.Schema, part *table.Partitioning, qs []Query) float64 {
	if len(qs) == 0 {
		return 0
	}
	sum := 0.0
	for _, q := range qs {
		sum += FractionScanned(schema, part, q)
	}
	return sum / float64(len(qs))
}

// Selectivity returns the exact fraction of dataset rows matching q.
// It scans the data and is intended for tests, workload calibration,
// and oracle baselines — not for online cost estimation.
func Selectivity(d *table.Dataset, q Query) float64 {
	if d.NumRows() == 0 {
		return 0
	}
	n := 0
	for r := 0; r < d.NumRows(); r++ {
		if q.MatchRow(d, r) {
			n++
		}
	}
	return float64(n) / float64(d.NumRows())
}
