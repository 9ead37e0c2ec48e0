// Package prune implements OREO's compiled pruning engine: the fast
// path for the service cost c(s, q) that the whole online loop is built
// on (query.FractionScanned in the interpreted model).
//
// The interpreted path re-resolves every predicate's column name via a
// map lookup per partition per predicate and walks pointer-chased
// per-partition metadata. That is fine for a single evaluation but the
// layout manager re-costs every candidate layout against the full
// sliding window each period, and the admission rule (Algorithm 5)
// recomputes cost vectors for every incumbent — thousands of
// evaluations per period over identical (layout, query) pairs.
//
// This package splits the work into three stages:
//
//   - Compile binds each predicate once against a *table.Schema: column
//     index, type-resolved kind, typed bounds, and an interned IN-set
//     with precomputed Bloom hash pairs. Unknown columns compile to
//     "cannot prune" and type mismatches to "never matches", mirroring
//     Predicate.MayMatch exactly.
//   - CompiledQuery.FractionScanned evaluates against the partitioning's
//     column-major statistics block (table.StatsBlock): each numeric
//     predicate sweeps two contiguous min/max arrays and clears bits in
//     a partition survivor mask, with zero map lookups and zero heap
//     allocations on the hot path. Only the predicates' columns are
//     read, and the block builds each on its first read.
//   - Engine memoizes per-(layout, query) costs under a bounded LRU
//     keyed by the query's structural fingerprint, so window
//     re-evaluations and admission distance checks stop recomputing
//     identical pairs.
//
// The engine is an optimization, not a new cost model: for every
// schema, partitioning, and query, the compiled cost is bit-for-bit
// equal to the interpreted query.FractionScanned (enforced by the
// equivalence property tests in this package). The row-exact
// query.MatchRow path is untouched and remains the soundness oracle.
package prune

import (
	"math/bits"

	"oreo/internal/bloom"
	"oreo/internal/query"
	"oreo/internal/table"
)

// predKind is the type-resolved shape of a compiled predicate.
type predKind uint8

const (
	// kindNever marks a predicate no partition can satisfy (a type
	// mismatch between the predicate shape and the column type). The
	// whole conjunction compiles to "never matches".
	kindNever predKind = iota
	// kindInt is a numeric range evaluated on int64 column stats.
	kindInt
	// kindFloat is a numeric range evaluated on float64 column stats.
	kindFloat
	// kindString is an IN-set membership test on string column stats.
	kindString
	// kindSeen only requires the partition to have observed the column
	// (a predicate on a column of unrecognized type; MayMatch admits it
	// after the emptiness check).
	kindSeen
)

// inValue is one interned IN-set member: the value plus its precomputed
// Bloom double-hash pair, so overflowed distinct sets are probed without
// re-hashing per partition.
type inValue struct {
	v      string
	h1, h2 uint64
}

// compiledPred is one schema-bound predicate.
type compiledPred struct {
	kind         predKind
	ci           int
	hasLo, hasHi bool
	loI, hiI     int64
	loF, hiF     float64
	in           []inValue
}

// CompiledQuery is a query bound against one schema, ready for repeated
// metadata evaluation. It is immutable after Compile and safe for
// concurrent use. A CompiledQuery may be evaluated against any
// partitioning of the schema it was compiled for; Engine.CostCompiled
// transparently rebinds when handed a query compiled for another schema.
type CompiledQuery struct {
	schema *table.Schema
	src    query.Query
	// fp is the query's structural identity over the cost model: two
	// queries share it iff they have the same predicate sequence
	// (column, flags, bounds, IN list). ID and Template are excluded —
	// they do not affect cost. The encoding is injective
	// (length-prefixed), so equality is exact, never a hash collision.
	fp string
	// preds holds the bound predicates. Predicates on unknown columns
	// are elided at compile time (they can never prune).
	preds []compiledPred
	// never is set when some predicate can never match: the query scans
	// nothing regardless of the partitioning.
	never bool
}

// Compile binds the query's predicates against the schema. It never
// fails: unknown columns stay conservative (unprunable) and
// type-mismatched predicates make the query unsatisfiable, exactly as
// Predicate.MayMatch treats them.
func Compile(schema *table.Schema, q query.Query) *CompiledQuery {
	return compileFP(schema, q, Fingerprint(q))
}

// compileFP is Compile with the fingerprint already computed.
func compileFP(schema *table.Schema, q query.Query, fp string) *CompiledQuery {
	cq := &CompiledQuery{schema: schema, src: q, fp: fp}
	for _, p := range q.Preds {
		ci, ok := schema.Index(p.Col)
		if !ok {
			// Unknown column: metadata can never rule a partition out.
			continue
		}
		cp := compiledPred{ci: ci}
		switch schema.Col(ci).Type {
		case table.Int64:
			if !p.IsNumeric() {
				cq.never = true
				continue
			}
			cp.kind = kindInt
			cp.hasLo, cp.hasHi = p.HasLo, p.HasHi
			cp.loI, cp.hiI = p.LoI, p.HiI
		case table.Float64:
			if !p.IsNumeric() {
				cq.never = true
				continue
			}
			cp.kind = kindFloat
			cp.hasLo, cp.hasHi = p.HasLo, p.HasHi
			cp.loF, cp.hiF = p.LoF, p.HiF
		case table.String:
			if p.IsNumeric() {
				cq.never = true
				continue
			}
			cp.kind = kindString
			cp.in = internIn(p.In)
		default:
			cp.kind = kindSeen
		}
		cq.preds = append(cq.preds, cp)
	}
	return cq
}

// internIn dedupes the IN list (first occurrence wins) and precomputes
// each member's Bloom hash pair.
func internIn(in []string) []inValue {
	out := make([]inValue, 0, len(in))
	var seen map[string]bool
	if len(in) > 8 {
		seen = make(map[string]bool, len(in))
	}
	for _, v := range in {
		if seen != nil {
			if seen[v] {
				continue
			}
			seen[v] = true
		} else {
			dup := false
			for i := range out {
				if out[i].v == v {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
		}
		h1, h2 := bloom.HashPair(v)
		out = append(out, inValue{v: v, h1: h1, h2: h2})
	}
	return out
}

// Query returns the source query the compilation was built from.
func (cq *CompiledQuery) Query() query.Query { return cq.src }

// stackMaskWords bounds the survivor mask kept on the stack: 16 words
// cover 1024 partitions, far above the default partition-count clamp.
const stackMaskWords = 16

// FractionScanned returns the paper's service cost c(s, q) on the
// partitioning: the fraction of rows in partitions the compiled query
// cannot skip. The result is bit-for-bit equal to the interpreted
// query.FractionScanned for the same schema, partitioning, and query.
func (cq *CompiledQuery) FractionScanned(part *table.Partitioning) float64 {
	if part.TotalRows == 0 {
		return 0
	}
	if cq.never {
		return 0
	}
	b := part.Stats()
	np := b.NumParts

	// Survivor mask, seeded with the non-empty partitions: a partition
	// with no rows can never be scanned (Query.MayMatch's NumRows gate).
	var stack [stackMaskWords]uint64
	words := (np + 63) / 64
	var mask []uint64
	if words <= stackMaskWords {
		mask = stack[:words]
	} else {
		mask = make([]uint64, words)
	}
	copy(mask, b.NonEmpty)
	cq.applyPreds(b, mask)

	scanned := 0
	for w := 0; w < words; w++ {
		m := mask[w]
		for m != 0 {
			pid := w<<6 + bits.TrailingZeros64(m)
			m &= m - 1
			scanned += b.Rows[pid]
		}
	}
	return float64(scanned) / float64(part.TotalRows)
}

// AppendSurvivors appends to dst the IDs of partitions the compiled
// query cannot skip on the partitioning — the skip-list complement an
// execution layer must actually read — in ascending order, and returns
// the extended slice together with the fraction scanned. A partition is
// a survivor exactly when the interpreted Query.MayMatch admits its
// metadata, so the returned fraction is bit-for-bit equal to
// FractionScanned. A caller holding a scratch buffer can pass it as dst
// to amortize the list allocation; Survivors allocates fresh.
func (cq *CompiledQuery) AppendSurvivors(dst []int, part *table.Partitioning) ([]int, float64) {
	if part.TotalRows == 0 || cq.never {
		return dst, 0
	}
	b := part.Stats()
	np := b.NumParts

	var stack [stackMaskWords]uint64
	words := (np + 63) / 64
	var mask []uint64
	if words <= stackMaskWords {
		mask = stack[:words]
	} else {
		mask = make([]uint64, words)
	}
	copy(mask, b.NonEmpty)
	cq.applyPreds(b, mask)

	scanned := 0
	for w := 0; w < words; w++ {
		m := mask[w]
		for m != 0 {
			pid := w<<6 + bits.TrailingZeros64(m)
			m &= m - 1
			dst = append(dst, pid)
			scanned += b.Rows[pid]
		}
	}
	return dst, float64(scanned) / float64(part.TotalRows)
}

// Survivors is AppendSurvivors into a fresh slice.
func (cq *CompiledQuery) Survivors(part *table.Partitioning) ([]int, float64) {
	return cq.AppendSurvivors(nil, part)
}

// applyPreds clears the bits of partitions some compiled predicate rules
// out. mask must span the block's partitions and be seeded with
// b.NonEmpty before the call.
func (cq *CompiledQuery) applyPreds(b *table.StatsBlock, mask []uint64) {
	np := b.NumParts
	words := len(mask)
	for i := range cq.preds {
		p := &cq.preds[i]
		col := b.Column(p.ci)
		switch p.kind {
		case kindInt:
			// Dense sweep over the column's contiguous min/max arrays.
			seen, minI, maxI := col.Seen, col.MinI, col.MaxI
			for pid := 0; pid < np; pid++ {
				ok := seen[pid]
				if p.hasLo && maxI[pid] < p.loI {
					ok = false
				}
				if p.hasHi && minI[pid] > p.hiI {
					ok = false
				}
				if !ok {
					mask[pid>>6] &^= 1 << uint(pid&63)
				}
			}
		case kindFloat:
			seen, minF, maxF := col.Seen, col.MinF, col.MaxF
			for pid := 0; pid < np; pid++ {
				// NaN-poisoned metadata compares false on both bounds and
				// stays scannable, matching the interpreted path.
				ok := seen[pid]
				if p.hasLo && maxF[pid] < p.loF {
					ok = false
				}
				if p.hasHi && minF[pid] > p.hiF {
					ok = false
				}
				if !ok {
					mask[pid>>6] &^= 1 << uint(pid&63)
				}
			}
		case kindString:
			// Membership tests cost a map/Bloom probe each; visit only
			// the partitions still alive in the mask.
			for w := 0; w < words; w++ {
				m := mask[w]
				for m != 0 {
					bit := uint(bits.TrailingZeros64(m))
					m &= m - 1
					pid := w<<6 + int(bit)
					if !stringPredMayMatch(p, &col, pid) {
						mask[w] &^= 1 << bit
					}
				}
			}
		case kindSeen:
			seen := col.Seen
			for pid := 0; pid < np; pid++ {
				if !seen[pid] {
					mask[pid>>6] &^= 1 << uint(pid&63)
				}
			}
		}
	}
}

// stringPredMayMatch mirrors ColumnStats.ContainsString over the interned
// IN-set, probing Bloom filters with precomputed hash pairs.
func stringPredMayMatch(p *compiledPred, col *table.ColumnBlock, pid int) bool {
	if !col.Seen[pid] {
		return false
	}
	cs := col.Col[pid]
	for i := range p.in {
		iv := &p.in[i]
		if cs.Distinct != nil {
			if _, ok := cs.Distinct[iv.v]; ok {
				return true
			}
			continue
		}
		if iv.v < cs.MinS || iv.v > cs.MaxS {
			continue
		}
		if cs.Bloom != nil {
			if cs.Bloom.MayContainHash(iv.h1, iv.h2) {
				return true
			}
			continue
		}
		return true
	}
	return false
}

// CompileAll binds every query of a workload sample against the schema.
// Callers evaluating one sample across many layouts (admission checks,
// window re-costing) compile once and reuse the result.
func CompileAll(schema *table.Schema, qs []query.Query) []*CompiledQuery {
	out := make([]*CompiledQuery, len(qs))
	for i, q := range qs {
		out[i] = Compile(schema, q)
	}
	return out
}
