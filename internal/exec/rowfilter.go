package exec

import (
	"oreo/internal/query"
	"oreo/internal/table"
)

// rowFilter is a query bound once against a schema for row-exact
// evaluation over the store's blocks: column indices resolved, bounds
// typed, IN-sets interned into a map. Its semantics mirror
// query.Query.MatchRow exactly — the soundness oracle of the whole
// pruning stack — so a scan's per-row re-check agrees bit-for-bit with
// the interpreted reference:
//
//   - a predicate on a column missing from the schema matches no row;
//   - a type-mismatched predicate (numeric shape on a string column or
//     vice versa) matches no row;
//   - a numeric predicate with no bounds set matches every row.
//
// The first two shapes collapse the whole conjunction to "never
// matches" at bind time, so scans skip the per-row work entirely.
type rowFilter struct {
	never bool
	preds []boundPred
}

// boundPred is one schema-resolved predicate.
type boundPred struct {
	ci           int
	typ          table.ColType
	hasLo, hasHi bool
	loI, hiI     int64
	loF, hiF     float64
	in           map[string]struct{}
}

// bindFilter resolves the query's predicates against the schema.
func bindFilter(schema *table.Schema, q query.Query) rowFilter {
	var f rowFilter
	for _, p := range q.Preds {
		ci, ok := schema.Index(p.Col)
		if !ok {
			// MatchRow treats a missing column as non-matching.
			f.never = true
			continue
		}
		bp := boundPred{ci: ci, typ: schema.Col(ci).Type}
		switch bp.typ {
		case table.Int64:
			if !p.IsNumeric() {
				f.never = true
				continue
			}
			bp.hasLo, bp.hasHi = p.HasLo, p.HasHi
			bp.loI, bp.hiI = p.LoI, p.HiI
		case table.Float64:
			if !p.IsNumeric() {
				f.never = true
				continue
			}
			bp.hasLo, bp.hasHi = p.HasLo, p.HasHi
			bp.loF, bp.hiF = p.LoF, p.HiF
		case table.String:
			if p.IsNumeric() {
				f.never = true
				continue
			}
			bp.in = make(map[string]struct{}, len(p.In))
			for _, v := range p.In {
				bp.in[v] = struct{}{}
			}
		default:
			// Unrecognized column type: MatchRow matches nothing.
			f.never = true
			continue
		}
		f.preds = append(f.preds, bp)
	}
	return f
}

// match evaluates the conjunction against row r of a block.
func (f *rowFilter) match(blk *table.Dataset, r int) bool {
	if f.never {
		return false
	}
	for i := range f.preds {
		p := &f.preds[i]
		switch p.typ {
		case table.Int64:
			v := blk.Int64Col(p.ci)[r]
			if p.hasLo && v < p.loI {
				return false
			}
			if p.hasHi && v > p.hiI {
				return false
			}
		case table.Float64:
			// Bounds must hold affirmatively, so a NaN cell matches no
			// bounded predicate — identical to Predicate.MatchRow.
			v := blk.Float64Col(p.ci)[r]
			if p.hasLo && !(v >= p.loF) {
				return false
			}
			if p.hasHi && !(v <= p.hiF) {
				return false
			}
		case table.String:
			if _, ok := p.in[blk.StringAt(p.ci, r)]; !ok {
				return false
			}
		}
	}
	return true
}
