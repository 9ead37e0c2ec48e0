package exec

import (
	"fmt"
	"math"

	"oreo/internal/table"
)

// AggOp enumerates the aggregates a scan can fold over its matched
// rows.
type AggOp uint8

const (
	// AggCount counts matched rows; it takes no column.
	AggCount AggOp = iota
	// AggSum sums a numeric column over matched rows. An int64 sum that
	// overflows has no representable result and is reported invalid —
	// never a silently wrapped value. Float sums follow IEEE semantics
	// (they may go non-finite; the serving layer spells that out on the
	// wire).
	AggSum
	// AggMin / AggMax track a column's extreme over matched rows
	// (lexicographic for string columns). NaN cells of a float column
	// do not participate — they can neither seed nor beat an extreme —
	// so the result is a deterministic function of the matched set,
	// independent of the visit order a particular layout induces.
	AggMin
	AggMax
)

// String returns the wire name of the op.
func (op AggOp) String() string {
	switch op {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	default:
		return fmt.Sprintf("AggOp(%d)", int(op))
	}
}

// ParseAggOp resolves a wire name ("count", "sum", "min", "max").
func ParseAggOp(s string) (AggOp, error) {
	switch s {
	case "count":
		return AggCount, nil
	case "sum":
		return AggSum, nil
	case "min":
		return AggMin, nil
	case "max":
		return AggMax, nil
	default:
		return 0, fmt.Errorf("exec: unknown aggregate op %q (have: count, sum, min, max)", s)
	}
}

// AggSpec requests one aggregate. Col is ignored for AggCount and names
// the aggregated column otherwise.
type AggSpec struct {
	Op  AggOp
	Col string
}

// AggValue is one computed aggregate. Type selects which of I/F/S holds
// the result: counts and int64 sums/extremes in I, float64 results in
// F, string extremes in S.
type AggValue struct {
	Op  AggOp
	Col string
	// Type is the result's type: Int64 for counts and int-column
	// aggregates, the column's type otherwise.
	Type table.ColType
	// Valid is false for MIN/MAX over zero matched rows (no extreme
	// exists) and for an int64 SUM that overflowed (no representable
	// result); counts are always valid, and an empty sum is a valid
	// zero.
	Valid bool
	I     int64
	F     float64
	S     string
}

// ValidateAggs reports whether the requested aggregates are legal for
// the schema — the same checks a Scan performs before touching data
// (column exists, sums are numeric, ops known). Callers answering for
// several stores at once (the serving layer's routed execute) validate
// every target up front so a bad aggregate fails the whole request
// before any store has executed or any counter moved.
func ValidateAggs(schema *table.Schema, aggs []AggSpec) error {
	_, err := bindAggs(schema, aggs)
	return err
}

// aggAcc folds one aggregate while a scan walks matched rows.
type aggAcc struct {
	op    AggOp
	col   string
	ci    int
	typ   table.ColType
	valid bool
	// overflowed latches an int64 sum overflow: the result is
	// unrepresentable and stays invalid no matter what follows.
	overflowed bool
	i          int64
	f          float64
	s          string
}

// bindAggs validates the requested aggregates against the schema: the
// column must exist (except for count) and sums must target numeric
// columns. Violations are client errors — an execution API must not
// silently drop an aggregate it was asked for.
func bindAggs(schema *table.Schema, aggs []AggSpec) ([]aggAcc, error) {
	return bindAggsInto(nil, schema, aggs)
}

// bindAggsInto is bindAggs appending into a caller-provided slice (the
// pooled per-scan scratch), so steady-state scans bind without
// allocating. The returned slice shares dst's backing array whenever
// capacity suffices.
func bindAggsInto(dst []aggAcc, schema *table.Schema, aggs []AggSpec) ([]aggAcc, error) {
	if len(aggs) == 0 {
		return dst, nil
	}
	accs := dst
	for _, a := range aggs {
		acc := aggAcc{op: a.Op, col: a.Col}
		switch a.Op {
		case AggCount:
			acc.ci = -1
			acc.typ = table.Int64
			acc.valid = true
		case AggSum, AggMin, AggMax:
			ci, ok := schema.Index(a.Col)
			if !ok {
				return nil, fmt.Errorf("exec: aggregate %s on unknown column %q", a.Op, a.Col)
			}
			acc.ci = ci
			acc.typ = schema.Col(ci).Type
			if a.Op == AggSum {
				if acc.typ == table.String {
					return nil, fmt.Errorf("exec: cannot sum string column %q", a.Col)
				}
				acc.valid = true // an empty sum is a valid zero
			}
		default:
			return nil, fmt.Errorf("exec: unknown aggregate op %v", a.Op)
		}
		accs = append(accs, acc)
	}
	return accs, nil
}

// addInt64 returns a+b and whether it is exact: the one int64 SUM
// overflow rule (two's complement: same-signed operands whose sum flips
// sign). A wrapped value with valid:true would be silent corruption, so
// every fold latches invalid on !ok instead.
func addInt64(a, b int64) (sum int64, ok bool) {
	sum = a + b
	return sum, !((a > 0 && b > 0 && sum < 0) || (a < 0 && b < 0 && sum >= 0))
}

// add folds row r of the block into the accumulator. The caller has
// already established that the row matches the query.
func (a *aggAcc) add(blk *table.Dataset, r int) {
	switch a.op {
	case AggCount:
		a.i++
		return
	case AggSum:
		switch a.typ {
		case table.Int64:
			if a.overflowed {
				return
			}
			sum, ok := addInt64(a.i, blk.Int64Col(a.ci)[r])
			if !ok {
				a.overflowed = true
				a.i = 0
				return
			}
			a.i = sum
		case table.Float64:
			a.f += blk.Float64Col(a.ci)[r]
		}
		return
	}
	// MIN / MAX: the first matched row seeds the extreme.
	switch a.typ {
	case table.Int64:
		v := blk.Int64Col(a.ci)[r]
		if !a.valid || (a.op == AggMin && v < a.i) || (a.op == AggMax && v > a.i) {
			a.i = v
		}
	case table.Float64:
		// NaN cells do not participate: an unorderable value must not
		// seed or poison the extreme, or the result would depend on
		// which matched row a scan happens to visit first — and visit
		// order changes with every reorganization. A min/max whose
		// matched rows are all NaN stays invalid.
		v := blk.Float64Col(a.ci)[r]
		if math.IsNaN(v) {
			return
		}
		if !a.valid || (a.op == AggMin && v < a.f) || (a.op == AggMax && v > a.f) {
			a.f = v
		}
	case table.String:
		v := blk.StringAt(a.ci, r)
		if !a.valid || (a.op == AggMin && v < a.s) || (a.op == AggMax && v > a.s) {
			a.s = v
		}
	}
	a.valid = true
}

// value finalizes the accumulator.
func (a *aggAcc) value() AggValue {
	return AggValue{Op: a.op, Col: a.col, Type: a.typ, Valid: a.valid && !a.overflowed, I: a.i, F: a.f, S: a.s}
}
