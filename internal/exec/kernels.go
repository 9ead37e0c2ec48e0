package exec

import (
	"math"
	"sync"

	"oreo/internal/query"
	"oreo/internal/table"
)

// This file is the vectorized scan engine: predicates bound into typed
// columnar kernels that sweep whole columns into a selection vector,
// then tight per-column aggregate folds over the selected indices.
// Semantics are pinned to the row-at-a-time reference (rowfilter.go,
// aggAcc.add) bit for bit — the property tests in this package compare
// the two engines on random data, NaNs included.
//
// Sentinel bounds make every numeric kernel one two-sided range test
// with no per-row has-lo/has-hi case: a predicate missing a bound gets
// the type's identity bound (MinInt64 / MaxInt64, -Inf / +Inf). This is
// sound because a bound-free predicate matches every row (it is elided
// at bind time, so sentinels only ever stand in for one side).
//
// The kernels are branch-free in the data: each loop body stores the
// row index at the selection cursor unconditionally and advances the
// cursor by a computed 0/1 (b2i), so a predicate's selectivity never
// reaches the branch predictor. (A conditional advance is cheap only
// when nearly all or nearly no rows match; the TPC-H templates match
// 4–25 % of a block's rows.)
//   - Int64: v in [lo, hi] is the one unsigned compare
//     uint64(v)-uint64(lo) <= uint64(hi)-uint64(lo). Subtracting lo
//     maps [lo, hi] onto [0, hi-lo] and wraps every v < lo past it. The
//     identity needs lo <= hi; an inverted range matches nothing and
//     returns the empty selection before the loop.
//   - Float64: b2i(v >= lo) & b2i(v <= hi). Both comparisons are
//     affirmative, and every ordered comparison with NaN is false, so a
//     NaN cell fails for every bound — real or sentinel — exactly as
//     MatchRow requires NaN to fail any bounded float predicate.
//   - String: one bit test of the cell's code against the IN-set bitmap.
//
// String predicates never touch strings on the hot path: blocks hold
// string columns as codes of the dataset's table.StringDict, so an
// IN-set binds to a bitmap over the column's code space and the kernel
// probes one bit per row. An IN value absent from the
// dictionary occurs in no row of any block, so it simply sets no bit;
// an IN-set that sets no bits at all collapses to "never matches".

// kernPred is one predicate bound into kernel form.
type kernPred struct {
	ci  int
	typ table.ColType
	// Numeric range, sentinel-filled: [loI,hiI] for Int64 columns,
	// [loF,hiF] for Float64 columns.
	loI, hiI int64
	loF, hiF float64
	// set is the IN-set as a bitmap over the column dictionary's code
	// space (String columns only).
	set []uint64
}

// covers reports whether a partition's column statistics prove the
// predicate true for every row the partition holds. Only Int64 ranges
// are answered this way: on the TPC-H serving layouts no Float64 or
// string predicate is ever covered, so their proofs (a NaN flag, a
// code-presence bitmap) would be state with no traffic.
func (p *kernPred) covers(stats []table.ColumnStats) bool {
	return p.typ == table.Int64 && p.loI <= stats[p.ci].MinI && stats[p.ci].MaxI <= p.hiI
}

// scanScratch is the per-scan (or per-worker) reusable state: the
// selection vector, bound predicates and accumulators, and the arena
// backing IN-set code bitmaps. Recycled through scratchPool so
// steady-state scans allocate nothing beyond their Result.
type scanScratch struct {
	sel []int32
	// all is the identity selection 0, 1, 2, …: what a covered block
	// hands the folds that have no stored summary. It only ever grows,
	// so any prefix stays valid across scans.
	all       []int32
	preds     []kernPred
	accs      []aggAcc
	partials  []aggAcc
	codeArena []uint64
}

var scratchPool = sync.Pool{New: func() any { return new(scanScratch) }}

func getScratch() *scanScratch { return scratchPool.Get().(*scanScratch) }

func putScratch(sc *scanScratch) {
	// Drop pointer-bearing views so pooled scratch does not pin block
	// data; capacities are what we're recycling.
	sc.preds = sc.preds[:0]
	sc.accs = sc.accs[:0]
	sc.partials = sc.partials[:0]
	scratchPool.Put(sc)
}

// blockPartials returns the scratch's per-block partial slots, one per
// accumulator.
func (sc *scanScratch) blockPartials(n int) []aggAcc {
	if cap(sc.partials) < n {
		sc.partials = make([]aggAcc, n)
	}
	return sc.partials[:n]
}

// bindKernels resolves the query's predicates into kernel form,
// writing them to sc.preds. It reports never=true when the conjunction
// cannot match any row (unknown column, type-mismatched predicate, or
// an IN-set with no member present in the dictionary) — the same
// collapse bindFilter performs, plus the dictionary case, which for
// the interpreted engine is merely a per-row miss. Predicates that
// match every row (numeric with no bounds) are elided.
func (s *Store) bindKernels(sc *scanScratch, q query.Query) (never bool) {
	sc.preds = sc.preds[:0]
	arena := sc.codeArena[:0]
	for _, p := range q.Preds {
		ci, ok := s.schema.Index(p.Col)
		if !ok {
			never = true
			continue
		}
		kp := kernPred{ci: ci, typ: s.schema.Col(ci).Type}
		switch kp.typ {
		case table.Int64:
			if !p.IsNumeric() {
				never = true
				continue
			}
			if !p.HasLo && !p.HasHi {
				continue // matches every row
			}
			kp.loI, kp.hiI = math.MinInt64, math.MaxInt64
			if p.HasLo {
				kp.loI = p.LoI
			}
			if p.HasHi {
				kp.hiI = p.HiI
			}
		case table.Float64:
			if !p.IsNumeric() {
				never = true
				continue
			}
			if !p.HasLo && !p.HasHi {
				continue
			}
			kp.loF, kp.hiF = math.Inf(-1), math.Inf(1)
			if p.HasLo {
				kp.loF = p.LoF
			}
			if p.HasHi {
				kp.hiF = p.HiF
			}
		case table.String:
			if p.IsNumeric() {
				never = true
				continue
			}
			dict := s.dicts[ci]
			words := (dict.Len() + 63) >> 6
			off := len(arena)
			for i := 0; i < words; i++ {
				arena = append(arena, 0)
			}
			set := arena[off : off+words]
			any := false
			for _, v := range p.In {
				if c, ok := dict.Code(v); ok {
					set[c>>6] |= 1 << (c & 63)
					any = true
				}
			}
			if !any {
				never = true
				continue
			}
			kp.set = set
		default:
			never = true
			continue
		}
		sc.preds = append(sc.preds, kp)
	}
	// Keep the largest arena for reuse. If the arena regrew mid-bind,
	// earlier sets still reference the previous backing array — their
	// contents are already written and never mutated, so that is fine.
	sc.codeArena = arena[:0]
	return never
}

// selectBlock runs the bound kernels over block pid, returning the
// selection vector of surviving row indices (ascending). buf is the
// caller-owned selection buffer, grown in place as needed.
//
// A predicate the block's partition metadata covers — the same
// metadata pruning already trusts to skip blocks — holds for every row
// and is dropped without touching the column. When no predicate is
// left the block is covered: every row matches, no selection is built
// (sel is nil), and the caller answers from the block's summary
// (foldCovered).
func (s *Store) selectBlock(preds []kernPred, pid int, buf *[]int32) (sel []int32, covered bool) {
	blk := s.blocks[pid]
	stats := s.part.Meta()[pid].Stats
	first := true
	for i := range preds {
		p := &preds[i]
		if p.covers(stats) {
			continue
		}
		if first {
			if n := blk.NumRows(); cap(*buf) < n {
				*buf = make([]int32, n)
			}
			sel = *buf
		}
		switch p.typ {
		case table.Int64:
			col := blk.Int64Col(p.ci)
			if first {
				sel = selInt64Full(col, p.loI, p.hiI, sel)
			} else {
				sel = selInt64(col, p.loI, p.hiI, sel)
			}
		case table.Float64:
			col := blk.Float64Col(p.ci)
			if first {
				sel = selFloat64Full(col, p.loF, p.hiF, sel)
			} else {
				sel = selFloat64(col, p.loF, p.hiF, sel)
			}
		case table.String:
			codes := blk.StringCodes(p.ci)
			if first {
				sel = selCodesFull(codes, p.set, sel)
			} else {
				sel = selCodes(codes, p.set, sel)
			}
		}
		first = false
		if len(sel) == 0 {
			return sel, false
		}
	}
	return sel, first
}

// identity extends all, the selection 0, 1, 2, …, to at least n rows.
func identity(all []int32, n int) []int32 {
	for r := len(all); r < n; r++ {
		all = append(all, int32(r))
	}
	return all
}

// blockSum is one block's row-order sum over one numeric column: i for
// an Int64 column (zero once overflowed latches), f for a Float64 one.
type blockSum struct {
	i          int64
	f          float64
	overflowed bool
}

// scanBlock evaluates non-empty block pid against the bound predicates.
// It reports how many rows matched and, when any did, leaves each
// aggregate's partial over them in partials (one slot per acc). sel is
// the matched rows' selection, or nil when the block is covered and all
// of them matched.
func (s *Store) scanBlock(sc *scanScratch, preds []kernPred, pid int, accs, partials []aggAcc) (sel []int32, matched int, covered bool) {
	blk := s.blocks[pid]
	sel, covered = s.selectBlock(preds, pid, &sc.sel)
	if covered {
		for i := range accs {
			partials[i] = s.foldCovered(sc, pid, &accs[i])
		}
		return nil, blk.NumRows(), true
	}
	if len(sel) > 0 {
		for i := range accs {
			partials[i] = foldBlockAgg(blk, sel, &accs[i])
		}
	}
	return sel, len(sel), false
}

// appendRowIDs appends the original dataset indices of block pid's
// matched rows: the selected ones, or every row of a covered block.
func (s *Store) appendRowIDs(dst []int, pid int, sel []int32, covered bool) []int {
	ids := s.rowIDs[pid]
	if covered {
		return append(dst, ids...)
	}
	for _, r := range sel {
		dst = append(dst, ids[r])
	}
	return dst
}

// foldCovered is foldBlockAgg over every row of covered block pid. A
// count is the block's row count and a sum is the partial NewStore
// stored — the same fold, run once at build time — so neither reads the
// column; extremes fold over the identity selection.
func (s *Store) foldCovered(sc *scanScratch, pid int, spec *aggAcc) aggAcc {
	blk := s.blocks[pid]
	n := blk.NumRows()
	p := aggAcc{op: spec.op, col: spec.col, ci: spec.ci, typ: spec.typ, valid: true}
	switch spec.op {
	case AggCount:
		p.i = int64(n)
		return p
	case AggSum:
		sum := s.sums[pid*s.schema.NumCols()+spec.ci]
		p.i, p.f, p.overflowed = sum.i, sum.f, sum.overflowed
		return p
	}
	sc.all = identity(sc.all, n)
	return foldBlockAgg(blk, sc.all[:n], spec)
}

// b2i is the 0/1 a kernel advances its cursor by; the compiler lowers
// it to a flag-set instruction, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// The Full kernels seed the selection from a whole column (dst needs
// capacity for it); the non-Full variants compact an existing selection
// in place. They stay out of line: inlined into selectBlock's switch the
// six loops share one register allocation and spill inside the loop
// (string IN 2.2 ns/row inlined, 0.95 out of line), and a call per
// (block, predicate) costs nothing against a block of rows.

//go:noinline
func selInt64Full(col []int64, lo, hi int64, dst []int32) []int32 {
	if lo > hi {
		return dst[:0]
	}
	dst = dst[:len(col)]
	ulo, span := uint64(lo), uint64(hi)-uint64(lo)
	n := 0
	for r, v := range col {
		dst[n] = int32(r)
		n += b2i(uint64(v)-ulo <= span)
	}
	return dst[:n]
}

//go:noinline
func selInt64(col []int64, lo, hi int64, sel []int32) []int32 {
	if lo > hi {
		return sel[:0]
	}
	ulo, span := uint64(lo), uint64(hi)-uint64(lo)
	n := 0
	for _, r := range sel {
		sel[n] = r
		n += b2i(uint64(col[r])-ulo <= span)
	}
	return sel[:n]
}

//go:noinline
func selFloat64Full(col []float64, lo, hi float64, dst []int32) []int32 {
	dst = dst[:len(col)]
	n := 0
	for r, v := range col {
		dst[n] = int32(r)
		n += b2i(v >= lo) & b2i(v <= hi)
	}
	return dst[:n]
}

//go:noinline
func selFloat64(col []float64, lo, hi float64, sel []int32) []int32 {
	n := 0
	for _, r := range sel {
		v := col[r]
		sel[n] = r
		n += b2i(v >= lo) & b2i(v <= hi)
	}
	return sel[:n]
}

//go:noinline
func selCodesFull(codes []uint32, set []uint64, dst []int32) []int32 {
	dst = dst[:len(codes)]
	n := 0
	for r, c := range codes {
		dst[n] = int32(r)
		n += b2i(set[c>>6]&(1<<(c&63)) != 0)
	}
	return dst[:n]
}

//go:noinline
func selCodes(codes []uint32, set []uint64, sel []int32) []int32 {
	n := 0
	for _, r := range sel {
		c := codes[r]
		sel[n] = r
		n += b2i(set[c>>6]&(1<<(c&63)) != 0)
	}
	return sel[:n]
}

// foldBlockAgg folds one aggregate over the block's selected rows into
// a fresh per-block partial. Within-block fold order is selection
// order (= row order), so each partial is bit-identical to what the
// row-at-a-time engine accumulates over the same block; partials are
// then merged across blocks in skip-list order by mergeAgg, which is
// what makes sequential, parallel, and interpreted scans agree
// bitwise.
func foldBlockAgg(blk *table.Dataset, sel []int32, spec *aggAcc) aggAcc {
	p := aggAcc{op: spec.op, col: spec.col, ci: spec.ci, typ: spec.typ}
	switch p.op {
	case AggCount:
		p.valid = true
		p.i = int64(len(sel))
	case AggSum:
		p.valid = true
		switch p.typ {
		case table.Int64:
			col := blk.Int64Col(p.ci)
			var sum int64
			for _, r := range sel {
				var ok bool
				if sum, ok = addInt64(sum, col[r]); !ok {
					p.overflowed = true
					p.i = 0
					return p
				}
			}
			p.i = sum
		case table.Float64:
			col := blk.Float64Col(p.ci)
			var sum float64
			for _, r := range sel {
				sum += col[r]
			}
			p.f = sum
		}
	case AggMin, AggMax:
		isMin := p.op == AggMin
		switch p.typ {
		case table.Int64:
			if len(sel) == 0 {
				break
			}
			col := blk.Int64Col(p.ci)
			m := col[sel[0]]
			for _, r := range sel[1:] {
				v := col[r]
				if (isMin && v < m) || (!isMin && v > m) {
					m = v
				}
			}
			p.i, p.valid = m, true
		case table.Float64:
			// NaN cells do not participate, as in aggAcc.add: an
			// all-NaN matched set leaves the partial invalid.
			col := blk.Float64Col(p.ci)
			var m float64
			seen := false
			for _, r := range sel {
				v := col[r]
				if math.IsNaN(v) {
					continue
				}
				if !seen || (isMin && v < m) || (!isMin && v > m) {
					m, seen = v, true
				}
			}
			if seen {
				p.f, p.valid = m, true
			}
		case table.String:
			// Dictionary codes are first-appearance ordered, not
			// sort-ordered, so extremes compare the strings themselves.
			if len(sel) == 0 {
				break
			}
			codes, dict := blk.StringCodes(p.ci), blk.Dict(p.ci)
			mc := codes[sel[0]]
			m := dict.Value(mc)
			for _, r := range sel[1:] {
				c := codes[r]
				if c == mc {
					continue
				}
				if v := dict.Value(c); (isMin && v < m) || (!isMin && v > m) {
					m, mc = v, c
				}
			}
			p.s, p.valid = m, true
		}
	}
	return p
}

// mergeAgg folds a per-block partial into the scan's accumulator.
// Partials of blocks with zero matched rows are never merged (they
// would be no-ops for every op), so the merge sequence is identical
// for a pruned scan and a full scan over the same matched set.
func mergeAgg(dst, src *aggAcc) {
	switch dst.op {
	case AggCount:
		dst.i += src.i
	case AggSum:
		switch dst.typ {
		case table.Int64:
			if src.overflowed || dst.overflowed {
				dst.overflowed = true
				dst.i = 0
				return
			}
			sum, ok := addInt64(dst.i, src.i)
			if !ok {
				dst.overflowed = true
				dst.i = 0
				return
			}
			dst.i = sum
		case table.Float64:
			dst.f += src.f
		}
	case AggMin, AggMax:
		if !src.valid {
			return
		}
		if !dst.valid {
			dst.i, dst.f, dst.s = src.i, src.f, src.s
			dst.valid = true
			return
		}
		isMin := dst.op == AggMin
		switch dst.typ {
		case table.Int64:
			if (isMin && src.i < dst.i) || (!isMin && src.i > dst.i) {
				dst.i = src.i
			}
		case table.Float64:
			if (isMin && src.f < dst.f) || (!isMin && src.f > dst.f) {
				dst.f = src.f
			}
		case table.String:
			if (isMin && src.s < dst.s) || (!isMin && src.s > dst.s) {
				dst.s = src.s
			}
		}
	}
}
