package layout

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"

	"oreo/internal/query"
	"oreo/internal/table"
)

// QdTreeGenerator builds layouts with the greedy Qd-tree construction
// of Yang et al. (SIGMOD 2020), as the paper uses it: a binary decision
// tree whose inner nodes hold predicates harvested from the query
// workload; rows are routed through the tree and each leaf becomes a
// partition. No "advanced cuts" (the paper's implementation choice).
//
// Construction runs on a small row sample (the paper uses 0.1–1% of the
// data and cites evidence that sample-built trees are faithful); the
// resulting tree then routes the full dataset to materialize the
// partitioning.
//
// The whole of it is columnar. Everything that does not depend on the
// tree node is computed once per Generate: how many window queries
// provably skip each cut's left and right side (two binary searches per
// numeric cut into its column's sorted per-query bounds), and each cut
// evaluated over the sample into a bitset. A column's cuts differ only
// by threshold, so its distinct thresholds are sorted once and every
// sample value is placed, by one binary search, in the bucket between
// the two thresholds that enclose it; a cut's mask is then the OR of the
// buckets below its threshold, and one prefix-OR sweep yields every mask
// of the column. A string column's buckets are the dictionary codes its
// cuts' IN sets name, and a cut's mask is the OR of its set's buckets.
// A leaf is a bitset over sample positions plus, per cut, how many of
// its rows the cut sends left; scoring every cut at a leaf reads those
// counts. A split is an AND and an AND-NOT, and only the smaller child's
// counts are popcounted: the larger child's are the parent's minus the
// smaller's. The finished tree routes the dataset one node at a time,
// each node a single branch-free sweep of one typed column over the
// rows that reached it.
//
// A candidate's name carries the harvested cut count, the leaf count,
// the window's query-ID range and a 64-bit FNV-1a hash of the tree (each
// inner node's cut, then each leaf's partition ID, in preorder), so two
// candidates share a name only when they share a tree.
type QdTreeGenerator struct {
	// SampleSize is the number of rows construction works on (stride
	// sampled from the dataset for determinism). Zero means 2048.
	SampleSize int
	// MinLeafRows is the smallest sample-row count a leaf may have;
	// splits producing smaller children are rejected. Zero means 8.
	MinLeafRows int
}

// NewQdTreeGenerator returns a Qd-tree generator with default sampling.
func NewQdTreeGenerator() *QdTreeGenerator { return &QdTreeGenerator{} }

// Name implements Generator.
func (g *QdTreeGenerator) Name() string { return "qdtree" }

// cutKind discriminates the predicate forms an inner node can hold.
type cutKind uint8

const (
	cutIntLT   cutKind = iota // left: value < threshold (int64)
	cutFloatLT                // left: value < threshold (float64)
	cutStrIn                  // left: value IN set
)

// cut is a candidate split harvested from workload predicates.
type cut struct {
	col  int
	kind cutKind
	i    int64
	f    float64
	set  []string // sorted IN values (cutStrIn)

	// avoidL / avoidR count the window queries that can be proven, from
	// their predicates alone, to never need the left / right child. The
	// skipping gain of the cut at a node holding nl left and nr right
	// sample rows is nl*avoidL + nr*avoidR.
	avoidL, avoidR int
}

// cutKey identifies a cut for deduplication. hi separates a float cut
// harvested from an upper bound from one harvested from a lower bound
// at the same threshold, which have always been two cuts; set is the
// sorted IN list joined by "|".
type cutKey struct {
	col  int
	kind cutKind
	hi   bool
	bits uint64
	set  string
}

// avoids reports, from predicate p on a string cut's column alone,
// whether a query carrying p can be proven to never need the left
// (respectively right) child subtree: no IN value in the cut's set, or
// none outside it. Numeric cuts take their tallies from queryBounds.
// Conservative: (false, false) for a predicate with no IN set.
func (c *cut) avoids(p *query.Predicate) (left, right bool) {
	if len(p.In) == 0 {
		return false, false
	}
	anyIn, anyOut := false, false
	for _, v := range p.In {
		if c.has(v) {
			anyIn = true
		} else {
			anyOut = true
		}
	}
	return !anyIn, !anyOut
}

// has reports whether v is in a string cut's IN set.
func (c *cut) has(v string) bool {
	i := sort.SearchStrings(c.set, v)
	return i < len(c.set) && c.set[i] == v
}

// harvestCuts extracts deduplicated candidate cuts from the workload,
// in first-appearance order, and tallies each cut's avoidL / avoidR
// over the same workload. A query counts once per cut however many of
// its predicates read the cut's column, so the tally works on each
// query's tightest bounds per column: a query avoids the left side of a
// numeric cut at t when its largest lower bound is at least t, and the
// right side when its smallest upper bound is below t. Each column's
// bounds are sorted once, and a numeric cut's two tallies are a binary
// search each. A string cut tests each query's predicates on its column.
func harvestCuts(schema *table.Schema, qs []query.Query) []cut {
	seen := make(map[cutKey]struct{})
	var cuts []cut
	add := func(k cutKey, c cut) {
		if _, dup := seen[k]; !dup {
			seen[k] = struct{}{}
			cuts = append(cuts, c)
		}
	}
	floatKey := func(ci int, f float64, hi bool) cutKey {
		if math.IsNaN(f) {
			f = math.NaN() // every NaN threshold is the same cut
		}
		return cutKey{col: ci, kind: cutFloatLT, hi: hi, bits: math.Float64bits(f)}
	}
	for qi := range qs {
		preds := qs[qi].Preds
		for pi := range preds {
			p := &preds[pi]
			ci, ok := schema.Index(p.Col)
			if !ok {
				continue
			}
			numeric := len(p.In) == 0
			switch schema.Col(ci).Type {
			case table.Int64:
				if !numeric {
					continue
				}
				if p.HasLo {
					add(cutKey{col: ci, kind: cutIntLT, bits: uint64(p.LoI)},
						cut{col: ci, kind: cutIntLT, i: p.LoI})
				}
				if p.HasHi {
					add(cutKey{col: ci, kind: cutIntLT, bits: uint64(p.HiI + 1)},
						cut{col: ci, kind: cutIntLT, i: p.HiI + 1})
				}
			case table.Float64:
				if !numeric {
					continue
				}
				if p.HasLo {
					add(floatKey(ci, p.LoF, false), cut{col: ci, kind: cutFloatLT, f: p.LoF})
				}
				if p.HasHi {
					add(floatKey(ci, p.HiF, true), cut{col: ci, kind: cutFloatLT, f: p.HiF})
				}
			case table.String:
				if numeric {
					continue
				}
				vals := p.In // read-only here; copied only to sort
				if !sort.StringsAreSorted(vals) {
					vals = append([]string(nil), vals...)
					sort.Strings(vals)
				}
				add(cutKey{col: ci, kind: cutStrIn, set: strings.Join(vals, "|")},
					cut{col: ci, kind: cutStrIn, set: vals})
			}
		}
	}

	byCol := make([][]int32, schema.NumCols())
	for x := range cuts {
		byCol[cuts[x].col] = append(byCol[cuts[x].col], int32(x))
	}
	ints := make([]queryBounds[int64], schema.NumCols())
	floats := make([]queryBounds[float64], schema.NumCols())
	var cols []int // the schema column of each of a query's predicates; -1 when no cut reads it
	for qi := range qs {
		preds := qs[qi].Preds
		cols = cols[:0]
		for pi := range preds {
			ci, ok := schema.Index(preds[pi].Col)
			if !ok || len(byCol[ci]) == 0 {
				ci = -1
			}
			cols = append(cols, ci)
		}
		for pi, ci := range cols {
			if ci < 0 || slices.Contains(cols[:pi], ci) {
				continue // the column was taken with an earlier predicate
			}
			switch cuts[byCol[ci][0]].kind {
			case cutIntLT:
				ints[ci].add(preds[pi:], cols[pi:], ci, func(p *query.Predicate) (int64, int64) { return p.LoI, p.HiI })
			case cutFloatLT:
				floats[ci].add(preds[pi:], cols[pi:], ci, func(p *query.Predicate) (float64, float64) { return p.LoF, p.HiF })
			case cutStrIn:
				for _, x := range byCol[ci] {
					c := &cuts[x]
					left, right := false, false
					for pj := pi; pj < len(preds); pj++ {
						if cols[pj] == ci {
							l, r := c.avoids(&preds[pj])
							left, right = left || l, right || r
						}
					}
					c.avoidL += int(b2u(left))
					c.avoidR += int(b2u(right))
				}
			}
		}
	}
	for ci := range byCol {
		slices.Sort(ints[ci].lo)
		slices.Sort(ints[ci].hi)
		slices.Sort(floats[ci].lo)
		slices.Sort(floats[ci].hi)
	}
	for x := range cuts {
		c := &cuts[x]
		switch c.kind {
		case cutIntLT:
			c.avoidL, c.avoidR = ints[c.col].avoids(c.i)
		case cutFloatLT:
			c.avoidL, c.avoidR = floats[c.col].avoids(c.f)
		}
	}
	return cuts
}

// queryBounds holds one numeric column's tightest per-query bounds: for
// each window query with a lower (upper) bound on the column, the
// largest lower (smallest upper) one. A NaN bound proves nothing, since
// no comparison with it holds, and is left out.
type queryBounds[T int64 | float64] struct{ lo, hi []T }

// add folds one query's numeric predicates on column ci — those of preds
// whose entry in cols is ci — into one lower and one upper bound.
func (b *queryBounds[T]) add(preds []query.Predicate, cols []int, ci int, bounds func(*query.Predicate) (lo, hi T)) {
	var lo, hi T
	hasLo, hasHi := false, false
	for pj := range preds {
		p := &preds[pj]
		if cols[pj] != ci || len(p.In) > 0 {
			continue
		}
		l, h := bounds(p)
		if p.HasLo && l == l && (!hasLo || l > lo) { // l == l: not NaN
			lo, hasLo = l, true
		}
		if p.HasHi && h == h && (!hasHi || h < hi) {
			hi, hasHi = h, true
		}
	}
	if hasLo {
		b.lo = append(b.lo, lo)
	}
	if hasHi {
		b.hi = append(b.hi, hi)
	}
}

// avoids counts, over sorted bounds, the queries that provably skip the
// left side of a cut at t (lower bound >= t) and its right side (upper
// bound < t). A NaN t satisfies neither comparison, so both are 0.
func (b *queryBounds[T]) avoids(t T) (left, right int) {
	left = len(b.lo) - sort.Search(len(b.lo), func(i int) bool { return b.lo[i] >= t })
	right = sort.Search(len(b.hi), func(i int) bool { return !(b.hi[i] < t) })
	return left, right
}

// codeSet translates a string cut's IN set into a bitmap over the
// dictionary's code space, written into buf (grown as needed). Values
// the dictionary lacks occur in no row and set no bit.
func (c *cut) codeSet(dict *table.StringDict, buf []uint64) []uint64 {
	buf = zeroed(buf, (dict.Len()+63)/64)
	for _, v := range c.set {
		if code, ok := dict.Code(v); ok {
			buf[code>>6] |= 1 << (code & 63)
		}
	}
	return buf
}

// b2u is the 0/1 a kernel shifts into a mask or advances a cursor by;
// the compiler lowers it to a flag-set instruction, not a branch.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// partition stably reorders rows so that those routing left come first,
// and returns how many do. tmp must be at least as long as rows. Every
// row is stored to both sides and the side that keeps it advances its
// cursor by a 0/1 flag, so the loops carry no data-dependent branch: a
// balanced cut over unsorted data would mispredict one in two.
func (c *cut) partition(d *table.Dataset, rows, tmp []int32, sc *qdScratch) int {
	nl, nr := 0, 0
	switch c.kind {
	case cutIntLT:
		col, t := d.Int64Col(c.col), c.i
		for _, r := range rows {
			rows[nl], tmp[nr] = r, r
			left := int(b2u(col[r] < t))
			nl += left
			nr += 1 - left
		}
	case cutFloatLT:
		col, t := d.Float64Col(c.col), c.f
		for _, r := range rows {
			rows[nl], tmp[nr] = r, r
			left := int(b2u(col[r] < t))
			nl += left
			nr += 1 - left
		}
	case cutStrIn:
		sc.codeSet = c.codeSet(d.Dict(c.col), sc.codeSet)
		codes, set := d.StringCodes(c.col), sc.codeSet
		for _, r := range rows {
			rows[nl], tmp[nr] = r, r
			code := codes[r]
			left := int(set[code>>6] >> (code & 63) & 1)
			nl += left
			nr += 1 - left
		}
	}
	copy(rows[nl:], tmp[:nr])
	return nl
}

// appendKey appends the bytes that identify the cut's routing predicate
// to the tree hash input: its kind and column, then the threshold's bits
// (every NaN as one NaN) or the IN set's distinct values, each length
// prefixed.
func (c *cut) appendKey(b []byte) []byte {
	b = append(b, byte(c.kind))
	b = binary.LittleEndian.AppendUint32(b, uint32(c.col))
	switch c.kind {
	case cutIntLT:
		b = binary.LittleEndian.AppendUint64(b, uint64(c.i))
	case cutFloatLT:
		f := c.f
		if math.IsNaN(f) {
			f = math.NaN()
		}
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	case cutStrIn:
		for i, v := range c.set {
			if i > 0 && v == c.set[i-1] {
				continue
			}
			b = binary.LittleEndian.AppendUint32(b, uint32(len(v)))
			b = append(b, v...)
		}
	}
	return b
}

// qdNode is a tree node. During construction a leaf owns a slot — its
// sample bitset and its per-cut left counts — and carries the best split
// found for it; an inner node keeps only its cut and children.
type qdNode struct {
	cut         int32 // index into the cuts; -1 for a leaf
	left, right int32 // child node indices
	leafID      int32 // partition ID, assigned when construction ends

	slot     int32 // the leaf's bitset and count row
	n        int   // sample rows in this leaf
	best     int32 // best cut for splitting this leaf; -1 for none
	bestGain float64
}

// qdScratch holds one Generate call's working memory. It is recycled
// through qdPool, so steady-state candidate generation allocates only
// what it returns.
type qdScratch struct {
	sample  []int32   // stride-sampled dataset rows
	byCol   [][]int32 // per schema column, the cuts that read it
	maskOf  []int32   // per cut, the offset of its sample mask in masks
	masks   []uint64  // per column a cut reads, its bitsets (see bucketMasks)
	ints    []int64   // a numeric column's sorted distinct thresholds
	floats  []float64
	codes   []uint32 // a string column's sorted distinct IN codes
	leaves  []uint64 // one bitset per leaf slot
	counts  []int32  // per leaf slot, per cut: the leaf's rows the cut sends left
	nonzero []int32  // the non-zero words of the leaf being counted
	nodes   []qdNode
	order   []int32  // leaf order: position = partition ID
	codeSet []uint64 // a string cut's IN set over dictionary codes
	rows    []int32  // dataset rows grouped by tree node while routing
	tmp     []int32
	key     []byte // the finished tree in preorder, hashed into the name
}

var qdPool = sync.Pool{New: func() any { return new(qdScratch) }}

// zeroed returns buf resized to n zero words, reallocating only to grow.
func zeroed(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// sized returns buf resized to n entries (contents unspecified).
func sized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// bucketMasks evaluates every cut over the sample, a column at a time.
// A numeric column's distinct non-NaN thresholds t_0 < … < t_{m-1} are
// sorted once, and each sample value v lands in bucket b(v), the number
// of thresholds at or below it (m for NaN, which is below nothing). Entry
// p of the column's m+1 bitsets holds the positions with b(v) < p, built
// as one prefix-OR over the buckets, and a cut at t_i reads entry i+1:
// v < t_i exactly when b(v) <= i. A NaN cut sends nothing left and reads
// the empty entry 0; -0 and +0 are one threshold, so their cuts share an
// entry. A string column's buckets are the sorted distinct dictionary
// codes its cuts' IN sets name (values no row holds have no code), and
// each of its cuts gets its own entry, the OR of its set's buckets.
func (sc *qdScratch) bucketMasks(d *table.Dataset, cuts []cut, words int) {
	sc.byCol = sized(sc.byCol, d.Schema().NumCols())
	for c := range sc.byCol {
		sc.byCol[c] = sc.byCol[c][:0]
	}
	for x := range cuts {
		c := cuts[x].col
		sc.byCol[c] = append(sc.byCol[c], int32(x))
	}
	sc.maskOf = sized(sc.maskOf, len(cuts))
	sc.masks = sc.masks[:0]
	for c, xs := range sc.byCol {
		if len(xs) == 0 {
			continue
		}
		switch cuts[xs[0]].kind {
		case cutIntLT:
			sc.ints = prefixMasks(sc, xs, d.Int64Col(c), sc.ints[:0], words, func(x int32) int64 { return cuts[x].i })
		case cutFloatLT:
			sc.floats = prefixMasks(sc, xs, d.Float64Col(c), sc.floats[:0], words, func(x int32) float64 { return cuts[x].f })
		case cutStrIn:
			sc.setMasks(d, c, xs, cuts, words)
		}
	}
}

// prefixMasks builds one numeric column's entries (see bucketMasks) from
// its values col and its cuts xs, whose thresholds it sorts into ts,
// NaN left out. It returns ts for reuse as scratch.
func prefixMasks[T int64 | float64](sc *qdScratch, xs []int32, col, ts []T, words int, threshold func(int32) T) []T {
	for _, x := range xs {
		if t := threshold(x); t == t { // not NaN
			ts = append(ts, t)
		}
	}
	slices.Sort(ts)
	ts = slices.Compact(ts)
	m := len(ts)
	base := sc.grow(m+1, words)
	for j, r := range sc.sample {
		if b := rank(ts, col[r]); b < m {
			sc.masks[base+(b+1)*words+j>>6] |= 1 << (uint(j) & 63)
		}
	}
	for at := base + 2*words; at < base+(m+1)*words; at++ {
		sc.masks[at] |= sc.masks[at-words]
	}
	for _, x := range xs {
		p := 0
		if t := threshold(x); t == t { // a NaN cut reads the empty entry
			p = rank(ts, t)
		}
		sc.maskOf[x] = int32(base + p*words)
	}
	return ts
}

// setMasks builds string column c's entries (see bucketMasks) for its
// cuts xs.
func (sc *qdScratch) setMasks(d *table.Dataset, c int, xs []int32, cuts []cut, words int) {
	dict := d.Dict(c)
	sc.codes = sc.codes[:0]
	for _, x := range xs {
		for _, v := range cuts[x].set {
			if code, ok := dict.Code(v); ok {
				sc.codes = append(sc.codes, code)
			}
		}
	}
	slices.Sort(sc.codes)
	sc.codes = slices.Compact(sc.codes)
	buckets := sc.grow(len(sc.codes), words)
	codes := d.StringCodes(c)
	for j, r := range sc.sample {
		if k, ok := slices.BinarySearch(sc.codes, codes[r]); ok {
			sc.masks[buckets+k*words+j>>6] |= 1 << (uint(j) & 63)
		}
	}
	for _, x := range xs {
		at := sc.grow(1, words)
		sc.maskOf[x] = int32(at)
		for _, v := range cuts[x].set {
			if code, ok := dict.Code(v); ok {
				k, _ := slices.BinarySearch(sc.codes, code)
				for w, m := range sc.masks[buckets+k*words : buckets+(k+1)*words] {
					sc.masks[at+w] |= m
				}
			}
		}
	}
}

// rank returns the number of ts (sorted ascending) at or below v: the
// index of the first t with v < t, or len(ts) when there is none, as for
// a NaN v.
func rank[T int64 | float64](ts []T, v T) int {
	lo, hi := 0, len(ts)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if v < ts[h] {
			hi = h
		} else {
			lo = h + 1
		}
	}
	return lo
}

// grow appends n zeroed bitsets of words each to masks and returns the
// offset of the first.
func (sc *qdScratch) grow(n, words int) int {
	at := len(sc.masks)
	sc.masks = slices.Grow(sc.masks, n*words)[:at+n*words]
	clear(sc.masks[at:])
	return at
}

// Generate implements Generator.
func (g *QdTreeGenerator) Generate(d *table.Dataset, qs []query.Query, k int) *Layout {
	sampleSize := g.SampleSize
	if sampleSize <= 0 {
		sampleSize = 2048
	}
	minLeaf := g.MinLeafRows
	if minLeaf <= 0 {
		minLeaf = 8
	}
	if k < 1 {
		k = 1
	}
	n := d.NumRows()
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("layout: qd-tree routing indexes rows as int32; dataset has %d", n))
	}

	sc := qdPool.Get().(*qdScratch)
	defer qdPool.Put(sc)

	cuts := harvestCuts(d.Schema(), qs)
	nc := len(cuts)

	// Evaluate every cut once over the stride sample (deterministic).
	sc.sample = strideSample(sc.sample, n, sampleSize)
	words := (len(sc.sample) + 63) / 64
	sc.bucketMasks(d, cuts, words)
	mask := func(x int) []uint64 {
		at := int(sc.maskOf[x])
		return sc.masks[at : at+words]
	}

	// The root holds every sample position. Every other leaf holds at
	// least minLeaf of them, which bounds the tree whatever k says.
	maxLeaves := len(sc.sample) / minLeaf
	if maxLeaves > k {
		maxLeaves = k
	}
	if maxLeaves < 1 {
		maxLeaves = 1
	}
	maxNodes := 2*maxLeaves - 1
	sc.leaves = sized(sc.leaves, maxLeaves*words)
	sc.counts = sized(sc.counts, maxLeaves*nc)
	bitset := func(slot int32) []uint64 { return sc.leaves[int(slot)*words : int(slot+1)*words] }
	counts := func(slot int32) []int32 { return sc.counts[int(slot)*nc : int(slot+1)*nc] }

	// eval finds the leaf's best split: the cut with the largest
	// skipping gain among those leaving both children at least minLeaf
	// sample rows; the first such cut wins ties.
	eval := func(nd *qdNode) {
		nd.best, nd.bestGain = -1, 0
		for x, nl := range counts(nd.slot) {
			nl := int(nl)
			nr := nd.n - nl
			if nl < minLeaf || nr < minLeaf {
				continue
			}
			// An integer below 2^53, so the float is exact and equal to
			// adding nl or nr once per avoiding query.
			gain := float64(nl*cuts[x].avoidL + nr*cuts[x].avoidR)
			if gain > nd.bestGain {
				nd.best, nd.bestGain = int32(x), gain
			}
		}
	}

	if cap(sc.nodes) < maxNodes {
		sc.nodes = make([]qdNode, 0, maxNodes)
	}
	nodes := append(sc.nodes[:0], qdNode{cut: -1, n: len(sc.sample)})
	root := bitset(0)
	clear(root)
	for j := range sc.sample {
		root[j>>6] |= 1 << (uint(j) & 63)
	}
	rootCounts := counts(0)
	for x := range rootCounts {
		nl := 0
		for _, m := range mask(x) {
			nl += bits.OnesCount64(m)
		}
		rootCounts[x] = int32(nl)
	}
	eval(&nodes[0])
	order := append(sc.order[:0], 0)

	// Global greedy: repeatedly split the leaf whose best cut yields the
	// largest skipping gain, until k leaves or no positive-gain split.
	for len(order) < k {
		pick := -1
		for i, ni := range order {
			nd := &nodes[ni]
			if nd.best >= 0 && (pick < 0 || nd.bestGain > nodes[order[pick]].bestGain) {
				pick = i
			}
		}
		if pick < 0 {
			break // no leaf has a positive-gain split left
		}
		pi := order[pick]
		parent := &nodes[pi]
		best := int(parent.best)
		nl := int(counts(parent.slot)[best])
		nr := parent.n - nl

		// The smaller child takes a fresh slot and is counted against
		// every cut; the larger keeps the parent's slot, and its counts
		// are the parent's minus the smaller's. Rows the cut sends left
		// are the mask's bits, so flip selects the smaller side.
		flip, small := uint64(0), int32(len(order))
		if nl > nr {
			flip = ^uint64(0)
		}
		big := parent.slot
		bs, bb := bitset(small), bitset(big)
		sc.nonzero = sc.nonzero[:0]
		for w, m := range mask(best) {
			p := bb[w]
			bs[w], bb[w] = p&(m^flip), p&^(m^flip)
			if bs[w] != 0 {
				sc.nonzero = append(sc.nonzero, int32(w))
			}
		}
		cs, cb := counts(small), counts(big)
		for x := range cs {
			m := mask(x)
			c := 0
			for _, w := range sc.nonzero {
				c += bits.OnesCount64(bs[w] & m[w])
			}
			cs[x] = int32(c)
			cb[x] -= int32(c)
		}

		li, ri := int32(len(nodes)), int32(len(nodes)+1)
		left, right := qdNode{cut: -1, slot: small, n: nl}, qdNode{cut: -1, slot: big, n: nr}
		if flip != 0 {
			left.slot, right.slot = big, small
		}
		parent.cut, parent.left, parent.right = parent.best, li, ri
		nodes = append(nodes, left, right) // within maxNodes: nodes never regrows
		// The left child takes the parent's place, the right one the end.
		order[pick] = li
		order = append(order, ri)
		eval(&nodes[li])
		eval(&nodes[ri])
	}
	for i, ni := range order {
		nodes[ni].leafID = int32(i)
	}
	numLeaves := len(order)
	sc.nodes, sc.order = nodes[:0], order[:0]

	// Route the full dataset through the tree, one node at a time: a
	// node's rows sit contiguously in sc.rows, in ascending order, and a
	// split reorders them into its left child's rows then its right's.
	// The same preorder walk writes the tree's key.
	assign := make([]int, n)
	sc.rows, sc.tmp = sized(sc.rows, n), sized(sc.tmp, n)
	for r := range sc.rows {
		sc.rows[r] = int32(r)
	}
	sc.key = sc.key[:0]
	var route func(ni int32, rows []int32)
	route = func(ni int32, rows []int32) {
		nd := &nodes[ni]
		if nd.cut < 0 {
			sc.key = append(sc.key, 0xff)
			sc.key = binary.LittleEndian.AppendUint32(sc.key, uint32(nd.leafID))
			for _, r := range rows {
				assign[r] = int(nd.leafID)
			}
			return
		}
		c := &cuts[nd.cut]
		sc.key = c.appendKey(sc.key)
		nl := c.partition(d, rows, sc.tmp, sc)
		route(nd.left, rows[:nl])
		route(nd.right, rows[nl:])
	}
	route(0, sc.rows)

	part := table.MustBuildPartitioning(d, assign, numLeaves)
	name := fmt.Sprintf("qdtree(cuts=%d,leaves=%d,w=%s,tree=%016x)", nc, numLeaves, workloadTag(qs), fnv1a(sc.key))
	return New(name, d.Schema(), part)
}

// fnv1a is the 64-bit FNV-1a hash of b.
func fnv1a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// strideSample fills buf with up to size row indices evenly spread over
// n rows.
func strideSample(buf []int32, n, size int) []int32 {
	if size >= n {
		buf = sized(buf, n)
		for i := range buf {
			buf[i] = int32(i)
		}
		return buf
	}
	buf = sized(buf, size)
	for i := range buf {
		buf[i] = int32(i * n / size)
	}
	return buf
}

// workloadTag summarizes a workload for layout names: the ID range of
// the queries it was built from, so two candidates from different
// windows are distinguishable.
func workloadTag(qs []query.Query) string {
	if len(qs) == 0 {
		return "empty"
	}
	lo, hi := qs[0].ID, qs[0].ID
	for i := range qs {
		if id := qs[i].ID; id < lo {
			lo = id
		} else if id > hi {
			hi = id
		}
	}
	return fmt.Sprintf("q%d..%d", lo, hi)
}
