package layout

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
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
// provably skip each cut's left and right side, the sample values of
// every column a cut reads (gathered once into one contiguous run per
// column), and each cut evaluated over that run into a bitset. A leaf is
// a bitset over sample positions plus, per cut, how many of its rows the
// cut sends left; scoring every cut at a leaf reads those counts. A
// split is an AND and an AND-NOT, and only the smaller child's counts
// are popcounted: the larger child's are the parent's minus the
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
	// lastL / lastR hold 1 + the index of the last query counted into
	// avoidL / avoidR, so a query with several predicates on the cut's
	// column counts once.
	lastL, lastR int
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

// avoids reports, from predicate p on the cut's column alone, whether a
// query carrying p can be proven to never need the left (respectively
// right) child subtree. Conservative: (false, false) when nothing can
// be proven.
func (c *cut) avoids(p *query.Predicate) (left, right bool) {
	numeric := len(p.In) == 0
	switch c.kind {
	case cutIntLT:
		if numeric {
			left = p.HasLo && p.LoI >= c.i
			right = p.HasHi && p.HiI < c.i
		}
	case cutFloatLT:
		if numeric {
			left = p.HasLo && p.LoF >= c.f
			right = p.HasHi && p.HiF < c.f
		}
	case cutStrIn:
		if !numeric {
			anyIn, anyOut := false, false
			for _, v := range p.In {
				if c.has(v) {
					anyIn = true
				} else {
					anyOut = true
				}
			}
			left, right = !anyIn, !anyOut
		}
	}
	return left, right
}

// has reports whether v is in a string cut's IN set.
func (c *cut) has(v string) bool {
	i := sort.SearchStrings(c.set, v)
	return i < len(c.set) && c.set[i] == v
}

// harvestCuts extracts deduplicated candidate cuts from the workload,
// in first-appearance order, and tallies each cut's avoidL / avoidR
// over the same workload.
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

	// Tally the avoid counts: each predicate meets only the cuts on its
	// own column.
	byCol := make([][]int32, schema.NumCols())
	for x := range cuts {
		byCol[cuts[x].col] = append(byCol[cuts[x].col], int32(x))
	}
	for qi := range qs {
		preds := qs[qi].Preds
		for pi := range preds {
			p := &preds[pi]
			ci, ok := schema.Index(p.Col)
			if !ok {
				continue
			}
			for _, x := range byCol[ci] {
				c := &cuts[x]
				left, right := c.avoids(p)
				if left && c.lastL != qi+1 {
					c.lastL = qi + 1
					c.avoidL++
				}
				if right && c.lastR != qi+1 {
					c.lastR = qi + 1
					c.avoidR++
				}
			}
		}
	}
	return cuts
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

// lessMask sets bit j of mask when vals[j] < t, a word at a time.
func lessMask[T int64 | float64](vals []T, t T, mask []uint64) {
	for w := range mask {
		var m uint64
		for j, v := range vals[w*64 : min(w*64+64, len(vals))] {
			m |= b2u(v < t) << uint(j)
		}
		mask[w] = m
	}
}

// inMask sets bit j of mask when codes[j] is in set, a word at a time.
func inMask(codes []uint32, set, mask []uint64) {
	for w := range mask {
		var m uint64
		for j, code := range codes[w*64 : min(w*64+64, len(codes))] {
			m |= (set[code>>6] >> (code & 63) & 1) << uint(j)
		}
		mask[w] = m
	}
}

// sampleMask sets bit j of mask when sample position j routes left,
// reading the cut column's gathered sample values.
func (c *cut) sampleMask(d *table.Dataset, mask []uint64, sc *qdScratch) {
	ns, off := len(sc.sample), int(sc.gathered[c.col])
	switch c.kind {
	case cutIntLT:
		lessMask(sc.ints[off:off+ns], c.i, mask)
	case cutFloatLT:
		lessMask(sc.floats[off:off+ns], c.f, mask)
	case cutStrIn:
		sc.codeSet = c.codeSet(d.Dict(c.col), sc.codeSet)
		inMask(sc.codes[off:off+ns], sc.codeSet, mask)
	}
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
	sample []int32 // stride-sampled dataset rows
	// gathered maps a schema column to the offset of its sample values
	// in ints, floats or codes (by the column's type), or -1 when no
	// cut reads the column.
	gathered []int32
	ints     []int64
	floats   []float64
	codes    []uint32
	masks    []uint64 // one left-mask per cut over sample positions
	leaves   []uint64 // one bitset per leaf slot
	counts   []int32  // per leaf slot, per cut: the leaf's rows the cut sends left
	nonzero  []int32  // the non-zero words of the leaf being counted
	nodes    []qdNode
	order    []int32  // leaf order: position = partition ID
	codeSet  []uint64 // a string cut's IN set over dictionary codes
	rows     []int32  // dataset rows grouped by tree node while routing
	tmp      []int32
	key      []byte // the finished tree in preorder, hashed into the name
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

// gather copies the sample values of every column a cut reads into one
// contiguous run per column, so the cuts' masks read sequential memory
// instead of each striding across the whole column.
func (sc *qdScratch) gather(d *table.Dataset, cuts []cut) {
	sc.gathered = sized(sc.gathered, d.Schema().NumCols())
	for c := range sc.gathered {
		sc.gathered[c] = -1
	}
	sc.ints, sc.floats, sc.codes = sc.ints[:0], sc.floats[:0], sc.codes[:0]
	for x := range cuts {
		c := cuts[x].col
		if sc.gathered[c] >= 0 {
			continue
		}
		switch cuts[x].kind {
		case cutIntLT:
			sc.gathered[c] = int32(len(sc.ints))
			sc.ints = appendAt(sc.ints, d.Int64Col(c), sc.sample)
		case cutFloatLT:
			sc.gathered[c] = int32(len(sc.floats))
			sc.floats = appendAt(sc.floats, d.Float64Col(c), sc.sample)
		case cutStrIn:
			sc.gathered[c] = int32(len(sc.codes))
			sc.codes = appendAt(sc.codes, d.StringCodes(c), sc.sample)
		}
	}
}

// appendAt appends col[r] for each of rows to dst.
func appendAt[T any](dst, col []T, rows []int32) []T {
	for _, r := range rows {
		dst = append(dst, col[r])
	}
	return dst
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
	sc.gather(d, cuts)
	words := (len(sc.sample) + 63) / 64
	sc.masks = sized(sc.masks, nc*words)
	for x := range cuts {
		cuts[x].sampleMask(d, sc.masks[x*words:(x+1)*words], sc)
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
		for _, m := range sc.masks[x*words : (x+1)*words] {
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
		mask := sc.masks[best*words : (best+1)*words]
		sc.nonzero = sc.nonzero[:0]
		for w, m := range mask {
			p := bb[w]
			bs[w], bb[w] = p&(m^flip), p&^(m^flip)
			if bs[w] != 0 {
				sc.nonzero = append(sc.nonzero, int32(w))
			}
		}
		cs, cb := counts(small), counts(big)
		for x := range cs {
			m := sc.masks[x*words : (x+1)*words]
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
