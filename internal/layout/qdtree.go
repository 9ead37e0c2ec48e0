package layout

import (
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
// provably skip each cut's left and right side, and each cut evaluated
// over the sample into a bitset. A leaf is a bitset over sample
// positions, so scoring a cut at a leaf is an AND and a popcount, and a
// split is an AND and an AND-NOT. The finished tree routes the dataset
// one node at a time, each node a single sweep of one typed column over
// the rows that reached it.
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

// sampleMask sets bit j of mask when sample row rows[j] routes left.
func (c *cut) sampleMask(d *table.Dataset, rows []int32, mask []uint64, sc *qdScratch) {
	switch c.kind {
	case cutIntLT:
		col, t := d.Int64Col(c.col), c.i
		for j, r := range rows {
			if col[r] < t {
				mask[j>>6] |= 1 << (uint(j) & 63)
			}
		}
	case cutFloatLT:
		col, t := d.Float64Col(c.col), c.f
		for j, r := range rows {
			if col[r] < t {
				mask[j>>6] |= 1 << (uint(j) & 63)
			}
		}
	case cutStrIn:
		sc.codeSet = c.codeSet(d.Dict(c.col), sc.codeSet)
		codes, set := d.StringCodes(c.col), sc.codeSet
		for j, r := range rows {
			if code := codes[r]; set[code>>6]&(1<<(code&63)) != 0 {
				mask[j>>6] |= 1 << (uint(j) & 63)
			}
		}
	}
}

// partition stably reorders rows so that those routing left come first,
// and returns how many do. tmp must be at least as long as rows. The
// loops store unconditionally and advance conditionally, so they carry
// no data-dependent branch around a store.
func (c *cut) partition(d *table.Dataset, rows, tmp []int32, sc *qdScratch) int {
	nl, nr := 0, 0
	switch c.kind {
	case cutIntLT:
		col, t := d.Int64Col(c.col), c.i
		for _, r := range rows {
			rows[nl], tmp[nr] = r, r
			if col[r] < t {
				nl++
			} else {
				nr++
			}
		}
	case cutFloatLT:
		col, t := d.Float64Col(c.col), c.f
		for _, r := range rows {
			rows[nl], tmp[nr] = r, r
			if col[r] < t {
				nl++
			} else {
				nr++
			}
		}
	case cutStrIn:
		sc.codeSet = c.codeSet(d.Dict(c.col), sc.codeSet)
		codes, set := d.StringCodes(c.col), sc.codeSet
		for _, r := range rows {
			rows[nl], tmp[nr] = r, r
			if code := codes[r]; set[code>>6]&(1<<(code&63)) != 0 {
				nl++
			} else {
				nr++
			}
		}
	}
	copy(rows[nl:], tmp[:nr])
	return nl
}

// qdNode is a tree node. During construction a leaf carries its sample
// rows as a bitset and the best split found for it; an inner node keeps
// only its cut and children.
type qdNode struct {
	cut         int32 // index into the cuts; -1 for a leaf
	left, right int32 // child node indices
	leafID      int32 // partition ID, assigned when construction ends

	rows     []uint64 // sample positions in this leaf
	n        int      // popcount of rows
	best     int32    // best cut for splitting this leaf; -1 for none
	bestGain float64
}

// qdScratch holds one Generate call's working memory. It is recycled
// through qdPool, so steady-state candidate generation allocates only
// what it returns.
type qdScratch struct {
	sample  []int32  // stride-sampled dataset rows
	masks   []uint64 // one left-mask per cut over sample positions
	leaves  []uint64 // arena of leaf bitsets
	nodes   []qdNode
	order   []int32  // leaf order: position = partition ID
	codeSet []uint64 // a string cut's IN set over dictionary codes
	rows    []int32  // dataset rows grouped by tree node while routing
	tmp     []int32
}

var qdPool = sync.Pool{New: func() any { return new(qdScratch) }}

// zeroed returns buf resized to n zero words, reallocating only to grow.
func zeroed(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// sized returns buf resized to n entries (contents unspecified).
func sized(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
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

	// Evaluate every cut once over the stride sample (deterministic).
	sc.sample = strideSample(sc.sample, n, sampleSize)
	words := (len(sc.sample) + 63) / 64
	sc.masks = zeroed(sc.masks, len(cuts)*words)
	for x := range cuts {
		cuts[x].sampleMask(d, sc.sample, sc.masks[x*words:(x+1)*words], sc)
	}

	// eval finds the leaf's best split: the cut with the largest
	// skipping gain among those leaving both children at least minLeaf
	// sample rows; the first such cut wins ties.
	eval := func(nd *qdNode) {
		nd.best, nd.bestGain = -1, 0
		for x := range cuts {
			mask := sc.masks[x*words : (x+1)*words]
			nl := 0
			for w, m := range mask {
				nl += bits.OnesCount64(nd.rows[w] & m)
			}
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
	sc.leaves = zeroed(sc.leaves, maxNodes*words)
	if cap(sc.nodes) < maxNodes {
		sc.nodes = make([]qdNode, 0, maxNodes)
	}
	nodes := sc.nodes[:0]
	newLeaf := func() *qdNode {
		i := len(nodes)
		nodes = append(nodes, qdNode{cut: -1, rows: sc.leaves[i*words : (i+1)*words]})
		return &nodes[i]
	}
	root := newLeaf()
	for j := range sc.sample {
		root.rows[j>>6] |= 1 << (uint(j) & 63)
	}
	root.n = len(sc.sample)
	eval(root)
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
		mask := sc.masks[int(nodes[pi].best)*words : (int(nodes[pi].best)+1)*words]
		li, ri := int32(len(nodes)), int32(len(nodes)+1)
		left, right := newLeaf(), newLeaf() // within maxNodes: nodes never regrows
		parent := &nodes[pi]
		for w, m := range mask {
			left.rows[w] = parent.rows[w] & m
			right.rows[w] = parent.rows[w] &^ m
			left.n += bits.OnesCount64(left.rows[w])
		}
		right.n = parent.n - left.n
		parent.cut, parent.left, parent.right, parent.rows = parent.best, li, ri, nil
		// The left child takes the parent's place, the right one the end.
		order[pick] = li
		order = append(order, ri)
		eval(left)
		eval(right)
	}
	for i, ni := range order {
		nodes[ni].leafID = int32(i)
	}
	numLeaves := len(order)
	sc.nodes, sc.order = nodes[:0], order[:0]

	// Route the full dataset through the tree, one node at a time: a
	// node's rows sit contiguously in sc.rows, in ascending order, and a
	// split reorders them into its left child's rows then its right's.
	assign := make([]int, n)
	sc.rows, sc.tmp = sized(sc.rows, n), sized(sc.tmp, n)
	for r := range sc.rows {
		sc.rows[r] = int32(r)
	}
	var route func(ni int32, rows []int32)
	route = func(ni int32, rows []int32) {
		nd := &nodes[ni]
		if nd.cut < 0 {
			for _, r := range rows {
				assign[r] = int(nd.leafID)
			}
			return
		}
		nl := cuts[nd.cut].partition(d, rows, sc.tmp, sc)
		route(nd.left, rows[:nl])
		route(nd.right, rows[nl:])
	}
	route(0, sc.rows)

	part := table.MustBuildPartitioning(d, assign, numLeaves)
	name := fmt.Sprintf("qdtree(cuts=%d,leaves=%d,w=%s)", len(cuts), numLeaves, workloadTag(qs))
	return New(name, d.Schema(), part)
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
