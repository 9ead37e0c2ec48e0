package prune

import (
	"sync"

	"oreo/internal/query"
	"oreo/internal/table"
)

// DefaultMemoCapacity bounds a layout's cost memo. The working set the
// memo must cover is the sliding window plus the R-TBS reservoir plus
// in-flight candidates' probes — a few hundred distinct queries at the
// paper's defaults — so 4096 entries give ample headroom while keeping
// the worst-case footprint small (entries are a fingerprint string and a
// float64).
const DefaultMemoCapacity = 4096

// Engine is the per-layout costing engine: it binds one (schema,
// partitioning) pair and serves service costs c(s, q) from a bounded
// LRU memo, compiling and evaluating on miss. Safe for concurrent use.
type Engine struct {
	schema *table.Schema
	part   *table.Partitioning

	mu   sync.Mutex
	memo *costMemo

	hits, misses uint64
}

// NewEngine returns an engine for the layout's schema and partitioning
// with the default memo capacity.
func NewEngine(schema *table.Schema, part *table.Partitioning) *Engine {
	return NewEngineCapacity(schema, part, DefaultMemoCapacity)
}

// NewEngineCapacity is NewEngine with an explicit memo capacity;
// capacity <= 0 disables memoization.
func NewEngineCapacity(schema *table.Schema, part *table.Partitioning, capacity int) *Engine {
	e := &Engine{schema: schema, part: part}
	if capacity > 0 {
		e.memo = newCostMemo(capacity)
	}
	return e
}

// fpScratchSize holds typical fingerprints (a few predicates with short
// column names) on the stack; longer ones spill to the heap.
const fpScratchSize = 256

// Cost returns the service cost of q on the engine's partitioning,
// bit-for-bit equal to query.FractionScanned(schema, part, q).
// A memo hit allocates nothing: the fingerprint is encoded into a stack
// scratch buffer and probed via map[string(bytes)].
func (e *Engine) Cost(q query.Query) float64 {
	var scratch [fpScratchSize]byte
	fpb := appendFingerprint(scratch[:0], q)
	if c, ok := e.lookupBytes(fpb); ok {
		return c
	}
	fp := string(fpb)
	c := compileFP(e.schema, q, fp).FractionScanned(e.part)
	e.store(fp, c)
	return c
}

// CostCompiled is Cost for a pre-compiled query, sharing the compilation
// across many engines (one query costed against every candidate layout).
// A query compiled against a different schema is transparently rebound.
func (e *Engine) CostCompiled(cq *CompiledQuery) float64 {
	if cq.schema != e.schema {
		cq = compileFP(e.schema, cq.src, cq.fp)
	}
	if c, ok := e.lookup(cq.fp); ok {
		return c
	}
	c := cq.FractionScanned(e.part)
	e.store(cq.fp, c)
	return c
}

// CostSurvivors returns the service cost of q together with the
// survivor partition skip-list (ascending partition IDs the metadata
// cannot rule out). The list is always evaluated fresh — the memo only
// stores scalar costs — but the evaluation's cost is stored, so a
// survivor request also warms subsequent Cost calls for the same query.
func (e *Engine) CostSurvivors(q query.Query) (float64, []int) {
	cq := Compile(e.schema, q)
	ids, c := cq.Survivors(e.part)
	e.store(cq.fp, c)
	return c, ids
}

// MemoEntry is one exported (fingerprint, cost) pair; see ExportMemo.
type MemoEntry struct {
	// FP is the query's binary structural fingerprint.
	FP string
	// Cost is the memoized service cost on the engine's partitioning.
	Cost float64
}

// ExportMemo snapshots the memo contents, least recently used first, so
// that SeedMemo(ExportMemo()) on a fresh engine reproduces both the
// entries and their eviction order. Used by the persist warm-start path.
func (e *Engine) ExportMemo() []MemoEntry {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.memo == nil {
		return nil
	}
	out := make([]MemoEntry, 0, len(e.memo.index))
	for n := e.memo.tail; n != nil; n = n.prev {
		out = append(out, MemoEntry{FP: n.key, Cost: n.cost})
	}
	return out
}

// SeedMemo installs entries (oldest first) into the memo, subject to the
// capacity bound. Callers are responsible for only seeding costs that
// were computed against an identical (schema, partitioning) pair — the
// persist loader enforces this by comparing statistics blocks.
func (e *Engine) SeedMemo(entries []MemoEntry) {
	if e.memo == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, en := range entries {
		e.memo.put(en.FP, en.Cost)
	}
}

func (e *Engine) lookup(fp string) (float64, bool) {
	if e.memo == nil {
		return 0, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if c, ok := e.memo.get(fp); ok {
		e.hits++
		return c, true
	}
	e.misses++
	return 0, false
}

// lookupBytes is lookup keyed by the raw fingerprint bytes.
func (e *Engine) lookupBytes(fpb []byte) (float64, bool) {
	if e.memo == nil {
		return 0, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if c, ok := e.memo.getBytes(fpb); ok {
		e.hits++
		return c, true
	}
	e.misses++
	return 0, false
}

func (e *Engine) store(fp string, c float64) {
	if e.memo == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.memo.put(fp, c)
}

// MemoStats reports the engine's memo effectiveness.
type MemoStats struct {
	Hits, Misses uint64
	// Entries is the current number of memoized (query, cost) pairs.
	Entries int
	// Capacity is the memo bound (0 when memoization is disabled).
	Capacity int
}

// Stats returns a snapshot of the memo counters.
func (e *Engine) Stats() MemoStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := MemoStats{Hits: e.hits, Misses: e.misses}
	if e.memo != nil {
		s.Entries = len(e.memo.index)
		s.Capacity = e.memo.cap
	}
	return s
}

// costMemo is a plain LRU: a doubly linked list in recency order plus an
// index. It is not itself locked; Engine serializes access.
type costMemo struct {
	cap   int
	index map[string]*memoNode
	head  *memoNode // most recent
	tail  *memoNode // least recent
}

type memoNode struct {
	key        string
	cost       float64
	prev, next *memoNode
}

func newCostMemo(capacity int) *costMemo {
	// No size hint: most layouts (rejected candidates, per-template
	// oracle states) memoize far fewer queries than the capacity bound,
	// so let the map grow on demand instead of preallocating worst-case
	// buckets per layout.
	return &costMemo{cap: capacity, index: make(map[string]*memoNode)}
}

func (m *costMemo) get(key string) (float64, bool) {
	n, ok := m.index[key]
	if !ok {
		return 0, false
	}
	m.moveToFront(n)
	return n.cost, true
}

// getBytes is get keyed by raw bytes; the map[string(key)] index
// expression converts without allocating, so memo hits on the Cost hot
// path stay heap-free.
func (m *costMemo) getBytes(key []byte) (float64, bool) {
	n, ok := m.index[string(key)]
	if !ok {
		return 0, false
	}
	m.moveToFront(n)
	return n.cost, true
}

func (m *costMemo) put(key string, cost float64) {
	if n, ok := m.index[key]; ok {
		n.cost = cost
		m.moveToFront(n)
		return
	}
	n := &memoNode{key: key, cost: cost}
	m.index[key] = n
	m.pushFront(n)
	if len(m.index) > m.cap {
		lru := m.tail
		m.unlink(lru)
		delete(m.index, lru.key)
	}
}

func (m *costMemo) pushFront(n *memoNode) {
	n.next = m.head
	n.prev = nil
	if m.head != nil {
		m.head.prev = n
	}
	m.head = n
	if m.tail == nil {
		m.tail = n
	}
}

func (m *costMemo) unlink(n *memoNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		m.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		m.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (m *costMemo) moveToFront(n *memoNode) {
	if m.head == n {
		return
	}
	m.unlink(n)
	m.pushFront(n)
}
