package serve

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"oreo"
	"oreo/internal/exec"
	"oreo/internal/layout"
	"oreo/internal/metrics"
	"oreo/internal/table"
)

// shard is one table's serving unit: a published (epoch, snapshot,
// base, delta) state, a lock-free read path over it, and exactly one
// way to change it. step (step.go) is the pure transition — state + one
// DecisionUpdate → next state, or a rejection that leaves the state
// untouched — and advance wraps it (publish, lockstep execution-store
// sync, write-path counters, decision hook) as the only writer of rep
// after construction. The two roles differ only in who computes the
// update:
//
//   - A leader shard pairs an optimizer with a bounded event queue
//     drained by one consumer goroutine, the optimizer's only caller,
//     which computes what only a leader can — ProcessQuery's result and
//     the optimizer's snapshot after it for an observation
//     (evObserve); the extended assignment, repartitioned base and fresh
//     engine for a fold (evCompact); nothing for an append (evAppend:
//     the batch is the update) — and lets the transition mint the epoch.
//   - A replica shard has no optimizer and no event loop. A replication
//     follower (internal/replica) decodes each stream record into the
//     update the leader's hook emitted and Core.Apply hands it to the
//     same advance, which checks the carried epoch instead of minting
//     one. Observations go to a forward function that ships them
//     upstream. Until its first snapshot update the shard answers
//     unavailable.
//
// Both roles run one function over the same inputs, so a follower is
// bit-identical to its leader at every epoch by construction, and
// promote has no state to convert: the replica already owns its grown
// base and write tail.
//
// The read path (answer) costs the query and extracts the survivor
// skip-list against the published snapshot — for execute requests,
// against the execution store it then scans — and hands the query to
// the decision loop through a non-blocking send, so the sequential
// decision path never sits on a request's critical path. When the
// queue is full the query is sampled out of reorganization decisions
// (counted in dropped) rather than blocking the request — under
// overload OREO sees a uniform sample of the stream, which its
// sliding-window machinery is built for. Appends and compactions are
// never dropped: the sender blocks until the consumer has advanced the
// state, then gets an acknowledgment carrying the new epoch. Every
// event advances the table's single epoch counter, so layout decisions
// and data changes share one totally ordered stream.
type shard struct {
	table string
	// ds is the boot-time dataset — the schema anchor (the schema
	// pointer never changes across appends and compactions) and the
	// boot source whose row count snapshots frame appended rows against
	// (Position.SeedRows). The *current* base lives in rep: compaction
	// grows it past ds.
	ds *oreo.Dataset

	// copt is the decision engine — leader mode only, nil on a replica.
	// The consumer goroutine is its one caller; what readers need of it
	// reaches them through rep. The pointer is atomic only because a fold
	// or a promotion installs a fresh engine (over the grown base, the
	// compacted layout its initial state) under /trace requests, which
	// load it to read the decision trace — and that locks itself.
	copt atomic.Pointer[oreo.Optimizer]

	// replica marks a shard whose state is externally applied; forward
	// is its observation hand-off (upstream, not a local queue).
	replica bool
	forward func(oreo.Query) bool

	// rep is the published (epoch, snapshot, base, delta) state every
	// read serves from: one atomic load yields a sequence number, the
	// layout/stats view, the partitioned base it describes, and the
	// live delta tail that were all true at exactly that sequence
	// number. Constructors store the initial state; after that advance
	// is the only writer. On a replica it is unseeded (no serving
	// layout) until the first snapshot update lands.
	rep atomic.Pointer[repState]

	// onDecision, when set, is invoked by advance with each applied
	// update — the replication publish hook. Swapped atomically so it
	// can be attached to a running core.
	onDecision atomic.Pointer[func(table string, upd DecisionUpdate)]

	// store is the execution state: the materialized per-partition row
	// blocks paired with the exact layout they were arranged by, plus
	// the delta view scans must append. It is built lazily by the first
	// execute request (storeMu serializes that one build), so
	// costing-only deployments never pay the second copy of the data;
	// once it exists, advance swaps it in lockstep with the published
	// state, so
	// execute requests read a (layout, data, delta) triple that is
	// always internally consistent — during a swap a request may
	// execute on the outgoing state one last time, never on a torn mix.
	store   atomic.Pointer[execState]
	storeMu sync.Mutex

	// compactThreshold triggers an automatic fold when the delta
	// reaches this many rows; <= 0 disables auto-compaction.
	compactThreshold int
	// statsBase accumulates the cumulative counters of every optimizer
	// retired by compaction, so published stats stay monotone across
	// engine rebuilds. Consumer-owned.
	statsBase oreo.Stats

	queue     chan shardEvent
	closeOnce sync.Once
	wg        sync.WaitGroup
	// obsMu guards the handoff into queue against close: senders hold
	// the read side (cheap, shared), close holds the write side, so a
	// request racing a shutdown observes obsClosed instead of panicking
	// on a closed channel.
	obsMu     sync.RWMutex
	obsClosed bool

	// The serving counters are metrics-registry instruments — the one
	// source of truth that /stats, /healthz, and a /metrics scrape all
	// read, so the surfaces cannot drift from each other. Recording on a
	// resolved instrument is a single atomic add (see internal/metrics).
	served   *metrics.Counter // read-path answers
	observed *metrics.Counter // queries enqueued for the decision loop (or forwarded upstream)
	dropped  *metrics.Counter // queue-full samples (or failed forwards)
	costBits atomic.Uint64    // sum of served costs, as float64 bits (scraped via CounterFunc)
	// compiles counts snapshot compile-and-sweep evaluations served on
	// the read path — the memo-bypassing complement of the engine's
	// decision-path hit/miss counters.
	compiles *metrics.Counter
	// executions / execRows count row-level scans and the rows they
	// examined; execCovered counts the survivor blocks those scans
	// answered from block summaries; parallelScans counts the executions
	// that ran with more than one scan worker (see scanPar).
	executions    *metrics.Counter
	execRows      *metrics.Counter
	execCovered   *metrics.Counter
	parallelScans *metrics.Counter
	// rowsAppended counts rows landed through the live write path (on a
	// follower: applied from the leader's stream); compactions counts
	// delta folds.
	rowsAppended *metrics.Counter
	compactions  *metrics.Counter

	// scanPar is the worker count execute scans run with
	// (exec.Options.Parallelism), resolved by the core at construction.
	scanPar int
}

// execState pairs a layout with the execution store materialized for
// it and the delta view scans must append. Swapped atomically as one
// unit; see shard.store.
type execState struct {
	layout *oreo.Layout
	store  *exec.Store
	delta  *oreo.Dataset // nil ≡ empty
}

// shardEvent is one unit of the consumer's totally ordered stream.
type shardEvent struct {
	kind evKind
	q    oreo.Query    // evObserve
	rows *oreo.Dataset // evAppend
	// resp acknowledges appends and compactions (buffered, capacity 1).
	resp chan eventAck
}

type evKind int

const (
	evObserve evKind = iota
	evAppend
	evCompact
)

// eventAck is the consumer's acknowledgment of an append or compact
// event: the update as applied (or the no-op a fold of an empty delta
// reports), taken after the new state is published — a client that has
// its ack is guaranteed to see its rows on the very next read.
type eventAck struct {
	upd DecisionUpdate
	err error
}

func newShard(name string, ds *oreo.Dataset, opt *oreo.Optimizer, cfg Config, reg *metrics.Registry) *shard {
	s := &shard{table: name, ds: ds, scanPar: cfg.ScanParallelism}
	snap := opt.Snapshot()
	snap.Serving.Part.Meta() // see advance
	s.rep.Store(&repState{snap: snap, ds: ds, tail: table.NewBuilder(ds.Schema(), 0)})
	s.registerMetrics(reg)
	s.lead(opt, oreo.Stats{}, cfg)
	s.wg.Add(1)
	go s.consume()
	return s
}

// newReplicaShard builds a shard in replica mode: no optimizer, no
// event loop; state arrives through Core.Apply and observations leave
// through forward. It answers unavailable until the first snapshot
// update is applied.
func newReplicaShard(name string, ds *oreo.Dataset, forward func(oreo.Query) bool, scanPar int, reg *metrics.Registry) *shard {
	s := &shard{table: name, ds: ds, replica: true, forward: forward, scanPar: scanPar}
	s.rep.Store(&repState{tail: table.NewBuilder(ds.Schema(), 0)})
	s.registerMetrics(reg)
	return s
}

// lead attaches the leader-only machinery — the decision engine, the
// counters it continues from, the event queue — for the consumer the
// caller starts next, sized and thresholded by the core's resolved
// Config. It cannot fail; callers racing readers (promote) hold the
// obsMu write lock.
func (s *shard) lead(opt *oreo.Optimizer, statsBase oreo.Stats, cfg Config) {
	s.copt.Store(opt)
	s.statsBase = statsBase
	s.compactThreshold = cfg.CompactThreshold
	s.queue = make(chan shardEvent, cfg.QueueSize)
	s.replica = false
	s.forward = nil
}

// registerMetrics resolves the shard's counter instruments and attaches
// the callback series that read live shard state on each scrape. Every
// series carries a {table} label; the full catalog is documented in the
// "# Observability" section of the root package.
func (s *shard) registerMetrics(reg *metrics.Registry) {
	lbl := metrics.Labels{"table": s.table}
	s.served = reg.Counter("oreo_queries_served_total",
		"Queries answered on the read path, including execute requests.", lbl)
	s.observed = reg.Counter("oreo_observations_total",
		"Served queries enqueued for the decision loop (leader) or forwarded upstream (follower).", lbl)
	s.dropped = reg.Counter("oreo_observations_dropped_total",
		"Served queries sampled out of reorganization decisions because the observation queue (or forward buffer) was full.", lbl)
	s.compiles = reg.Counter("oreo_snapshot_compiles_total",
		"Lock-free compile-and-sweep evaluations served against layout snapshots.", lbl)
	s.executions = reg.Counter("oreo_executions_total",
		"Served queries that also ran a row-level scan over their survivor partitions.", lbl)
	s.execRows = reg.Counter("oreo_scan_rows_examined_total",
		"Rows examined by execution scans; rate() of this is scan rows per second.", lbl)
	s.execCovered = reg.Counter("oreo_scan_partitions_covered_total",
		"Survivor partitions execution scans answered from block summaries, their metadata proving every predicate true.", lbl)
	s.parallelScans = reg.Counter("oreo_parallel_scans_total",
		"Execution scans that ran with more than one worker.", lbl)
	s.rowsAppended = reg.Counter("oreo_rows_appended_total",
		"Rows landed through the live write path (on a follower: applied from the leader's stream).", lbl)
	s.compactions = reg.Counter("oreo_compactions_total",
		"Delta-segment folds into a freshly partitioned base layout.", lbl)
	reg.CounterFunc("oreo_served_cost_total",
		"Cumulative served cost: the sum over answered queries of the scanned table fraction.", lbl,
		func() float64 { return math.Float64frombits(s.costBits.Load()) })
	reg.GaugeFunc("oreo_observation_queue_depth",
		"Observations waiting for the decision loop (always 0 on a follower).", lbl,
		func() float64 { return float64(s.queueDepth()) })
	reg.GaugeFunc("oreo_observation_queue_capacity",
		"Capacity of the decision-observation queue.", lbl,
		func() float64 { return float64(s.queueCap()) })

	// Decision-loop and replication series read the published (epoch,
	// snapshot) pair — unseeded on a replica before its first snapshot,
	// which scrapes as 0.
	snapFn := func(f func(*repState) float64) func() float64 {
		return func() float64 {
			st, err := s.view()
			if err != nil {
				return 0
			}
			return f(st)
		}
	}
	reg.CounterFunc("oreo_decisions_total",
		"Queries processed by the decision loop; on a follower these are the leader's replicated counters.", lbl,
		snapFn(func(st *repState) float64 { return float64(st.snap.Stats.Queries) }))
	reg.CounterFunc("oreo_reorganizations_total",
		"Layout reorganizations the optimizer has committed.", lbl,
		snapFn(func(st *repState) float64 { return float64(st.snap.Stats.Reorganizations) }))
	reg.CounterFunc("oreo_decision_query_cost_total",
		"Cumulative query cost accounted by the decision loop (the paper's service cost).", lbl,
		snapFn(func(st *repState) float64 { return st.snap.Stats.QueryCost }))
	reg.CounterFunc("oreo_decision_reorg_cost_total",
		"Cumulative data-movement cost of committed reorganizations.", lbl,
		snapFn(func(st *repState) float64 { return st.snap.Stats.ReorgCost }))
	reg.GaugeFunc("oreo_replication_epoch",
		"Published decision epoch: decisions processed on a leader, last applied epoch on a follower. Leader minus follower is the replication lag.", lbl,
		snapFn(func(st *repState) float64 { return float64(st.epoch) }))
	reg.GaugeFunc("oreo_delta_rows",
		"Rows currently in the table's live delta segment (unpartitioned; scanned in full by every query).", lbl,
		snapFn(func(st *repState) float64 { return float64(st.deltaRows()) }))
	reg.CounterFunc("oreo_memo_hits_total",
		"Decision-path cost-memo hits for the serving layout.", lbl,
		snapFn(func(st *repState) float64 { return float64(st.snap.Serving.Engine().Stats().Hits) }))
	reg.CounterFunc("oreo_memo_misses_total",
		"Decision-path cost-memo misses for the serving layout.", lbl,
		snapFn(func(st *repState) float64 { return float64(st.snap.Serving.Engine().Stats().Misses) }))
	reg.GaugeFunc("oreo_memo_entries",
		"Entries in the serving layout's cost memo.", lbl,
		snapFn(func(st *repState) float64 { return float64(st.snap.Serving.Engine().Stats().Entries) }))
}

// consume is the leader's event consumer — the serialization point for
// everything that advances the table's epoch: layout decisions, row
// appends, and compactions. Each arm computes its update and hands it
// to advance. Engine rebuilds and store rebuilds (full data rewrites)
// run here, on the consumer goroutine — they are the physical
// reorganization cost the optimizer's α models, and they must never
// land on a request.
func (s *shard) consume() {
	defer s.wg.Done()
	for ev := range s.queue {
		switch ev.kind {
		case evObserve:
			s.handleObserve(ev.q)
		case evAppend:
			//oreovet:ignore blockingsend reply on the caller-owned cap-1 ack channel; the single send cannot block
			ev.resp <- s.handleAppend(ev.rows)
		case evCompact:
			//oreovet:ignore blockingsend reply on the caller-owned cap-1 ack channel; the single send cannot block
			ev.resp <- s.handleCompact()
		}
	}
}

// advance is the one writer of the published state: it runs the
// transition and, when the state moved, publishes it, brings a
// materialized execution store in line (here, so the rebuild never
// lands on a request), counts what the update did, and invokes the
// decision hook — after the publish but before any append/compact
// acknowledgment, so a replication publisher always describes a state
// this node already serves, and an acked writer knows its rows are
// in-stream and, on an archiving leader, in the archive (the publisher
// writes each record there before its hook returns). Callers are
// serialized per shard: the leader's consumer,
// or the one goroutine applying a follower's stream.
func (s *shard) advance(in DecisionUpdate) (out DecisionUpdate, applied bool, err error) {
	cur := s.rep.Load()
	next, out, err := step(cur, in)
	if err != nil || next == cur {
		return out, false, err
	}
	if next.seeded() {
		// Build every column of the serving layout before readers see
		// it, so no reader's latency includes a column sweep. Readers
		// would build what they read themselves; this is for latency.
		next.snap.Serving.Part.Meta()
	}
	s.rep.Store(next)
	s.syncStore(next)
	switch out.Kind {
	case UpdateAppend:
		s.rowsAppended.Add(uint64(out.Rows.NumRows()))
	case UpdateCompact:
		s.compactions.Add(1)
	}
	if fn := s.onDecision.Load(); fn != nil {
		(*fn)(s.table, out)
	}
	return out, true, nil
}

// handleObserve feeds one observation to the decision engine and
// advances the state by its result.
func (s *shard) handleObserve(q oreo.Query) {
	opt := s.copt.Load()
	d := opt.ProcessQuery(q)
	if _, _, err := s.advance(DecisionUpdate{Kind: UpdateDecision, Cost: d.Cost, Snapshot: combinedSnapshot(s.statsBase, opt)}); err != nil {
		// The engine's own layouts over the engine's own dataset: only a
		// bug can make the transition refuse them.
		panic(fmt.Sprintf("serve: table %q: decision rejected by its own transition: %v", s.table, err))
	}
}

// handleAppend lands one row batch in the delta segment and — when the
// delta has reached the auto-compaction threshold — folds it
// immediately, all under the same consumer turn.
func (s *shard) handleAppend(rows *oreo.Dataset) eventAck {
	out, _, err := s.advance(DecisionUpdate{Kind: UpdateAppend, Rows: rows})
	if err == nil && s.compactThreshold > 0 && out.DeltaRows >= s.compactThreshold {
		return s.handleCompact()
	}
	return eventAck{out, err}
}

// handleCompact folds the delta into the base. The transition grows the
// base; the leader's part, done where the transition binds the update,
// is to extend the serving layout's assignment over the delta rows by
// least-widening placement, repartition the grown dataset under it
// (metadata recomputed exactly), and build a fresh optimizer over the
// grown base with the compacted layout as its initial state — the
// optimizer's own machinery (window, candidate generation, D-UMTS
// counters) then reorganizes the compacted table as usual. Cumulative
// stats survive the engine swap via statsBase. The compacted layout is
// named after the epoch the fold lands at: epochs never repeat, not
// across a promotion or a restart either, so neither do fold names.
func (s *shard) handleCompact() eventAck {
	cur := s.rep.Load()
	installed := false
	out, _, err := s.advance(DecisionUpdate{Kind: UpdateCompact, Bind: func(grown *oreo.Dataset, epoch uint64) (oreo.OptimizerSnapshot, error) {
		serving := cur.snap.Serving
		assign := extendAssignment(serving.Part, cur.delta)
		part, err := table.BuildPartitioning(grown, assign, serving.Part.NumPartitions)
		if err != nil {
			return oreo.OptimizerSnapshot{}, fmt.Errorf("repartitioning grown base: %w", err)
		}
		// The retiring engine's resolved configuration, but for the start.
		cfg := s.copt.Load().Config()
		cfg.Initial = layout.New(fmt.Sprintf("compact-%d", epoch), grown.Schema(), part)
		cfg.InitialSort = nil
		opt, err := oreo.New(grown, cfg)
		if err != nil {
			return oreo.OptimizerSnapshot{}, fmt.Errorf("rebuilding optimizer over grown base: %w", err)
		}
		// Nothing can fail from here on, so the engine is installed now,
		// not after advance: the retired one (a window of candidate
		// layouts, each a row→partition assignment over the old base) must
		// be garbage while advance rebuilds the execution store — measured
		// at +13 % rss_peak_mb @ serve-write otherwise.
		s.statsBase = addStats(s.statsBase, s.copt.Load().Stats())
		s.copt.Store(opt)
		installed = true
		return combinedSnapshot(s.statsBase, opt), nil
	}})
	if err != nil && installed {
		panic(fmt.Sprintf("serve: table %q: fold over its own grown base rejected by the transition: %v", s.table, err))
	}
	return eventAck{out, err}
}

// extendAssignment returns the serving assignment extended over the
// delta rows: each delta row goes to the partition whose metadata it
// widens least — the number of columns whose range (numeric) or value
// set (string) would have to grow to cover the row — tie-broken by
// fewer rows, then lowest partition ID. Placement is judged against
// the pre-compaction metadata only (not updated row by row), which
// keeps it deterministic and cheap; BuildPartitioning recomputes all
// metadata exactly afterwards. Every comparison is exact, so any
// process replaying the same stream places rows identically.
//
// A string cell's answer depends only on its value and the partition,
// so each string column asks ColumnStats.ContainsString once per
// distinct delta value and partition (codeHolders), and the row loop
// reads the answers by dictionary code.
func extendAssignment(part *table.Partitioning, delta *table.Dataset) []int {
	assign := make([]int, 0, len(part.Assign)+delta.NumRows())
	assign = append(assign, part.Assign...)
	meta := part.Meta()
	schema := delta.Schema()
	holders := make([]codeHolders, schema.NumCols())
	for c := range holders {
		if schema.Col(c).Type == table.String {
			holders[c] = newCodeHolders(meta, delta, c)
		}
	}
	held := make([][]bool, schema.NumCols()) // row r's answers per string column, by partition
	for r := 0; r < delta.NumRows(); r++ {
		for c := range holders {
			if holders[c].slot != nil {
				held[c] = holders[c].partitions(delta.StringCodes(c)[r])
			}
		}
		best, bestWiden, bestRows := 0, schema.NumCols()+1, int(^uint(0)>>1)
		for pid, m := range meta {
			w := widen(m, pid, delta, r, held)
			if w < bestWiden || (w == bestWiden && m.NumRows < bestRows) {
				best, bestWiden, bestRows = pid, w, m.NumRows
			}
		}
		assign = append(assign, best)
	}
	return assign
}

// widen counts the columns of delta row r that partition pid's
// metadata m cannot already cover; held[c][pid] is whether m's value
// set for string column c holds the row's value. Empty column stats
// count zero — a row landing in an empty partition gets perfectly
// tight metadata, so empty partitions are preferred absorbers. NaN
// floats never widen a range, matching ColumnStats.AddFloat, whose
// min/max comparisons a NaN also falls through.
func widen(m *table.PartitionMeta, pid int, delta *table.Dataset, r int, held [][]bool) int {
	w := 0
	schema := delta.Schema()
	for c := 0; c < schema.NumCols(); c++ {
		cs := &m.Stats[c]
		if cs.Empty() {
			continue
		}
		switch schema.Col(c).Type {
		case table.Int64:
			if v := delta.Int64At(c, r); v < cs.MinI || v > cs.MaxI {
				w++
			}
		case table.Float64:
			if v := delta.Float64At(c, r); v < cs.MinF || v > cs.MaxF {
				w++
			}
		case table.String:
			if !held[c][pid] {
				w++
			}
		}
	}
	return w
}

// codeHolders is one string column's ContainsString answers for a
// fold: for each distinct code the delta's rows hold, one answer per
// partition. The answers are sized by the codes the delta uses, not by
// its dictionary, which a delta may share with a larger table.
type codeHolders struct {
	slot  []int32 // dictionary code → its answers' row in holds; -1 when no delta row uses it
	holds []bool  // (distinct codes) × k answers, one row per code
	k     int
}

// newCodeHolders asks, for every distinct value of delta's string
// column c, whether each partition's metadata may contain it.
func newCodeHolders(meta []*table.PartitionMeta, delta *table.Dataset, c int) codeHolders {
	dict := delta.Dict(c)
	h := codeHolders{slot: make([]int32, dict.Len()), k: len(meta)}
	for i := range h.slot {
		h.slot[i] = -1
	}
	distinct := int32(0)
	for _, code := range delta.StringCodes(c) {
		if h.slot[code] >= 0 {
			continue
		}
		h.slot[code] = distinct
		distinct++
		v := dict.Value(code)
		for _, m := range meta {
			h.holds = append(h.holds, m.Stats[c].ContainsString(v))
		}
	}
	return h
}

// partitions returns, by partition ID, whether each partition's
// metadata may contain the value of dictionary code code.
func (h *codeHolders) partitions(code uint32) []bool {
	i := int(h.slot[code]) * h.k
	return h.holds[i : i+h.k]
}

// combinedSnapshot returns the engine's snapshot with the cumulative
// counters of every retired engine folded in, so published stats stay
// monotone across the optimizer rebuilds compaction performs.
func combinedSnapshot(retired oreo.Stats, opt *oreo.Optimizer) oreo.OptimizerSnapshot {
	snap := opt.Snapshot()
	snap.Stats = addStats(retired, snap.Stats)
	return snap
}

// addStats folds the cumulative counters of base into cur: monotone
// counters add, high-water marks take the max, and instantaneous
// values (States) keep cur's reading.
func addStats(base, cur oreo.Stats) oreo.Stats {
	cur.Queries += base.Queries
	cur.Reorganizations += base.Reorganizations
	cur.QueryCost += base.QueryCost
	cur.ReorgCost += base.ReorgCost
	cur.Phases += base.Phases
	if base.MaxStates > cur.MaxStates {
		cur.MaxStates = base.MaxStates
	}
	if base.CompetitiveBound > cur.CompetitiveBound {
		cur.CompetitiveBound = base.CompetitiveBound
	}
	return cur
}

// view returns the published state, or an unavailable error on a
// replica shard that has not applied its first snapshot.
func (s *shard) view() (*repState, *Error) {
	st := s.rep.Load()
	if !st.seeded() {
		return nil, errUnavailable("table %q is replicating and has no snapshot yet", s.table)
	}
	return st, nil
}

// syncStore brings a materialized execution store in line with the
// published state: a layout change rebuilds the per-partition blocks
// from the (possibly grown) base, a delta change swaps just the view.
// No-op until the first execute request materializes a store. Runs on
// advance's goroutine, serialized against lazy materialization by
// storeMu.
func (s *shard) syncStore(rst *repState) {
	s.storeMu.Lock()
	defer s.storeMu.Unlock()
	st := s.store.Load()
	if st == nil {
		return
	}
	if st.layout != rst.snap.Serving {
		s.store.Store(&execState{layout: rst.snap.Serving, store: exec.MustNewStore(rst.ds, rst.snap.Serving.Part), delta: rst.delta})
	} else if st.delta != rst.delta {
		s.store.Store(&execState{layout: st.layout, store: st.store, delta: rst.delta})
	}
}

// execStore returns the execution state, materializing it on first use
// from the freshest published state. The build is serialized under
// storeMu (concurrent first-execute requests wait rather than each
// copying the table); afterwards loads are lock-free. The state may
// trail the published serving layout until the next lockstep sync —
// answer reports that window as an in-flight reorganization —
// but it is always an internally consistent (layout, data, delta)
// triple.
func (s *shard) execStore() *execState {
	if st := s.store.Load(); st != nil {
		return st
	}
	s.storeMu.Lock()
	defer s.storeMu.Unlock()
	if st := s.store.Load(); st != nil {
		return st
	}
	rst := s.rep.Load()
	st := &execState{layout: rst.snap.Serving, store: exec.MustNewStore(rst.ds, rst.snap.Serving.Part), delta: rst.delta}
	s.store.Store(st)
	return st
}

// close stops the shard: no further observations or writes are
// accepted, the consumer (leader mode) drains what was already queued
// — including blocked appenders, which receive their acknowledgments —
// and the call returns once the event loop has gone quiet. Idempotent
// — a follower teardown may close the same core twice — and safe to
// call while requests are still in flight: late observations are
// dropped, not panicked on.
func (s *shard) close() {
	s.closeOnce.Do(func() {
		s.obsMu.Lock()
		s.obsClosed = true
		s.obsMu.Unlock()
		if s.queue != nil {
			close(s.queue)
		}
	})
	s.wg.Wait()
}

// The role-dependent fields (replica, forward, queue, and the
// leader-only decision machinery) are written by lead alone: at
// construction, and under the obsMu write lock by promote. Every
// reader that can race a promotion goes through these accessors, which
// take the read side — the same lock discipline the observation handoff
// already uses against close.

// isReplica reports whether the shard's state is externally applied.
func (s *shard) isReplica() bool {
	s.obsMu.RLock()
	defer s.obsMu.RUnlock()
	return s.replica
}

// isClosed reports whether close has begun.
func (s *shard) isClosed() bool {
	s.obsMu.RLock()
	defer s.obsMu.RUnlock()
	return s.obsClosed
}

// queueDepth returns the decision queue's current depth (0 on a
// replica, which has no queue).
func (s *shard) queueDepth() int {
	s.obsMu.RLock()
	defer s.obsMu.RUnlock()
	return len(s.queue)
}

// queueCap returns the decision queue's capacity (0 on a replica).
func (s *shard) queueCap() int {
	s.obsMu.RLock()
	defer s.obsMu.RUnlock()
	return cap(s.queue)
}

// promotionEngine builds the decision engine a promotion installs —
// the fallible half, done for every table before any shard flips. Like
// a compaction's, the engine is a fresh optimizer over the replicated
// base with the replicated serving layout as its initial state, so the
// first post-promotion decision costs queries against the very layout
// the old leader was serving. Construction walks the whole base and
// takes no lock; the inputs are stable because the caller has detached
// the replication stream.
func (s *shard) promotionEngine(cfg oreo.Config) (*oreo.Optimizer, error) {
	st, verr := s.view()
	if verr != nil {
		return nil, verr
	}
	if s.isClosed() {
		return nil, errUnavailable("table %q is shutting down", s.table)
	}
	cfg.Initial = st.snap.Serving
	cfg.InitialSort = nil
	opt, err := oreo.New(st.ds, cfg)
	if err != nil {
		return nil, fmt.Errorf("serve: rebuilding optimizer for promotion of table %q: %w", s.table, err)
	}
	return opt, nil
}

// promote flips a replica shard to leader mode in place — the
// infallible half. The shard already owns what the transition needs
// (grown base, write tail, epoch), so it only attaches the engine, the
// queue and the consumer: the replicated cumulative counters become the
// stats base. The transition mints the next epoch from the applied
// position.
func (s *shard) promote(opt *oreo.Optimizer, cfg Config) {
	st := s.rep.Load()
	s.obsMu.Lock()
	defer s.obsMu.Unlock()
	if s.obsClosed {
		return // Close won the race: a consumer started now would never be stopped
	}
	s.lead(opt, st.snap.Stats, cfg)
	s.wg.Add(1)
	go s.consume()
}

// observe hands the query to the decision loop — or, on a replica,
// to the upstream forwarder — without blocking: false when the queue
// (or forward buffer) is full or the shard is closing.
func (s *shard) observe(q oreo.Query) bool {
	s.obsMu.RLock()
	defer s.obsMu.RUnlock()
	if s.obsClosed {
		return false
	}
	if s.replica {
		return s.forward != nil && s.forward(q)
	}
	select {
	case s.queue <- shardEvent{kind: evObserve, q: q}:
		return true
	default:
		return false
	}
}

// send enqueues an append or compact event and waits for the
// consumer's acknowledgment. Unlike observations these are never
// sampled out: the send blocks when the queue is full (writers get
// backpressure, reads never do). The obsMu read lock is held only
// across the enqueue — close() cannot close the channel mid-send
// because it needs the write lock, and the consumer keeps draining
// during shutdown, so a blocked send always completes and an enqueued
// event is always acknowledged.
func (s *shard) send(ev shardEvent) (eventAck, *Error) {
	s.obsMu.RLock()
	if s.obsClosed {
		s.obsMu.RUnlock()
		return eventAck{}, errUnavailable("table %q is shutting down", s.table)
	}
	ev.resp = make(chan eventAck, 1)
	//oreovet:ignore blockingsend append/compact writes take deliberate backpressure (see doc above); reads never reach this send and shutdown keeps draining
	s.queue <- ev
	s.obsMu.RUnlock()
	return <-ev.resp, nil
}

// record runs the shared read-path bookkeeping — observation handoff
// and serving counters — and returns whether the query was observed.
func (s *shard) record(q oreo.Query, cost float64) bool {
	observed := s.observe(q)
	if observed {
		s.observed.Add(1)
	} else {
		s.dropped.Add(1)
	}
	s.served.Add(1)
	s.compiles.Add(1)
	s.addCost(cost)
	return observed
}

// combinedCost folds the delta segment into a base-layout cost: the
// delta is unpartitioned, so every query scans it in full — it behaves
// as one extra partition that always survives pruning. The combined
// cost is (survivor row mass + delta rows) / (base rows + delta rows),
// computed from integer masses so leaders and followers at the same
// epoch derive bit-identical floats. With an empty delta the base cost
// is returned untouched, bitwise.
func combinedCost(base float64, survivors []int, part *oreo.Partitioning, deltaRows int) float64 {
	if deltaRows == 0 {
		return base
	}
	mass := 0
	for _, pid := range survivors {
		mass += part.RowsInPartition(pid)
	}
	total := part.TotalRows + deltaRows
	if total == 0 {
		return 0
	}
	return float64(mass+deltaRows) / float64(total)
}

// answer serves one routed query: cost and survivor skip-list from one
// lock-free sweep of a layout snapshot, a live delta riding on the cost
// as an always-surviving extra partition, then the non-blocking
// observation handoff. The (layout, delta) pair is the published
// state's — or, with execute, the execution state's, which may trail it
// but whose blocks are arranged by exactly that layout, so pruning and
// data always agree; the store then scans exactly the survivor
// partitions plus the delta view in full, re-checking predicates per
// row and folding the requested aggregates. Errors are client errors
// (invalid aggregates) or a canceled context, and leave every counter
// untouched.
func (s *shard) answer(ctx context.Context, q oreo.Query, execute bool, aggs []exec.AggSpec) (TableResult, error) {
	st, verr := s.view()
	if verr != nil {
		return TableResult{}, verr
	}
	lay, delta := st.snap.Serving, st.delta
	var store *exec.Store
	if execute {
		// Validate before materializing: on a cold shard the lazy store
		// build is a full second copy of the table, and a request that is
		// going to be rejected must not leave that (permanent) footprint.
		if err := exec.ValidateAggs(s.ds.Schema(), aggs); err != nil {
			return TableResult{}, err
		}
		es := s.execStore()
		lay, delta, store = es.layout, es.delta, es.store
	}
	baseCost, ids := lay.CostSurvivorsSnapshot(q)
	if ids == nil {
		ids = []int{}
	}
	deltaRows := 0
	if delta != nil {
		deltaRows = delta.NumRows()
	}
	res := TableResult{
		Table:              s.table,
		Cost:               combinedCost(baseCost, ids, lay.Part, deltaRows),
		Layout:             lay.Name,
		NumPartitions:      lay.Part.NumPartitions,
		SurvivorPartitions: ids,
		DeltaRows:          deltaRows,
		QueryID:            q.ID,
	}
	if execute {
		scan, err := store.Scan(q, ids, aggs, exec.Options{Context: ctx, Parallelism: s.scanPar, Delta: delta})
		if err != nil {
			return TableResult{}, err
		}
		s.executions.Add(1)
		s.execRows.Add(uint64(scan.RowsExamined))
		s.execCovered.Add(uint64(scan.PartitionsCovered))
		if scan.Workers > 1 {
			s.parallelScans.Add(1)
		}
		res.Execution = &ExecutionJSON{
			MatchedRows:     scan.Matched,
			PartitionsRead:  scan.PartitionsRead,
			PartitionsTotal: lay.Part.NumPartitions,
			RowsExamined:    scan.RowsExamined,
			RowsTotal:       store.TotalRows() + scan.DeltaRows,
			DeltaRows:       scan.DeltaRows,
			Aggregates:      encodeAggs(scan.Aggs),
		}
		// What is in flight is judged against the state published now, not
		// the one the scan started under: the store never runs ahead of it.
		st = s.rep.Load()
	}
	res.Observed = s.record(q, res.Cost)
	res.Reorganizing, res.PendingLayout = st.pending(lay)
	return res, nil
}

// addCost accumulates a served cost into the float-bits counter.
func (s *shard) addCost(c float64) {
	for {
		old := s.costBits.Load()
		if s.costBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+c)) {
			return
		}
	}
}

// stats assembles the shard's stats response from one snapshot. On a
// replica shard the optimizer counters are the leader's, replicated
// with the decision stream; the serving metrics are the replica's own.
func (s *shard) stats() (StatsResponse, error) {
	rst, verr := s.view()
	if verr != nil {
		return StatsResponse{}, verr
	}
	snap := rst.snap
	st := snap.Stats
	memo := snap.Serving.Engine().Stats()
	return StatsResponse{
		Table: s.table,

		Queries:          st.Queries,
		Reorganizations:  st.Reorganizations,
		QueryCost:        st.QueryCost,
		ReorgCost:        st.ReorgCost,
		States:           st.States,
		MaxStates:        st.MaxStates,
		Phases:           st.Phases,
		CompetitiveBound: st.CompetitiveBound,

		MemoHits:    memo.Hits,
		MemoMisses:  memo.Misses,
		MemoEntries: memo.Entries,

		Served:            s.served.Load(),
		Observed:          s.observed.Load(),
		Dropped:           s.dropped.Load(),
		ServedCostSum:     math.Float64frombits(s.costBits.Load()),
		SnapshotCompiles:  s.compiles.Load(),
		Executions:        s.executions.Load(),
		ExecutionRowsRead: s.execRows.Load(),
		QueueDepth:        s.queueDepth(),
		QueueCapacity:     s.queueCap(),

		DeltaRows:    rst.deltaRows(),
		RowsAppended: s.rowsAppended.Load(),
		Compactions:  s.compactions.Load(),
	}, nil
}

// layoutInfo assembles the layout response from one snapshot.
func (s *shard) layoutInfo() (LayoutResponse, error) {
	rst, verr := s.view()
	if verr != nil {
		return LayoutResponse{}, verr
	}
	lay := rst.snap.Serving
	rows := make([]int, lay.Part.NumPartitions)
	for pid := range rows {
		rows[pid] = lay.Part.RowsInPartition(pid)
	}
	res := LayoutResponse{
		Table:         s.table,
		Layout:        lay.Name,
		NumPartitions: lay.Part.NumPartitions,
		TotalRows:     lay.Part.TotalRows,
		PartitionRows: rows,
		DeltaRows:     rst.deltaRows(),
	}
	res.Reorganizing, res.PendingLayout = rst.pending(lay)
	return res, nil
}

// traceEvents returns the decision trace (empty unless the optimizer
// was configured with TraceCapacity). Replica shards run no decisions,
// so their trace is empty by construction — traces are a decision-path
// artifact and live where decisions are made, on the leader. After a
// compaction the trace is the fresh engine's: compaction retires the
// old optimizer, trace and all.
func (s *shard) traceEvents() []TraceEventJSON {
	if s.isReplica() {
		return []TraceEventJSON{}
	}
	events := s.copt.Load().Events()
	out := make([]TraceEventJSON, 0, len(events))
	for _, e := range events {
		out = append(out, TraceEventJSON{
			Seq: e.Seq, Kind: e.Kind.String(), Layout: e.Layout, Detail: e.Detail,
		})
	}
	return out
}
