package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"oreo"
	"oreo/internal/exec"
	"oreo/internal/metrics"
)

// Core is the transport-neutral serving core: one place that owns
// request validation, predicate routing, costing, execution, and the
// observation hand-off into the decision loops. Transports — the HTTP
// codecs in this package (v1 and v2), a future gRPC surface, or an
// embedding process calling it directly — decode bytes into the typed
// request structs, call Core, and encode the typed responses back out.
// No request semantics live in any codec.
//
// A Core runs in one of two roles. A leader (NewCore) owns its tables'
// decision paths: every shard wraps an optimizer, observations drain
// into decision loops, and an attached decision hook (SetDecisionHook)
// sees every processed query — the replication publish point. A
// replica (NewReplicaCore) owns no decisions at all: shard state
// advances by the leader's updates replayed through Apply — the same
// transition the leader runs — and observations are forwarded
// upstream, but the whole read surface — unary, batch, stream,
// execute, layout/stats/trace — answers identically, because it is the
// same code reading the same published snapshot shape.
//
// All failure returns are *Error values carrying an ErrorCode, so a
// transport maps outcomes without parsing message text. Methods taking
// a context honor cancellation between units of work (per query in a
// batch, per partition block in an execution scan); a canceled request
// is abandoned without feeding the decision loop.
//
// Construct with NewCore, or let New build one inside an HTTP Server.
type Core struct {
	names  []string
	shards map[string]*shard
	// leader is the core's role, atomic because Promote flips a running
	// follower to leader while /healthz readers race the flip. A
	// follower reports its upstream on /healthz, a leader cfg.Advertise.
	leader   atomic.Bool
	upstream string
	// promoteMu serializes Promote: two racing callers must not both
	// flip the shards.
	promoteMu sync.Mutex
	// gen is the replication fencing term this core last learned: a
	// leader's own term (set by its publisher), or the newest term a
	// follower applied from the stream. Zero means "no replication
	// attached yet" — a standalone core. Surfaced on /healthz so fencing
	// state is observable with a curl.
	gen atomic.Uint64
	// cfg is the resolved Config the core was built with. It is kept in
	// either role: a promotion leads with it.
	cfg Config
	// reg is the core's metrics registry: every shard, the HTTP codec,
	// and any attached replication component register their instruments
	// here, and GET /metrics scrapes it. One registry per core, so the
	// leader and each follower expose their own truth.
	reg *metrics.Registry
}

// Metrics returns the core's metrics registry — the registration point
// for transports and replication components that instrument themselves
// (internal/replica), and the source GET /metrics encodes.
func (c *Core) Metrics() *metrics.Registry { return c.reg }

// registerCoreMetrics adds the core-scoped (not per-table) series.
func (c *Core) registerCoreMetrics() {
	c.reg.GaugeFunc("oreo_role",
		"Serving role, as a 1-valued gauge labeled with the role name.",
		metrics.Labels{"role": c.Role()}, func() float64 { return 1 })
	c.reg.GaugeFunc("oreo_generation",
		"Replication fencing term: the leader's own term, or the newest term a follower applied. 0 with no replication attached.",
		nil, func() float64 { return float64(c.gen.Load()) })
	c.reg.GaugeFunc("oreo_scan_parallelism",
		"Worker count execute-path scans run with (Config.ScanParallelism after defaulting).",
		nil, func() float64 { return float64(c.cfg.ScanParallelism) })
}

// NewCore builds a serving core over the registered tables. The
// MultiOptimizer (and its per-table Optimizers) must not be used
// directly afterwards: every shard owns its table's decision path.
func NewCore(m *oreo.MultiOptimizer, cfg Config) (*Core, error) {
	names := m.Tables()
	if len(names) == 0 {
		return nil, errInvalid("serve: no tables registered")
	}
	cfg, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	c := &Core{
		names:  names,
		shards: make(map[string]*shard, len(names)),
		cfg:    cfg,
		reg:    metrics.NewRegistry(),
	}
	c.leader.Store(true)
	c.registerCoreMetrics()
	for _, name := range names {
		c.shards[name] = newShard(name, m.Dataset(name), m.Optimizer(name), cfg, c.reg)
	}
	return c, nil
}

// ReplicaTable describes one table served by a replica core: the local
// copy of the data and the function observations are forwarded
// upstream through (nil drops them; false return means dropped, and
// the shard counts it).
type ReplicaTable struct {
	Name    string
	Dataset *oreo.Dataset
	Forward func(oreo.Query) bool
}

// NewReplicaCore builds a core in replica mode: the same serving
// surface as NewCore, but with no optimizers and no decision loops —
// per-table state arrives through Apply (driven by a replication
// follower, see internal/replica) and every table answers unavailable
// until its first snapshot lands. upstream is the leader URL it
// follows, surfaced on /healthz. cfg is resolved and validated here in
// full, leader knobs included: Promote leads with it.
func NewReplicaCore(tables []ReplicaTable, upstream string, cfg Config) (*Core, error) {
	if len(tables) == 0 {
		return nil, errInvalid("serve: no tables registered")
	}
	cfg, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	c := &Core{
		shards:   make(map[string]*shard, len(tables)),
		upstream: upstream,
		cfg:      cfg,
		reg:      metrics.NewRegistry(),
	}
	c.registerCoreMetrics()
	for _, t := range tables {
		if t.Name == "" {
			return nil, errInvalid("serve: empty replica table name")
		}
		if t.Dataset == nil {
			return nil, errInvalid("serve: replica table %q has no dataset", t.Name)
		}
		if _, dup := c.shards[t.Name]; dup {
			return nil, errInvalid("serve: replica table %q registered twice", t.Name)
		}
		c.names = append(c.names, t.Name)
		c.shards[t.Name] = newReplicaShard(t.Name, t.Dataset, t.Forward, cfg.ScanParallelism, c.reg)
	}
	return c, nil
}

// Role names for HealthResponse.Role.
const (
	RoleLeader   = "leader"
	RoleFollower = "follower"
)

// Tables returns the served table names in registration order.
func (c *Core) Tables() []string { return append([]string(nil), c.names...) }

// Role reports whether this core is a leader or a replica follower.
func (c *Core) Role() string {
	if c.leader.Load() {
		return RoleLeader
	}
	return RoleFollower
}

// SetGeneration records the replication fencing term this core serves
// under: a publisher sets the leader's own term, a replication follower
// the newest term it applied from the stream. Surfaced on /healthz.
func (c *Core) SetGeneration(gen uint64) { c.gen.Store(gen) }

// Generation returns the last recorded fencing term (0 when no
// replication component has attached).
func (c *Core) Generation() uint64 { return c.gen.Load() }

// Close shuts the shards down gracefully: observation queues stop
// accepting, their consumers drain what was already queued, and the
// call returns when every decision loop is quiet. Call after the
// transport has stopped accepting requests. Idempotent — a host that
// closes both its server and its replication follower must not panic
// on the second pass.
func (c *Core) Close() {
	for _, name := range c.names {
		c.shards[name].close()
	}
}

// Snapshot returns the named table's current published snapshot. ok is
// false for unknown tables and for replica tables that have not
// applied a snapshot yet.
func (c *Core) Snapshot(table string) (oreo.OptimizerSnapshot, bool) {
	pos, ok := c.ReplicaPosition(table)
	return pos.Snapshot, ok
}

// Position is one table's coherent replication position: the monotonic
// epoch, the snapshot published at exactly that epoch, the partitioned
// base dataset the snapshot's layouts describe, the live delta tail
// (nil when empty), and the row count of the table's boot source that
// persistence frames tails against. Everything was true at the same
// instant — epochs cover data and layout alike.
type Position struct {
	Epoch    uint64
	Snapshot oreo.OptimizerSnapshot
	// Dataset is the current partitioned base (grown past the boot
	// source by compactions, if any).
	Dataset *oreo.Dataset
	// Delta is the immutable live-tail view as of Epoch; nil ≡ empty.
	Delta *oreo.Dataset
	// SeedRows is the boot source's row count: the stable prefix snapshot
	// records frame appended rows against (persist.DataDoc.BootRows). A
	// table's boot dataset is its boot source on every path to leadership.
	SeedRows int
}

// ReplicaPosition returns the named table's replication position. On a
// leader this is what a replication publisher snapshots for a new
// subscriber; on a follower it is the applied position. ok is false for unknown tables and replica
// tables with no snapshot yet.
func (c *Core) ReplicaPosition(table string) (Position, bool) {
	sh, found := c.shards[table]
	if !found {
		return Position{}, false
	}
	st, err := sh.view()
	if err != nil {
		return Position{}, false
	}
	return Position{Epoch: st.epoch, Snapshot: st.snap, Dataset: st.ds, Delta: st.delta, SeedRows: sh.ds.NumRows()}, true
}

// Apply advances the named replica table by one update replayed from
// the leader's stream — the follower's write path, through the same
// transition the leader's own consumer runs (see shard). applied is
// false, with no error, for an update at or below the table's epoch:
// overlap after a re-snapshot. Errors leave the state untouched and
// wrap ErrEpochGap or ErrDiverged where a follower must tell them
// apart. Fails on leaders, whose state advances only through their own
// appends and event loops.
func (c *Core) Apply(table string, upd DecisionUpdate) (applied bool, err error) {
	sh, ok := c.shards[table]
	if !ok {
		return false, errNotFound("unknown table %q", table)
	}
	if !sh.isReplica() {
		return false, errInvalid("table %q is not a replica", table)
	}
	if upd.Kind != UpdateSnapshot && upd.Epoch == 0 {
		// Epoch zero asks the transition to mint the next epoch; only the
		// deciding side may.
		return false, errInvalid("replayed %s update for %q carries no epoch", upd.Kind, table)
	}
	sh.advMu.Lock()
	_, applied, err = sh.advance(upd)
	sh.advMu.Unlock()
	if err != nil {
		return false, fmt.Errorf("applying %s update to %q: %w", upd.Kind, table, err)
	}
	return applied, nil
}

// Promote flips a replica core to leader role in place: per table, a
// fresh optimizer is built over the replicated base with the replicated
// serving layout as its initial state, the replicated cumulative
// counters become the stats base (published stats stay monotone across
// the role flip, exactly as they do across a compaction's engine
// rebuild), and an event consumer starts over the base and write tail
// the replica shard already owns — the epoch counter continues from the
// applied position, so the promoted leader's stream extends the old
// leader's log rather than restarting it.
//
// The caller must have detached the replication follower first
// (replica.Follower.Detach): promotion and a concurrent Apply would
// both own the published state. Every table must have applied a
// snapshot; promotion is all-or-nothing — every table's engine is built
// before any shard flips — and an error leaves the core a follower.
// After a successful promotion the core accepts writes, observations,
// and a replication publisher exactly like a NewCore leader, under the
// Config it was built with (queue size, compaction threshold,
// advertised URL).
//
// engines maps every served table to the optimizer configuration its
// new decision engine is built with (Initial and InitialSort are
// overridden — the replicated serving layout IS the initial state). A
// leader cannot run half its tables without a decision path, so a
// missing table is an error.
func (c *Core) Promote(engines map[string]oreo.Config) error {
	c.promoteMu.Lock()
	defer c.promoteMu.Unlock()
	if c.Role() != RoleFollower {
		return errInvalid("serve: promote requires a follower core, got role %q", c.Role())
	}
	// Everything that can fail happens before any shard is touched: a
	// half-promoted core would serve some tables as leader and some as
	// follower.
	opts := make([]*oreo.Optimizer, len(c.names))
	for i, name := range c.names {
		ec, ok := engines[name]
		if !ok {
			return errInvalid("serve: promote config missing table %q", name)
		}
		var err error
		if opts[i], err = c.shards[name].promotionEngine(ec); err != nil {
			return err
		}
	}
	for i, name := range c.names {
		c.shards[name].promote(opts[i], c.cfg)
	}
	c.leader.Store(true)
	// The role gauge follows the flip: retire the follower-labeled
	// series, register the leader-labeled one.
	c.reg.Unregister("oreo_role", metrics.Labels{"role": RoleFollower})
	c.reg.GaugeFunc("oreo_role",
		"Serving role, as a 1-valued gauge labeled with the role name.",
		metrics.Labels{"role": RoleLeader}, func() float64 { return 1 })
	return nil
}

// SetDecisionHook attaches fn to every table's state changes: it is
// called after each processed query, append and compaction with the
// table name and the update as applied, serialized per table (by the
// lock every change to the table's state takes, whichever goroutine
// makes it) but concurrent across tables. This is the replication
// publish point. Safe to call on a running core; pass nil to detach.
func (c *Core) SetDecisionHook(fn func(table string, upd DecisionUpdate)) {
	for _, name := range c.names {
		if fn == nil {
			c.shards[name].onDecision.Store(nil)
		} else {
			f := fn
			c.shards[name].onDecision.Store(&f)
		}
	}
}

// Observe injects one query into the named table's decision loop
// without serving it — the landing point for observations forwarded by
// replica followers, so queries answered at the edge still teach the
// leader's optimizer. Non-blocking: false means the queue was full and
// the observation was sampled out (counted in Dropped). Predicates
// must name columns of the table's schema; violations are errors, not
// silent drops, exactly as on the serving path.
func (c *Core) Observe(table string, q oreo.Query) (bool, error) {
	sh, ok := c.shards[table]
	if !ok {
		return false, errNotFound("unknown table %q", table)
	}
	if sh.isReplica() {
		return false, errInvalid("table %q is a replica; observations belong on the leader", table)
	}
	if len(q.Preds) == 0 {
		return false, errInvalid("observation has no predicates")
	}
	schema := sh.ds.Schema()
	for _, p := range q.Preds {
		if _, ok := schema.Index(p.Col); !ok {
			return false, errInvalid("table %q has no column %q", table, p.Col)
		}
	}
	observed := sh.observe(q)
	if observed {
		sh.observed.Add(1)
	} else {
		sh.dropped.Add(1)
	}
	return observed, nil
}

// Answer resolves one decoded query to per-table results. With an
// explicit table, every predicate must name a column of that table's
// schema; with routing, every predicate must land on at least one
// table. Violations are client errors, not silent drops — a serving
// API must not quietly answer a different question than it was asked.
// The same discipline applies to execution aggregates: a requested
// aggregate whose column no queried table has is an error, never a
// silently missing result.
func (c *Core) Answer(ctx context.Context, req QueryRequest) ([]TableResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, errCanceled(err)
	}
	q, err := decodeQuery(req)
	if err != nil {
		return nil, errInvalid("%s", err)
	}
	if len(q.Preds) == 0 {
		// A predicate-free query is a full scan on every layout; it
		// carries no signal for reorganization (Route excludes such
		// queries for exactly that reason) and is almost certainly a
		// client bug. Reject it in both addressing modes.
		return nil, errInvalid("query has no predicates")
	}
	var aggs []exec.AggSpec
	if req.Execute {
		if aggs, err = decodeAggs(req.Aggs); err != nil {
			return nil, errInvalid("%s", err)
		}
	} else if len(req.Aggs) > 0 {
		return nil, errInvalid("aggs require execute")
	}

	if req.Table != "" {
		sh, ok := c.shards[req.Table]
		if !ok {
			return nil, errNotFound("unknown table %q", req.Table)
		}
		schema := sh.ds.Schema()
		for _, p := range q.Preds {
			if _, ok := schema.Index(p.Col); !ok {
				return nil, errInvalid("table %q has no column %q", req.Table, p.Col)
			}
		}
		res, err := sh.answer(ctx, q, req.Execute, aggs)
		if err != nil {
			return nil, coreErr(err)
		}
		return []TableResult{res}, nil
	}

	routed, unrouted := c.route(q)
	if len(unrouted) > 0 {
		return nil, errInvalid("no table has column %q", unrouted[0])
	}
	var perTableAggs map[string][]exec.AggSpec
	if req.Execute {
		var err error
		if perTableAggs, err = c.routeAggs(aggs, routed); err != nil {
			return nil, coreErr(err)
		}
	}
	out := make([]TableResult, 0, len(routed))
	for _, name := range c.names {
		sub, touched := routed[name]
		if !touched {
			continue
		}
		res, err := c.shards[name].answer(ctx, sub, req.Execute, perTableAggs[name])
		if err != nil {
			return nil, coreErr(err)
		}
		out = append(out, res)
	}
	return out, nil
}

// route splits the query's predicates by table over the core's own
// shard registry — the one shared routing rule (oreo.RouteQuery), so
// replica cores, which have no MultiOptimizer at all, route
// bit-identically to their leader.
func (c *Core) route(q oreo.Query) (routed map[string]oreo.Query, unrouted []string) {
	return oreo.RouteQuery(q, c.names, func(name string) *oreo.Schema { return c.shards[name].ds.Schema() })
}

// Batch answers many queries in one call with the partial-failure
// contract: a bad query fails its item, never the batch. The only
// whole-batch failures are an empty request and a canceled context —
// cancellation is checked between items, so a transport whose client
// disconnected stops burning shard time mid-batch.
func (c *Core) Batch(ctx context.Context, req BatchRequest) (BatchResponse, error) {
	if len(req.Queries) == 0 {
		return BatchResponse{}, errInvalid("empty batch")
	}
	resp := BatchResponse{Results: make([]BatchItem, 0, len(req.Queries))}
	for i, qr := range req.Queries {
		if err := ctx.Err(); err != nil {
			return BatchResponse{}, errCanceled(err)
		}
		item := BatchItem{Index: i, ID: qr.ID}
		results, err := c.Answer(ctx, qr)
		if err != nil {
			item.Error = err.Error()
		} else {
			item.Results = results
		}
		resp.Results = append(resp.Results, item)
	}
	return resp, nil
}

// Layout reports the named table's serving layout and partition sizes.
func (c *Core) Layout(table string) (LayoutResponse, error) {
	sh, ok := c.shards[table]
	if !ok {
		return LayoutResponse{}, errNotFound("unknown table %q", table)
	}
	res, err := sh.layoutInfo()
	if err != nil {
		return LayoutResponse{}, err
	}
	return res, nil
}

// Stats reports the named table's optimizer counters, memo
// effectiveness, and shard serving metrics from one snapshot.
func (c *Core) Stats(table string) (StatsResponse, error) {
	sh, ok := c.shards[table]
	if !ok {
		return StatsResponse{}, errNotFound("unknown table %q", table)
	}
	res, err := sh.stats()
	if err != nil {
		return StatsResponse{}, err
	}
	return res, nil
}

// Trace reports the named table's decision trace (empty unless the
// optimizer was configured with TraceCapacity; always empty on a
// replica, which runs no decisions).
func (c *Core) Trace(table string) (TraceResponse, error) {
	sh, ok := c.shards[table]
	if !ok {
		return TraceResponse{}, errNotFound("unknown table %q", table)
	}
	return TraceResponse{Table: sh.table, Events: sh.traceEvents()}, nil
}

// Health reports liveness, role, per-table layout epochs, and the
// cross-table serving totals.
func (c *Core) Health() HealthResponse {
	names := append([]string(nil), c.names...)
	sort.Strings(names)
	resp := HealthResponse{
		Status:          "ok",
		Role:            RoleFollower,
		Generation:      c.gen.Load(),
		Upstream:        c.upstream,
		Tables:          names,
		LayoutEpochs:    make(map[string]uint64, len(names)),
		DeltaRows:       make(map[string]int, len(names)),
		ScanParallelism: c.cfg.ScanParallelism,
	}
	if c.leader.Load() {
		resp.Role, resp.Upstream, resp.Advertise = RoleLeader, "", c.cfg.Advertise
	}
	for _, name := range names {
		sh := c.shards[name]
		resp.ParallelScans += sh.parallelScans.Load()
		// Shard counters are the serving truth: they count every
		// answered request, including the ones overload sampled out of
		// the decision loop. The decision-loop total (Queries) is kept
		// alongside, explicitly labeled — summing only it undercounts
		// under load, the exact bug this endpoint used to have.
		resp.Served += sh.served.Load()
		resp.Observed += sh.observed.Load()
		resp.Dropped += sh.dropped.Load()
		// QueueDepth closes the accounting identity between the two
		// counter families: Observed = Queries + QueueDepth at any
		// instant (observations enqueued = processed + still waiting), so
		// a reader can tell "decision loop behind" from "counter drift".
		resp.QueueDepth += sh.queueDepth()
		st, err := sh.view()
		if err != nil {
			// A replica table still waiting for its first snapshot: the
			// process is up but not serving this table yet.
			resp.Status = "initializing"
			resp.LayoutEpochs[name] = 0
			resp.DeltaRows[name] = 0
			continue
		}
		resp.Queries += st.snap.Stats.Queries
		resp.LayoutEpochs[name] = st.epoch
		resp.DeltaRows[name] = st.deltaRows()
	}
	return resp
}

// routeAggs narrows the aggregates to each queried table (counts apply
// everywhere, column aggregates only where the column exists) and
// validates the whole routing: every column-bearing aggregate must land
// on at least one queried table (mirroring the unrouted-predicate rule)
// and each narrowed list must be legal for its table's schema. Running
// the full validation up front means a bad aggregate fails the request
// before *any* shard has executed, counted, or fed its decision loop —
// partial side effects on a 400 would skew metrics and teach the
// optimizer from a query that was never answered.
func (c *Core) routeAggs(aggs []exec.AggSpec, routed map[string]oreo.Query) (map[string][]exec.AggSpec, error) {
	perTable := make(map[string][]exec.AggSpec, len(routed))
	landed := make([]bool, len(aggs))
	for name := range routed {
		schema := c.shards[name].ds.Schema()
		narrowed := make([]exec.AggSpec, 0, len(aggs))
		for i, a := range aggs {
			if a.Op != exec.AggCount {
				if _, ok := schema.Index(a.Col); !ok {
					continue
				}
			}
			narrowed = append(narrowed, a)
			landed[i] = true
		}
		if err := exec.ValidateAggs(schema, narrowed); err != nil {
			return nil, errInvalid("%s", err)
		}
		perTable[name] = narrowed
	}
	for i, ok := range landed {
		if !ok {
			return nil, errInvalid("no queried table has aggregate column %q", aggs[i].Col)
		}
	}
	return perTable, nil
}

// coreErr wraps an error from a lower layer as a typed *Error,
// preserving one that already is. Execution-path failures (invalid
// aggregates, canceled scans) surface through here.
func coreErr(err error) *Error {
	if e, ok := err.(*Error); ok {
		return e
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return errCanceled(err)
	}
	return errInvalid("%s", err)
}
