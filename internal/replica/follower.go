package replica

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"oreo"
	"oreo/internal/metrics"
	"oreo/internal/serve"
	"oreo/internal/table"
)

// Follower defaults.
const (
	DefaultForwardQueue    = 4096
	DefaultForwardBatch    = 256
	DefaultForwardInterval = 200 * time.Millisecond
	DefaultReconnectMin    = 100 * time.Millisecond
	DefaultReconnectMax    = 5 * time.Second

	// maxStreamLine caps one decision-stream line. Snapshot records
	// carry the layout RLE and statistics block, which grow with table
	// size; 256 MiB covers hundreds of millions of rows while still
	// bounding a runaway line.
	maxStreamLine = 256 << 20
)

// TableData names one table a follower serves and the follower's local
// copy of its rows. The data must be byte-identical to the leader's —
// the snapshot's statistics block verifies this and replication fails
// loudly on a mismatch.
type TableData struct {
	Name    string
	Dataset *oreo.Dataset
}

// FollowerConfig parameterizes a Follower.
type FollowerConfig struct {
	// Upstream is the leader's base URL (scheme + host[:port]).
	Upstream string
	// Tables are the tables to replicate and serve; they must all be
	// served by the leader.
	Tables []TableData
	// HTTPClient substitutes the transport (custom timeouts, TLS). The
	// default is a dedicated client with no global timeout — the
	// subscription stream is long-lived by design.
	HTTPClient *http.Client
	// ForwardQueue bounds the observation-forwarding buffer; zero
	// selects DefaultForwardQueue, negative disables forwarding
	// entirely (answers are still served; the leader just never sees
	// this follower's traffic).
	ForwardQueue int
	// ForwardBatch is how many observations one upstream POST carries
	// at most; zero selects DefaultForwardBatch.
	ForwardBatch int
	// ForwardInterval bounds how long a partial batch waits before
	// being flushed; zero selects DefaultForwardInterval.
	ForwardInterval time.Duration
	// ReconnectMin/Max bound the exponential backoff between
	// subscription attempts; zeros select the defaults.
	ReconnectMin time.Duration
	ReconnectMax time.Duration
	// Logf receives operational messages; nil selects log.Printf.
	Logf func(format string, args ...any)
	// ScanParallelism is the execute-path scan worker count of the
	// replica core; zero selects runtime.NumCPU() (see
	// serve.CoreConfig.ScanParallelism).
	ScanParallelism int
	// ArchiveDir, when set, bootstraps the follower from a local
	// decision-log archive (written by an Archiver) before the first
	// subscription: every archived record is replayed through the normal
	// apply path, so the follower reaches the archive's tail epoch
	// offline and then resubscribes with those positions — the leader
	// answers with a cheap resume instead of a full re-snapshot.
	ArchiveDir string
}

// FollowerStats is a point-in-time view of a follower's replication
// and forwarding counters.
type FollowerStats struct {
	// Snapshots / Decisions / Resumes count applied records; Gaps
	// counts epoch discontinuities that forced a reconnect, and
	// Reconnects the subscription attempts after the first.
	Snapshots  uint64
	Decisions  uint64
	Resumes    uint64
	Gaps       uint64
	Reconnects uint64
	// Appends / Compactions count applied live-write records: append
	// batches extended into the local delta copy, and delta folds
	// rebuilt into a grown local base.
	Appends     uint64
	Compactions uint64
	// Forwarded / ForwardDropped / ForwardRejected count upstream
	// observation outcomes (ForwardDropped includes local queue
	// overflow and failed upstream posts).
	Forwarded       uint64
	ForwardDropped  uint64
	ForwardRejected uint64
}

// Follower is the replica half of replication: it subscribes to a
// leader's decision stream, applies every record to a replica
// serve.Core (which serves the full read surface bit-identically to
// the leader at the same epoch), and forwards answered queries back
// upstream. Construct with NewFollower, mount Core() behind a
// transport, WaitReady before advertising, Close on shutdown.
type Follower struct {
	cfg  FollowerConfig
	core *serve.Core
	hc   *http.Client
	fwd  *forwarder // nil when forwarding is disabled
	logf func(format string, args ...any)

	datasets map[string]*oreo.Dataset
	names    []string

	mu sync.Mutex
	// gen is the highest leadership fencing term this follower has
	// applied (0 before the first stream record). It is echoed on
	// resubscription and mirrored into the core for /healthz; a stream
	// regressing below it is a deposed leader and is fenced terminally.
	gen uint64
	// boot is the boot ID of the publisher the applied state came from
	// ("" before the first snapshot or resume). Echoed on
	// resubscription: resume is only offered when the upstream is the
	// same process life the positions were applied from.
	boot      string
	positions map[string]uint64
	layouts   map[string]*oreo.Layout
	applied   map[string]bool
	// bases and deltas are the follower's local copies of each table's
	// partitioned base (grown past the boot dataset by applied
	// compactions) and uncompacted live tail — a table.Delta, as on the
	// leader's shard, so an append costs its own rows and not a copy of
	// the tail so far. Snapshot records reset both; append records
	// extend the delta; compact records fold the delta into the base.
	// Layout records bind against bases, never the boot dataset — a
	// switch after a compaction describes the grown row set. Deltas are
	// mutated only by the goroutine applying records.
	bases  map[string]*oreo.Dataset
	deltas map[string]*table.Delta
	// seen is the newest epoch decoded off the stream per table, ahead
	// of apply: seen minus positions is the follower-side replication
	// lag gauge — nonzero exactly while an apply (a store rebuild, say)
	// is in flight behind freshly arrived records.
	seen map[string]uint64

	ready     chan struct{}
	readyOnce sync.Once
	failed    chan struct{}
	failOnce  sync.Once
	failErr   error

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	stats struct {
		snapshots, decisions, resumes, gaps, reconnects atomicUint64
		appends, compactions                            atomicUint64
	}
}

// NewFollower builds a follower and starts its replication loop. The
// returned follower's Core answers unavailable until the first
// snapshot lands (WaitReady blocks for that); it is usable behind
// serve.NewServer immediately.
func NewFollower(cfg FollowerConfig) (*Follower, error) {
	u, err := url.Parse(cfg.Upstream)
	if err != nil {
		return nil, fmt.Errorf("replica: parsing upstream URL: %w", err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("replica: upstream URL %q must be http or https", cfg.Upstream)
	}
	if len(cfg.Tables) == 0 {
		return nil, fmt.Errorf("replica: no tables to replicate")
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = &http.Client{}
	}
	if cfg.ForwardQueue == 0 {
		cfg.ForwardQueue = DefaultForwardQueue
	}
	if cfg.ForwardBatch <= 0 {
		cfg.ForwardBatch = DefaultForwardBatch
	}
	if cfg.ForwardInterval <= 0 {
		cfg.ForwardInterval = DefaultForwardInterval
	}
	if cfg.ReconnectMin <= 0 {
		cfg.ReconnectMin = DefaultReconnectMin
	}
	if cfg.ReconnectMax <= 0 {
		cfg.ReconnectMax = DefaultReconnectMax
	}
	cfg.Upstream = strings.TrimRight(u.String(), "/")

	f := &Follower{
		cfg:       cfg,
		hc:        cfg.HTTPClient,
		logf:      cfg.Logf,
		datasets:  make(map[string]*oreo.Dataset, len(cfg.Tables)),
		positions: make(map[string]uint64, len(cfg.Tables)),
		layouts:   make(map[string]*oreo.Layout, len(cfg.Tables)),
		applied:   make(map[string]bool, len(cfg.Tables)),
		bases:     make(map[string]*oreo.Dataset, len(cfg.Tables)),
		deltas:    make(map[string]*table.Delta, len(cfg.Tables)),
		seen:      make(map[string]uint64, len(cfg.Tables)),
		ready:     make(chan struct{}),
		failed:    make(chan struct{}),
	}
	f.ctx, f.cancel = context.WithCancel(context.Background())

	if cfg.ForwardQueue > 0 {
		f.fwd = newForwarder(f.ctx, cfg.Upstream, f.hc, cfg.ForwardQueue, cfg.ForwardBatch, cfg.ForwardInterval, cfg.Logf, f.Generation, &f.wg)
	}

	replicaTables := make([]serve.ReplicaTable, 0, len(cfg.Tables))
	for _, t := range cfg.Tables {
		if t.Name == "" || t.Dataset == nil {
			return nil, fmt.Errorf("replica: table entry missing name or dataset")
		}
		if _, dup := f.datasets[t.Name]; dup {
			return nil, fmt.Errorf("replica: table %q listed twice", t.Name)
		}
		f.datasets[t.Name] = t.Dataset
		f.names = append(f.names, t.Name)
		name := t.Name
		var forward func(oreo.Query) bool
		if f.fwd != nil {
			forward = func(q oreo.Query) bool { return f.fwd.enqueue(name, q) }
		}
		replicaTables = append(replicaTables, serve.ReplicaTable{Name: name, Dataset: t.Dataset, Forward: forward})
	}
	core, err := serve.NewReplicaCore(replicaTables, serve.CoreConfig{Upstream: cfg.Upstream, ScanParallelism: cfg.ScanParallelism})
	if err != nil {
		f.cancel()
		return nil, fmt.Errorf("replica: building replica core: %w", err)
	}
	f.core = core
	f.registerMetrics()

	if cfg.ArchiveDir != "" {
		if err := f.bootstrapFromArchive(cfg.ArchiveDir); err != nil {
			f.cancel()
			core.Close()
			return nil, fmt.Errorf("replica: bootstrapping from archive %s: %w", cfg.ArchiveDir, err)
		}
	}

	f.wg.Add(1)
	go f.run()
	return f, nil
}

// bootstrapFromArchive replays an on-disk decision-log archive through
// the normal apply path, before the subscription loop starts (so no
// locking against it is needed). Records for tables this follower does
// not serve are skipped; everything else goes through the same epoch
// and fencing discipline as live stream records, so a corrupt or
// divergent archive fails construction loudly rather than seeding bad
// state.
func (f *Follower) bootstrapFromArchive(dir string) error {
	n, err := ReplayArchive(dir, func(rec *Record) error {
		if _, ok := f.datasets[rec.Table]; !ok && rec.Table != "" {
			return nil
		}
		if rec.Epoch > 0 && rec.Table != "" {
			f.mu.Lock()
			if rec.Epoch > f.seen[rec.Table] {
				f.seen[rec.Table] = rec.Epoch
			}
			f.mu.Unlock()
		}
		return f.apply(rec)
	})
	if err != nil {
		return err
	}
	f.logf("replica: bootstrapped from archive %s: %d records, positions %v", dir, n, f.snapshotPositions())
	return nil
}

// snapshotPositions returns a copy of the applied positions, for logs.
func (f *Follower) snapshotPositions() map[string]uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]uint64, len(f.positions))
	for t, e := range f.positions {
		out[t] = e
	}
	return out
}

// Core returns the replica serving core, for mounting behind a
// transport (serve.NewServer) or answering in-process requests.
func (f *Follower) Core() *serve.Core { return f.core }

// counterLoad adapts an atomic counter to the float64 callback shape
// metrics.Registry.CounterFunc wants.
func counterLoad(c *atomicUint64) func() float64 {
	return func() float64 { return float64(c.Load()) }
}

// registerMetrics publishes the follower's replication counters on the
// replica core's registry, so one GET /metrics on a follower covers
// both its serving surface and its replication health. Names are
// disjoint from the leader's publisher metrics except
// oreo_replication_lag_epochs, which intentionally means "how far
// behind" on both sides: stream records decoded but not yet applied
// here, enqueue backlog there.
func (f *Follower) registerMetrics() {
	reg := f.core.Metrics()
	reg.CounterFunc("oreo_replication_snapshots_applied_total",
		"Snapshot records applied from the leader's decision stream.",
		nil, counterLoad(&f.stats.snapshots))
	reg.CounterFunc("oreo_replication_decisions_applied_total",
		"Decision records applied from the leader's decision stream.",
		nil, counterLoad(&f.stats.decisions))
	reg.CounterFunc("oreo_replication_resumes_total",
		"Resume acknowledgements received on reconnect.",
		nil, counterLoad(&f.stats.resumes))
	reg.CounterFunc("oreo_replication_gaps_total",
		"Epoch discontinuities that forced a reconnect.",
		nil, counterLoad(&f.stats.gaps))
	reg.CounterFunc("oreo_replication_reconnects_total",
		"Subscription attempts after the first.",
		nil, counterLoad(&f.stats.reconnects))
	reg.CounterFunc("oreo_replication_appends_applied_total",
		"Append records applied from the leader's stream (live-write batches extended into the local delta).",
		nil, counterLoad(&f.stats.appends))
	reg.CounterFunc("oreo_replication_compactions_applied_total",
		"Compact records applied from the leader's stream (delta folds rebuilt into the local base).",
		nil, counterLoad(&f.stats.compactions))
	if f.fwd != nil {
		reg.CounterFunc("oreo_replication_forwarded_total",
			"Observations forwarded upstream to the leader.",
			nil, counterLoad(&f.fwd.forwarded))
		reg.CounterFunc("oreo_replication_forward_dropped_total",
			"Observations lost to forward-queue overflow or failed upstream posts.",
			nil, counterLoad(&f.fwd.dropped))
		reg.CounterFunc("oreo_replication_forward_rejected_total",
			"Forwarded observations the leader rejected.",
			nil, counterLoad(&f.fwd.rejected))
		reg.GaugeFunc("oreo_replication_forward_queue_depth",
			"Observations waiting in the forward queue.",
			nil, func() float64 { return float64(len(f.fwd.ch)) })
	}
	for _, t := range f.names {
		table := t
		reg.GaugeFunc("oreo_replication_lag_epochs",
			"Follower-side replication lag: the newest epoch decoded off the stream minus the last applied epoch for this table.",
			metrics.Labels{"table": table}, func() float64 {
				f.mu.Lock()
				seen, applied := f.seen[table], f.positions[table]
				f.mu.Unlock()
				if seen <= applied {
					return 0
				}
				return float64(seen - applied)
			})
	}
}

// WaitReady blocks until every replicated table has applied its first
// snapshot, the follower has failed terminally (data divergence), or
// the context ends.
func (f *Follower) WaitReady(ctx context.Context) error {
	select {
	case <-f.ready:
		return nil
	case <-f.failed:
		return f.failErr
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Err returns the terminal replication failure, if any: a follower
// whose data diverges from the leader's stops replicating and reports
// it here (and through WaitReady).
func (f *Follower) Err() error {
	select {
	case <-f.failed:
		return f.failErr
	default:
		return nil
	}
}

// Position returns the last applied epoch for the table.
func (f *Follower) Position(table string) uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.positions[table]
}

// Generation returns the highest leadership fencing term this follower
// has applied from the stream (0 before the first record).
func (f *Follower) Generation() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.gen
}

// Stats returns the follower's replication and forwarding counters.
func (f *Follower) Stats() FollowerStats {
	st := FollowerStats{
		Snapshots:   f.stats.snapshots.Load(),
		Decisions:   f.stats.decisions.Load(),
		Resumes:     f.stats.resumes.Load(),
		Gaps:        f.stats.gaps.Load(),
		Reconnects:  f.stats.reconnects.Load(),
		Appends:     f.stats.appends.Load(),
		Compactions: f.stats.compactions.Load(),
	}
	if f.fwd != nil {
		st.Forwarded = f.fwd.forwarded.Load()
		st.ForwardDropped = f.fwd.dropped.Load()
		st.ForwardRejected = f.fwd.rejected.Load()
	}
	return st
}

// Close stops the replication and forwarding loops and closes the
// replica core. Idempotent; safe to combine with a Server.Close over
// the same core.
func (f *Follower) Close() {
	f.cancel()
	f.wg.Wait()
	f.core.Close()
}

// Detach stops the replication and forwarding loops but leaves the
// replica core open and serving — the promotion hand-off. After Detach
// returns, nothing writes the core's replicated state anymore, so
// Core().Promote can take ownership of it; Close afterwards remains
// safe (the second cancel and wait are no-ops and the core close is
// what actually tears serving down).
func (f *Follower) Detach() {
	f.cancel()
	f.wg.Wait()
}

// fail records a terminal replication failure.
func (f *Follower) fail(err error) {
	f.failOnce.Do(func() {
		f.failErr = err
		close(f.failed)
	})
	f.logf("replica: follower stopped: %v", err)
}

// errDiverged marks failures that retrying cannot fix.
var errDiverged = errors.New("replica: follower data diverges from leader")

// errRejected marks subscriptions the leader permanently refuses — an
// unknown table, a protocol-version mismatch, or an upstream that does
// not serve replication at all. Retrying cannot fix a rejection, so it
// is terminal like a divergence; transient upstream trouble (refused
// connections, 5xx from a booting proxy) stays retryable.
var errRejected = errors.New("replica: subscription rejected by leader")

// errFenced marks a stream whose leadership term regressed below what
// this follower has already applied: the upstream is a deposed leader
// (typically a revived process that lost a promotion race). Applying
// its records would silently fork the fleet's history, so fencing is
// terminal — the follower must be repointed at the real leader.
var errFenced = errors.New("replica: stream fenced (upstream generation is older than applied state)")

// run is the subscription loop: subscribe, apply until the stream
// breaks, back off, repeat. Only a divergence failure is terminal.
func (f *Follower) run() {
	defer f.wg.Done()
	backoff := f.cfg.ReconnectMin
	first := true
	for {
		if f.ctx.Err() != nil {
			return
		}
		if !first {
			f.stats.reconnects.Add(1)
		}
		applied, err := f.subscribeOnce()
		if f.ctx.Err() != nil {
			return
		}
		if err != nil && (errors.Is(err, errDiverged) || errors.Is(err, errRejected) || errors.Is(err, errFenced)) {
			f.fail(err)
			return
		}
		if err != nil {
			f.logf("replica: subscription to %s ended: %v (retrying in %v)", f.cfg.Upstream, err, backoff)
		} else {
			f.logf("replica: subscription to %s closed (retrying in %v)", f.cfg.Upstream, backoff)
		}
		// A session that applied records earned a fresh backoff; a
		// session that failed straight away backs off harder.
		if applied > 0 {
			backoff = f.cfg.ReconnectMin
		} else if backoff *= 2; backoff > f.cfg.ReconnectMax {
			backoff = f.cfg.ReconnectMax
		}
		first = false
		select {
		case <-f.ctx.Done():
			return
		case <-time.After(backoff):
		}
	}
}

// subscribeOnce opens one subscription and applies records until the
// stream ends. It returns how many records it applied (for backoff
// bookkeeping) and the error that ended the stream.
func (f *Follower) subscribeOnce() (applied int, err error) {
	f.mu.Lock()
	req := SubscribeRequest{
		Version:    ProtocolVersion,
		Tables:     append([]string(nil), f.names...),
		Generation: f.gen,
		Boot:       f.boot,
		Positions:  make(map[string]uint64, len(f.positions)),
	}
	for t, e := range f.positions {
		if f.applied[t] {
			req.Positions[t] = e
		}
	}
	f.mu.Unlock()

	body, err := json.Marshal(&req)
	if err != nil {
		return 0, fmt.Errorf("encoding subscribe request: %w", err)
	}
	hreq, err := http.NewRequestWithContext(f.ctx, http.MethodPost,
		f.cfg.Upstream+"/v2/replication/subscribe", strings.NewReader(string(body)))
	if err != nil {
		return 0, fmt.Errorf("building subscribe request: %w", err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := f.hc.Do(hreq)
	if err != nil {
		return 0, fmt.Errorf("subscribing: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 64*1024))
		msg := strings.TrimSpace(string(data))
		// 400/404 are the leader's own rejection statuses (protocol
		// mismatch, unknown table — including a pre-replication leader
		// whose mux 404s the endpoint): permanent configuration errors
		// that must fail loudly, not retry forever.
		if resp.StatusCode == http.StatusBadRequest || resp.StatusCode == http.StatusNotFound {
			return 0, fmt.Errorf("%w: answered %d: %s", errRejected, resp.StatusCode, msg)
		}
		return 0, fmt.Errorf("subscribe answered %d: %s", resp.StatusCode, msg)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), maxStreamLine)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return applied, fmt.Errorf("decoding stream record: %w", err)
		}
		if rec.Epoch > 0 && rec.Table != "" {
			f.mu.Lock()
			if rec.Epoch > f.seen[rec.Table] {
				f.seen[rec.Table] = rec.Epoch
			}
			f.mu.Unlock()
		}
		if err := f.apply(&rec); err != nil {
			return applied, err
		}
		applied++
	}
	if err := sc.Err(); err != nil {
		return applied, fmt.Errorf("reading stream: %w", err)
	}
	return applied, nil // leader closed the stream cleanly
}

// apply applies one stream record to the replica core. Layout, data,
// and snapshot records share one epoch counter, so the ordering
// discipline is uniform: duplicates (epoch at or below the applied
// position) are post-re-snapshot overlap and skip silently; anything
// other than the exact next epoch is a gap that forces a reconnect.
func (f *Follower) apply(rec *Record) error {
	boot, ok := f.datasets[rec.Table]
	if !ok {
		return fmt.Errorf("stream record for unsubscribed table %q", rec.Table)
	}
	// Fence before applying anything: a record claiming a leadership
	// term below what this follower has already applied comes from a
	// deposed leader, and nothing it says may touch local state. Equal
	// terms are the normal case; higher terms (a promotion happened
	// upstream) are adopted by the per-record bookkeeping below.
	if rec.Generation != 0 {
		f.mu.Lock()
		cur := f.gen
		f.mu.Unlock()
		if rec.Generation < cur {
			return fmt.Errorf("%w: record claims generation %d, follower has applied %d", errFenced, rec.Generation, cur)
		}
	}
	switch rec.Type {
	case RecordResume:
		f.mu.Lock()
		if rec.Generation != 0 {
			f.gen = rec.Generation
		}
		if rec.Boot != "" {
			f.boot = rec.Boot
		}
		f.mu.Unlock()
		if rec.Generation != 0 {
			f.core.SetGeneration(rec.Generation)
		}
		f.stats.resumes.Add(1)
		return nil

	case RecordSnapshot:
		if rec.State == nil {
			return fmt.Errorf("snapshot record for %q has no state", rec.Table)
		}
		// Reassemble the rows the snapshot describes: the local boot
		// dataset plus whatever tail and delta the leader shipped (only
		// rows the boot source cannot reproduce travel on the wire).
		base, delta, err := rec.State.BindData(boot)
		if err != nil {
			return fmt.Errorf("%w: reassembling %q snapshot data: %v", errDiverged, rec.Table, err)
		}
		lay, warm, err := rec.State.Bind(base)
		if err != nil {
			// The shape itself does not fit the local data: wrong table,
			// wrong schema, wrong row count. Retrying cannot fix it.
			return fmt.Errorf("%w: binding %q snapshot: %v", errDiverged, rec.Table, err)
		}
		if !warm {
			// The layout bound, but the statistics block recomputed from
			// the local data does not match the leader's bit-for-bit:
			// the follower holds different rows. Serving from this state
			// would answer bit-different costs — fail loudly instead.
			return fmt.Errorf("%w: table %q statistics block mismatch (local data differs from leader's)", errDiverged, rec.Table)
		}
		tail := table.NewDelta(boot.Schema())
		if delta != nil {
			tail.AppendDataset(delta)
		}
		if err := f.publish(rec, lay, base, tail, 0, false); err != nil {
			return err
		}
		f.stats.snapshots.Add(1)
		return nil

	case RecordDecision:
		base, delta, lay, skip, err := f.nextEpoch(rec)
		if err != nil || skip {
			return err
		}
		if rec.Switched {
			if rec.Layout == nil {
				return fmt.Errorf("switch record for %q carries no layout", rec.Table)
			}
			// Bind against the current base, not the boot dataset: a
			// switch after a compaction describes the grown row set.
			newLay, err := rec.Layout.Bind(base)
			if err != nil {
				return fmt.Errorf("%w: binding %q switched layout: %v", errDiverged, rec.Table, err)
			}
			lay = newLay
		}
		if err := f.publish(rec, lay, base, delta, 0, false); err != nil {
			return err
		}
		f.stats.decisions.Add(1)
		return nil

	case RecordAppend:
		base, delta, lay, skip, err := f.nextEpoch(rec)
		if err != nil || skip {
			return err
		}
		if rec.Rows == nil {
			return fmt.Errorf("append record for %q carries no rows", rec.Table)
		}
		batch, err := rec.Rows.Dataset(boot.Schema())
		if err != nil {
			return fmt.Errorf("%w: rebuilding %q append batch: %v", errDiverged, rec.Table, err)
		}
		if after := delta.Rows() + batch.NumRows(); rec.DeltaRows != after {
			// The leader's post-append delta size disagrees with ours: a
			// record was lost in a way the epoch discipline missed.
			// Checked before the batch lands: a delta cannot un-append.
			return fmt.Errorf("%w: table %q delta is %d rows after append, leader reports %d",
				errDiverged, rec.Table, after, rec.DeltaRows)
		}
		delta.AppendDataset(batch)
		if err := f.publish(rec, lay, base, delta, batch.NumRows(), false); err != nil {
			return err
		}
		f.stats.appends.Add(1)
		return nil

	case RecordCompact:
		base, delta, _, skip, err := f.nextEpoch(rec)
		if err != nil || skip {
			return err
		}
		if rec.State == nil {
			return fmt.Errorf("compact record for %q carries no state", rec.Table)
		}
		deltaRows := delta.Rows()
		if rec.Folded != deltaRows {
			return fmt.Errorf("%w: table %q compaction folded %d rows on the leader, local delta holds %d",
				errDiverged, rec.Table, rec.Folded, deltaRows)
		}
		// The compact record carries no rows: grow the base from rows
		// already applied, and let the shipped state's statistics block
		// prove the result bit-identical to the leader's compacted data.
		grown := base
		if deltaRows > 0 {
			grown = table.Concat(base, delta.View().Data)
		}
		lay, warm, err := rec.State.Bind(grown)
		if err != nil {
			return fmt.Errorf("%w: binding %q compacted state: %v", errDiverged, rec.Table, err)
		}
		if !warm {
			return fmt.Errorf("%w: table %q compacted statistics block mismatch (local rows differ from leader's)", errDiverged, rec.Table)
		}
		if err := f.publish(rec, lay, grown, table.NewDelta(boot.Schema()), 0, true); err != nil {
			return err
		}
		f.stats.compactions.Add(1)
		return nil

	default:
		// Forward compatibility: an unknown record type from a newer
		// leader is skipped, not fatal — the epoch discipline catches
		// anything that mattered.
		f.logf("replica: skipping unknown record type %q", rec.Type)
		return nil
	}
}

// nextEpoch runs the shared ordering discipline for post-snapshot
// records and returns the table's current local state. skip reports a
// duplicate (already covered by a re-snapshot) that must be ignored
// without applying anything.
func (f *Follower) nextEpoch(rec *Record) (base *oreo.Dataset, delta *table.Delta, lay *oreo.Layout, skip bool, err error) {
	f.mu.Lock()
	last, seen := f.positions[rec.Table], f.applied[rec.Table]
	base, delta, lay = f.bases[rec.Table], f.deltas[rec.Table], f.layouts[rec.Table]
	f.mu.Unlock()
	if !seen {
		return nil, nil, nil, false, fmt.Errorf("%s record for %q before any snapshot", rec.Type, rec.Table)
	}
	if rec.Epoch <= last {
		return nil, nil, nil, true, nil // overlap after a (re-)snapshot; already covered
	}
	if rec.Epoch != last+1 {
		f.stats.gaps.Add(1)
		return nil, nil, nil, false, fmt.Errorf("epoch gap on %q: have %d, got %d", rec.Table, last, rec.Epoch)
	}
	return base, delta, lay, false, nil
}

// publish pushes (epoch, snapshot, base, the delta's current view) into
// the core and updates the follower's positions and local data copies.
func (f *Follower) publish(rec *Record, lay *oreo.Layout, base *oreo.Dataset, delta *table.Delta, appended int, compacted bool) error {
	snap := oreo.OptimizerSnapshot{Serving: lay}
	if rec.Stats != nil {
		snap.Stats = *rec.Stats
	}
	if rec.Pending != "" {
		// The pending layout's partitioning is never read on the
		// follower (only its name, for reorganizing reports); a
		// name-only stand-in keeps the wire record small.
		snap.Pending = &oreo.Layout{Name: rec.Pending}
	}
	st := serve.ReplicaState{
		Epoch:     rec.Epoch,
		Snapshot:  snap,
		Dataset:   base,
		Delta:     delta.View().Data,
		Appended:  appended,
		Compacted: compacted,
	}
	if err := f.core.ApplyReplica(rec.Table, st); err != nil {
		return fmt.Errorf("applying %q state: %w", rec.Table, err)
	}
	f.mu.Lock()
	f.positions[rec.Table] = rec.Epoch
	f.layouts[rec.Table] = lay
	f.bases[rec.Table] = base
	f.deltas[rec.Table] = delta
	if rec.Generation != 0 && rec.Generation > f.gen {
		f.gen = rec.Generation
	}
	if rec.Boot != "" {
		f.boot = rec.Boot
	}
	f.applied[rec.Table] = true
	allApplied := len(f.applied) == len(f.names)
	f.mu.Unlock()
	if rec.Generation != 0 {
		f.core.SetGeneration(rec.Generation)
	}
	if allApplied {
		f.readyOnce.Do(func() { close(f.ready) })
	}
	return nil
}
