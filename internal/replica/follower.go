package replica

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"oreo"
	"oreo/internal/metrics"
	"oreo/internal/serve"
)

// Follower defaults.
const (
	DefaultForwardQueue    = 4096
	DefaultForwardBatch    = 256
	DefaultForwardInterval = 200 * time.Millisecond
	DefaultReconnectMin    = 100 * time.Millisecond
	DefaultReconnectMax    = 5 * time.Second
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
	// decision-log archive (written by a leader's Publisher) before the
	// first subscription: every archived record is replayed through the
	// normal apply path, so the follower reaches the archive's tail epoch
	// offline and then resubscribes with those positions — a leader that
	// wrote them answers with a cheap resume instead of a full
	// re-snapshot.
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
	// batches landed in the replica's delta, and delta folds grown into
	// its base.
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

	// datasets holds each table's boot source: the rows a snapshot does
	// not ship. Everything that advances — positions, layouts, the grown
	// base, the delta tail, the applied fencing term — lives in core.
	datasets map[string]*oreo.Dataset

	mu sync.Mutex
	// boot is the boot ID of the publisher the applied state came from
	// ("" before the first snapshot or resume). Echoed on
	// resubscription: resume is only offered when the upstream is the
	// same process life the positions were applied from.
	boot string
	// seen is the newest epoch decoded off the stream per table, ahead
	// of apply: seen minus the core's applied position is the
	// follower-side replication lag gauge — nonzero exactly while an
	// apply (a store rebuild, say) is in flight behind freshly arrived
	// records.
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
	cfg.Upstream = strings.TrimRight(u.String(), "/")
	f, err := newFollower(cfg)
	if err != nil {
		return nil, err
	}
	f.wg.Add(1)
	go f.run()
	return f, nil
}

// newFollower is NewFollower short of the subscription loop: the
// replica core is built and, with cfg.ArchiveDir set, has replayed the
// archive. Recover promotes that state without ever subscribing.
func newFollower(cfg FollowerConfig) (*Follower, error) {
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

	f := &Follower{
		cfg:      cfg,
		hc:       cfg.HTTPClient,
		logf:     cfg.Logf,
		datasets: make(map[string]*oreo.Dataset, len(cfg.Tables)),
		seen:     make(map[string]uint64, len(cfg.Tables)),
		ready:    make(chan struct{}),
		failed:   make(chan struct{}),
	}
	f.ctx, f.cancel = context.WithCancel(context.Background())

	replicaTables := make([]serve.ReplicaTable, 0, len(cfg.Tables))
	for _, t := range cfg.Tables {
		if t.Name == "" || t.Dataset == nil {
			return nil, fmt.Errorf("replica: table entry missing name or dataset")
		}
		if _, dup := f.datasets[t.Name]; dup {
			return nil, fmt.Errorf("replica: table %q listed twice", t.Name)
		}
		f.datasets[t.Name] = t.Dataset
		name := t.Name
		var forward func(oreo.Query) bool
		if cfg.ForwardQueue > 0 {
			forward = func(q oreo.Query) bool { return f.fwd.enqueue(name, q) }
		}
		replicaTables = append(replicaTables, serve.ReplicaTable{Name: name, Dataset: t.Dataset, Forward: forward})
	}
	if cfg.ForwardQueue > 0 {
		f.fwd = newForwarder(f.ctx, cfg.Upstream, f.hc, cfg.ForwardQueue, cfg.ForwardBatch, cfg.ForwardInterval, cfg.Logf, f.Generation, &f.wg)
	}
	core, err := serve.NewReplicaCore(replicaTables, serve.CoreConfig{Upstream: cfg.Upstream, ScanParallelism: cfg.ScanParallelism})
	if err != nil {
		f.Detach()
		return nil, fmt.Errorf("replica: building replica core: %w", err)
	}
	f.core = core
	f.registerMetrics()

	if cfg.ArchiveDir != "" {
		if err := f.bootstrapFromArchive(cfg.ArchiveDir); err != nil {
			f.Close()
			return nil, fmt.Errorf("replica: bootstrapping from archive %s: %w", cfg.ArchiveDir, err)
		}
	}
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
	n, err := replayLive(dir, 0, f.core.Tables(), recordHeader, func(rec *Record) error {
		if _, ok := f.datasets[rec.Table]; !ok && rec.Table != "" {
			return nil
		}
		return f.apply(rec)
	})
	if err != nil {
		return err
	}
	f.logf("replica: bootstrapped from archive %s: %d records, positions %v", dir, n, f.positions())
	return nil
}

// positions returns the applied epoch of every table that has applied
// a snapshot — what a resubscription claims.
func (f *Follower) positions() map[string]uint64 {
	out := make(map[string]uint64, len(f.datasets))
	for _, t := range f.core.Tables() {
		if pos, ok := f.core.ReplicaPosition(t); ok {
			out[t] = pos.Epoch
		}
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
	for _, t := range f.core.Tables() {
		table := t
		reg.GaugeFunc("oreo_replication_lag_epochs",
			"Follower-side replication lag: the newest epoch decoded off the stream minus the last applied epoch for this table.",
			metrics.Labels{"table": table}, func() float64 {
				f.mu.Lock()
				seen := f.seen[table]
				f.mu.Unlock()
				applied := f.Position(table)
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

// Position returns the last applied epoch for the table (0 before its
// first snapshot).
func (f *Follower) Position(table string) uint64 {
	pos, _ := f.core.ReplicaPosition(table)
	return pos.Epoch
}

// Generation returns the highest leadership fencing term this follower
// has applied from the stream (0 before the first record). It is echoed
// on resubscription and surfaced on the core's /healthz; a stream
// regressing below it is a deposed leader and is fenced terminally.
func (f *Follower) Generation() uint64 { return f.core.Generation() }

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
	f.Detach()
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

// errFenced marks a stream whose leadership term regressed below what
// this follower has already applied: the upstream is a deposed leader
// (typically a revived process that lost a promotion race). Applying
// its records would silently fork the fleet's history, so fencing is
// terminal — the follower must be repointed at the real leader.
var errFenced = errors.New("replica: stream fenced (upstream generation is older than applied state)")

// run is the subscription loop: subscribe, apply until the stream
// breaks, back off, repeat, until the follower is detached. Only
// failures retrying cannot fix — local rows that diverge from the
// leader's, a rejected subscription, a fenced stream — are terminal.
// Every attempt after the first counts as a reconnect; a session that
// applied records earns a fresh backoff, one that failed straight away
// backs off harder.
func (f *Follower) run() {
	defer f.wg.Done()
	backoff := f.cfg.ReconnectMin
	for first := true; ; first = false {
		if !first {
			f.stats.reconnects.Add(1)
		}
		n, err := f.subscribeOnce()
		if f.ctx.Err() != nil {
			return
		}
		if errors.Is(err, serve.ErrDiverged) || errors.Is(err, errRejected) || errors.Is(err, errFenced) {
			f.fail(err)
			return
		}
		if err != nil {
			f.logf("replica: subscription to %s ended: %v (retrying in %v)", f.cfg.Upstream, err, backoff)
		} else {
			f.logf("replica: subscription to %s closed (retrying in %v)", f.cfg.Upstream, backoff)
		}
		if n > 0 {
			backoff = f.cfg.ReconnectMin
		} else if backoff *= 2; backoff > f.cfg.ReconnectMax {
			backoff = f.cfg.ReconnectMax
		}
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
		Tables:     f.core.Tables(),
		Generation: f.Generation(),
		Boot:       f.boot,
		Positions:  f.positions(),
	}
	f.mu.Unlock()
	return subscribeSession(f.ctx, f.hc, f.cfg.Upstream, &req, func(line []byte) error {
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return fmt.Errorf("decoding stream record: %w", err)
		}
		return f.apply(&rec)
	})
}

// apply applies one stream record: fence it, decode it into the update
// the leader's transition emitted, and hand that to the replica core,
// whose shards run the same transition — the epoch discipline
// (duplicates after a re-snapshot skip silently, anything but the exact
// next epoch is a gap that forces a reconnect), the delta mechanics and
// every coherence check live there, not here. What remains is this
// side's bookkeeping: lag, counters, the fencing term, readiness.
func (f *Follower) apply(rec *Record) error {
	boot, ok := f.datasets[rec.Table]
	if !ok {
		return fmt.Errorf("stream record for unsubscribed table %q", rec.Table)
	}
	f.mu.Lock()
	if rec.Epoch > f.seen[rec.Table] {
		f.seen[rec.Table] = rec.Epoch
	}
	f.mu.Unlock()
	// Fence before applying anything: a record claiming a leadership
	// term below what this follower has already applied comes from a
	// deposed leader, and nothing it says may touch local state. Equal
	// terms are the normal case; higher terms (a promotion happened
	// upstream) are adopted once the record has applied.
	if gen := f.Generation(); rec.Generation != 0 && rec.Generation < gen {
		return fmt.Errorf("%w: record claims generation %d, follower has applied %d", errFenced, rec.Generation, gen)
	}
	var counter *atomicUint64
	switch rec.Type {
	case RecordResume:
		f.adopt(rec)
		f.stats.resumes.Add(1)
		return nil
	case RecordSnapshot:
		counter = &f.stats.snapshots
	case RecordDecision:
		counter = &f.stats.decisions
	case RecordAppend:
		counter = &f.stats.appends
	case RecordCompact:
		counter = &f.stats.compactions
	default:
		// Forward compatibility: an unknown record type from a newer
		// leader is skipped, not fatal — the epoch discipline catches
		// anything that mattered.
		f.logf("replica: skipping unknown record type %q", rec.Type)
		return nil
	}
	upd, err := DecodeRecord(rec, boot)
	if err != nil {
		return err
	}
	applied, err := f.core.Apply(rec.Table, upd)
	if err != nil {
		if errors.Is(err, serve.ErrEpochGap) {
			f.stats.gaps.Add(1)
		}
		return err
	}
	if !applied {
		return nil // overlap after a (re-)snapshot; already covered
	}
	counter.Add(1)
	f.adopt(rec)
	if rec.Type == RecordSnapshot && len(f.positions()) == len(f.datasets) {
		f.readyOnce.Do(func() { close(f.ready) })
	}
	return nil
}

// adopt records the leadership term (never lower than the one already
// applied — apply fenced the record) and publisher boot ID an applied
// record came from.
func (f *Follower) adopt(rec *Record) {
	if rec.Generation != 0 {
		f.core.SetGeneration(rec.Generation)
	}
	if rec.Boot != "" {
		f.mu.Lock()
		f.boot = rec.Boot
		f.mu.Unlock()
	}
}
