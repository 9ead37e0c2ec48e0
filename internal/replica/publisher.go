package replica

import (
	"bufio"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"sync"
	"sync/atomic"

	"oreo"
	"oreo/internal/metrics"
	"oreo/internal/query"
	"oreo/internal/serve"
)

// DefaultSubscriberQueue bounds each subscriber's pending-record
// buffer. Deep enough to ride out flushes and scheduling hiccups at
// full decision rate; overflow costs the subscriber one in-stream
// re-snapshot, never the leader a stalled decision loop.
const DefaultSubscriberQueue = 256

// maxSubscribeBody caps the subscribe request body — a handful of
// table names and positions, nowhere near this.
const maxSubscribeBody = 1 << 20

// maxObserveBody caps one forwarded-observation batch.
const maxObserveBody = 8 << 20

// PublisherConfig parameterizes a Publisher.
type PublisherConfig struct {
	// QueueSize bounds each subscriber's pending-record buffer; zero
	// selects DefaultSubscriberQueue.
	QueueSize int
	// Generation is the leader's monotonic fencing term. Zero selects 1,
	// the term of a fresh (never-promoted) leader; a promotion passes
	// the deposed leader's term + 1 so followers can tell the new
	// lineage from a revival of the old one. The term must outlive the
	// process — a restarted leader republishing at term 1 after a
	// failover to 2+ would be fenced out by its own fleet — and it lives
	// in the archived stream's record headers: Recover passes the
	// archived term back.
	Generation uint64
	// Logf receives operational messages (subscriber churn, forced
	// re-snapshots); nil selects log.Printf.
	Logf func(format string, args ...any)
	// ArchiveDir, when set, is where the publisher archives its own
	// stream (created if missing): one new segment per publisher,
	// opened with every table's snapshot, and every published record
	// appended before the update it carries is acknowledged. See the
	// archive's description in archiver.go.
	ArchiveDir string
}

// Publisher is the leader half of replication: attached to a leader
// serve.Core, it observes every decision through the core's decision
// hook, encodes each as one wire record, and fans it out to all
// subscribed followers. It owns the two replication HTTP endpoints
// (mount with Mount or the individual handlers).
//
// The publisher never blocks the decision path on a subscriber: the hook
// does one JSON encode, one archive write when archiving, and N
// non-blocking channel sends. A subscriber that cannot keep up overflows
// its bounded queue, and its writer repairs the gap by discarding the
// backlog and re-snapshotting in-stream.
type Publisher struct {
	core      *serve.Core
	gen       uint64
	boot      string
	queueSize int
	logf      func(format string, args ...any)
	arch      *archiveWriter // nil without PublisherConfig.ArchiveDir

	mu     sync.Mutex
	subs   map[*subscriber]struct{}
	subSeq uint64 // subscriber label allocator; under mu

	published   atomic.Uint64 // decision records offered to subscribers or written to the archive
	resnapshots atomic.Uint64 // in-stream gap repairs

	// Forwarded-observation outcome counters, registered on the leader
	// core's metrics registry (see registerMetrics).
	obsObserved *metrics.Counter
	obsDropped  *metrics.Counter
	obsRejected *metrics.Counter
	obsFenced   *metrics.Counter
}

// NewPublisher attaches a publisher to a leader core's decision hook
// and, with cfg.ArchiveDir, opens its archive segment. There should be
// exactly one publisher per core — attaching a second replaces the
// first's hook.
func NewPublisher(core *serve.Core, cfg PublisherConfig) (*Publisher, error) {
	if core == nil {
		return nil, fmt.Errorf("replica: nil core")
	}
	if core.Role() != serve.RoleLeader {
		return nil, fmt.Errorf("replica: publisher requires a leader core, got role %q", core.Role())
	}
	if cfg.QueueSize == 0 {
		cfg.QueueSize = DefaultSubscriberQueue
	}
	if cfg.QueueSize < 0 {
		return nil, fmt.Errorf("replica: QueueSize must be positive, got %d", cfg.QueueSize)
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	if cfg.Generation == 0 {
		cfg.Generation = 1
	}
	p := &Publisher{
		core:      core,
		gen:       cfg.Generation,
		boot:      newBootID(),
		queueSize: cfg.QueueSize,
		logf:      cfg.Logf,
		subs:      make(map[*subscriber]struct{}),
	}
	if cfg.ArchiveDir != "" {
		p.arch = &archiveWriter{dir: cfg.ArchiveDir, snapshots: p.openingSnapshots, logf: cfg.Logf}
	}
	p.registerMetrics()
	core.SetGeneration(p.gen)
	core.SetDecisionHook(p.publish)
	if p.arch != nil {
		// The hook first, then the segment's opening snapshots: every
		// update applied after a snapshot was cut reaches the hook, which
		// waits for the snapshots to be written before it writes its own.
		if err := p.arch.write(nil); err != nil {
			core.SetDecisionHook(nil)
			return nil, fmt.Errorf("replica: opening archive %s: %w", cfg.ArchiveDir, err)
		}
	}
	return p, nil
}

// Close fsyncs and closes the archive segment, if any. Close the core
// first: an update applied after Close is published to subscribers but
// no longer archived.
func (p *Publisher) Close() error {
	if p.arch == nil {
		return nil
	}
	return p.arch.close()
}

// registerMetrics attaches the publisher's series to the leader core's
// registry, so one /metrics scrape covers serving and replication.
// Callback registration is last-wins, so re-attaching a publisher to
// the same core (allowed: the newest hook wins) re-points the series
// instead of panicking.
func (p *Publisher) registerMetrics() {
	reg := p.core.Metrics()
	reg.GaugeFunc("oreo_replication_subscribers",
		"Connected replication subscribers (follower streams).", nil,
		func() float64 { return float64(p.Subscribers()) })
	reg.CounterFunc("oreo_replication_published_total",
		"Decision records offered to subscribers or written to the archive.", nil,
		func() float64 { return float64(p.published.Load()) })
	reg.CounterFunc("oreo_replication_resnapshots_total",
		"In-stream gap repairs: a lagging subscriber's backlog was discarded and its tables re-snapshotted.", nil,
		func() float64 { return float64(p.resnapshots.Load()) })
	p.obsObserved = reg.Counter("oreo_replication_observations_received_total",
		obsReceivedHelp, metrics.Labels{"result": "observed"})
	p.obsDropped = reg.Counter("oreo_replication_observations_received_total",
		obsReceivedHelp, metrics.Labels{"result": "dropped"})
	p.obsRejected = reg.Counter("oreo_replication_observations_received_total",
		obsReceivedHelp, metrics.Labels{"result": "rejected"})
	p.obsFenced = reg.Counter("oreo_replication_observations_received_total",
		obsReceivedHelp, metrics.Labels{"result": "fenced"})
	for _, table := range p.core.Tables() {
		t := table
		reg.GaugeFunc("oreo_replication_lag_epochs",
			"Leader-side replication lag: the current decision epoch minus the slowest subscriber's last-offered epoch for this table. 0 with no subscribers.",
			metrics.Labels{"table": t}, func() float64 { return float64(p.lagEpochs(t)) })
	}
}

const obsReceivedHelp = "Observations forwarded by followers, by outcome: observed (enqueued for a decision loop), dropped (queue full), rejected (invalid), fenced (stale leader term — whole batch refused)."

// lagEpochs computes the named table's leader-side lag in epochs: how
// far the slowest connected subscriber's stream position trails the
// published decision epoch. A subscriber that overflowed keeps its last
// successfully offered position until the in-stream re-snapshot lands,
// so a growing value is exactly "a follower is falling behind".
func (p *Publisher) lagEpochs(table string) uint64 {
	pos, ok := p.core.ReplicaPosition(table)
	if !ok {
		return 0
	}
	cur := pos.Epoch
	p.mu.Lock()
	defer p.mu.Unlock()
	var lag uint64
	for s := range p.subs {
		if !s.tables[table] {
			continue
		}
		if off := s.offered[table].Load(); cur > off && cur-off > lag {
			lag = cur - off
		}
	}
	return lag
}

// newBootID mints a publisher's boot-unique identity. Randomness — not
// a counter or a timestamp — is the point: no state needs persisting
// for two boots of the same process to be distinguishable.
func newBootID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("replica: reading boot ID entropy: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// Generation returns the leader's monotonic fencing term.
func (p *Publisher) Generation() uint64 { return p.gen }

// Subscribers reports the current subscriber count.
func (p *Publisher) Subscribers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.subs)
}

// Published reports decision records offered to subscribers or written
// to the archive (counted after the write), and
// Resnapshots the in-stream gap repairs performed.
func (p *Publisher) Published() uint64   { return p.published.Load() }
func (p *Publisher) Resnapshots() uint64 { return p.resnapshots.Load() }

// Mount registers the replication endpoints on a serve.Server:
// POST /v2/replication/subscribe and POST /v2/replication/observe.
func (p *Publisher) Mount(srv *serve.Server) {
	srv.Mount("POST /v2/replication/subscribe", p.SubscribeHandler())
	srv.Mount("POST /v2/replication/observe", p.ObserveHandler())
}

// DropSubscribers severs every current subscriber's stream. Followers
// reconnect on their own and negotiate resume-or-snapshot; the lever
// exists for connection draining (and exercises the reconnect path in
// tests).
func (p *Publisher) DropSubscribers() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for s := range p.subs {
		s.dropOnce.Do(func() { close(s.drop) })
	}
}

// subscriber is one follower connection's state.
type subscriber struct {
	tables map[string]bool // subscribed set; never empty
	ch     chan []byte     // encoded records, bounded
	kick   chan struct{}   // wakes the writer when gapped with an idle stream
	gapped atomic.Bool

	// offered tracks, per subscribed table, the highest epoch this
	// subscriber's stream has been handed (enqueued record, resume
	// acknowledgement, or sent snapshot). An overflowed offer does NOT
	// advance it, so the oreo_replication_lag_epochs gauge grows until
	// the in-stream re-snapshot repairs the gap. Keys are fixed at
	// subscribe time; values are atomics so the scrape never takes the
	// publisher lock per table.
	offered map[string]*atomic.Uint64

	drop     chan struct{} // closed by DropSubscribers
	dropOnce sync.Once
}

// markGapped flags the subscriber for an in-stream re-snapshot and
// wakes its writer, so the repair happens even if no further decision
// ever flows (the dropped record may have been the last one).
func (s *subscriber) markGapped() {
	s.gapped.Store(true)
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// offer hands an encoded record to the subscriber without blocking,
// advancing the table's offered-epoch watermark only on success.
func (s *subscriber) offer(data []byte, table string, epoch uint64) {
	select {
	case s.ch <- data:
		s.offered[table].Store(epoch)
	default:
		s.markGapped()
	}
}

// publish is the decision hook: encode once, archive, fan out
// non-blocking. It runs on each table's event consumer goroutine —
// serialized per table, concurrent across tables — so per-table record
// order in the archive and on every subscriber channel matches epoch
// order. All three update kinds share the path: decisions, append
// batches, and compactions are one totally ordered log. The shard calls
// it before acknowledging an append or compaction, so with an archive an
// acknowledged update has been written to it.
func (p *Publisher) publish(table string, upd serve.DecisionUpdate) {
	p.mu.Lock()
	var interested []*subscriber
	for s := range p.subs {
		if s.tables[table] {
			//oreovet:ignore maporder subscriber fan-out order carries no data; each subscriber's own stream stays epoch-ordered per table
			interested = append(interested, s)
		}
	}
	p.mu.Unlock()
	if len(interested) == 0 && p.arch == nil {
		return
	}

	var data []byte
	rec, err := EncodeUpdate(table, upd, 0)
	if err == nil {
		data, err = json.Marshal(rec)
	}
	if err != nil {
		// A state that cannot be captured or encoded cannot be
		// replicated; force every interested subscriber through the
		// snapshot path rather than shipping a record they cannot apply.
		// (Unreachable for states the serve core produces.)
		p.logf("replica: encoding %s update for %s: %v", upd.Kind, table, err)
		for _, s := range interested {
			s.markGapped()
		}
		if p.arch != nil {
			p.arch.abandon()
		}
		return
	}
	// The archive before the subscribers: it writes into data's spare
	// capacity, which no subscriber reads.
	if p.arch != nil {
		if err := p.arch.write(data); err != nil {
			p.logf("replica: archiving %s update for %s: %v (the next record opens a fresh segment)", upd.Kind, table, err)
		}
	}
	p.published.Add(1)
	for _, s := range interested {
		s.offer(data, table, upd.Epoch)
	}
}

// snapshotRecord captures one table's current state as a snapshot
// record. The whole position — epoch, snapshot, grown base, live delta
// — comes from the core's published replication position, so it is
// coherent by construction.
func (p *Publisher) snapshotRecord(table string) (*Record, error) {
	pos, ok := p.core.ReplicaPosition(table)
	if !ok {
		return nil, fmt.Errorf("replica: no position for table %q", table)
	}
	upd := serve.DecisionUpdate{Kind: serve.UpdateSnapshot, Epoch: pos.Epoch, Snapshot: pos.Snapshot, Base: pos.Dataset, Rows: pos.Delta}
	if pos.Delta != nil {
		upd.DeltaRows = pos.Delta.NumRows()
	}
	rec, err := EncodeUpdate(table, upd, pos.SeedRows)
	if err != nil {
		return nil, err
	}
	rec.Generation, rec.Boot = p.gen, p.boot
	return rec, nil
}

// openingSnapshots encodes every served table's snapshot record, in
// registration order: the head of each archive segment.
func (p *Publisher) openingSnapshots() ([][]byte, error) {
	var out [][]byte
	for _, t := range p.core.Tables() {
		rec, err := p.snapshotRecord(t)
		if err != nil {
			return nil, err
		}
		data, err := json.Marshal(rec)
		if err != nil {
			return nil, fmt.Errorf("replica: encoding snapshot for %s: %w", t, err)
		}
		out = append(out, data)
	}
	return out, nil
}

// SubscribeHandler returns the POST /v2/replication/subscribe handler:
// the NDJSON decision stream. See the package comment for the
// protocol.
func (p *Publisher) SubscribeHandler() http.Handler {
	return http.HandlerFunc(p.handleSubscribe)
}

func (p *Publisher) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	var req SubscribeRequest
	body := http.MaxBytesReader(w, r.Body, maxSubscribeBody)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeJSONError(w, http.StatusBadRequest, fmt.Sprintf("decoding subscribe request: %v", err))
		return
	}
	if req.Version > ProtocolVersion {
		writeJSONError(w, http.StatusBadRequest,
			fmt.Sprintf("protocol version %d not supported (max %d)", req.Version, ProtocolVersion))
		return
	}
	if req.Generation > p.gen {
		// The follower has applied a higher term than ours: a newer
		// leader exists and this process is deposed. Refusing (terminal
		// on the follower side) is the fence — feeding it our stream
		// would roll its state back to a dead lineage.
		p.logf("replica: refusing subscriber at generation %d (own generation %d is stale)", req.Generation, p.gen)
		writeJSONError(w, http.StatusBadRequest,
			fmt.Sprintf("subscriber generation %d exceeds leader generation %d: this leader is deposed", req.Generation, p.gen))
		return
	}
	served := p.core.Tables()
	servedSet := make(map[string]bool, len(served))
	for _, t := range served {
		servedSet[t] = true
	}
	tables := req.Tables
	if len(tables) == 0 {
		tables = served
	}
	set := make(map[string]bool, len(tables))
	for _, t := range tables {
		if !servedSet[t] {
			writeJSONError(w, http.StatusNotFound, fmt.Sprintf("unknown table %q", t))
			return
		}
		set[t] = true
	}

	sub := &subscriber{
		tables:  set,
		ch:      make(chan []byte, p.queueSize),
		kick:    make(chan struct{}, 1),
		offered: make(map[string]*atomic.Uint64, len(set)),
		drop:    make(chan struct{}),
	}
	for t := range set {
		sub.offered[t] = new(atomic.Uint64)
	}
	// Register before capturing the initial snapshots: decisions
	// processed while the snapshot is being written land in the queue
	// and follow it; the follower skips the ones the snapshot already
	// covers (epoch <= snapshot epoch), so the stream is gapless from
	// the first byte.
	p.mu.Lock()
	p.subs[sub] = struct{}{}
	p.subSeq++
	id := p.subSeq
	n := len(p.subs)
	p.mu.Unlock()
	// Each connection gets its own queue-depth series, torn down with
	// the connection: a churning fleet must not accrete dead label
	// series scrape over scrape.
	reg := p.core.Metrics()
	queueLabels := metrics.Labels{"subscriber": fmt.Sprintf("%d", id)}
	reg.GaugeFunc("oreo_replication_subscriber_queue_depth",
		"Encoded decision records buffered in this subscriber's queue, waiting for its stream writer. One series per connected subscriber; unregistered on disconnect.",
		queueLabels, func() float64 { return float64(len(sub.ch)) })
	p.logf("replica: subscriber %d connected (%d active, tables %v)", id, n, tables)
	defer func() {
		p.mu.Lock()
		delete(p.subs, sub)
		n := len(p.subs)
		p.mu.Unlock()
		reg.Unregister("oreo_replication_subscriber_queue_depth", queueLabels)
		p.logf("replica: subscriber %d disconnected (%d active)", id, n)
	}()

	rc := http.NewResponseController(w)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	_ = rc.Flush()
	bw := bufio.NewWriter(w)
	writeRec := func(data []byte) bool {
		if _, err := bw.Write(data); err != nil {
			return false
		}
		return bw.WriteByte('\n') == nil
	}
	flush := func() {
		_ = bw.Flush()
		_ = rc.Flush()
	}

	// Initial records: resume where the follower's position matches,
	// snapshot otherwise. Registration order keeps multi-table
	// followers deterministic.
	sendSnapshots := func(names []string) bool {
		for _, t := range names {
			if !set[t] {
				continue
			}
			rec, err := p.snapshotRecord(t)
			if err != nil {
				p.logf("replica: %v", err)
				return false
			}
			data, err := json.Marshal(rec)
			if err != nil {
				p.logf("replica: encoding snapshot for %s: %v", t, err)
				return false
			}
			if !writeRec(data) {
				return false
			}
			// The stream now carries everything up to the snapshot epoch;
			// the lag gauge resets to whatever decided since.
			sub.offered[t].Store(rec.Epoch)
		}
		return true
	}
	for _, t := range served {
		if !set[t] {
			continue
		}
		pos, ok := p.core.ReplicaPosition(t)
		epoch := pos.Epoch
		// Resume requires the follower to EXPLICITLY claim this table's
		// position: a missing key must not read as "epoch 0" and match
		// an idle table, or a follower that never applied the table's
		// snapshot would be resumed into permanent unavailability.
		// And the claim must name THIS boot of the leader, not just its
		// term: a restarted leader re-reaches old epochs along a new
		// history, so a (generation, epoch) match from a previous boot —
		// easy for a follower bootstrapped from an old archive — must
		// cost a snapshot, never a silent resume onto a forked stream.
		claim, claimed := req.Positions[t]
		if ok && req.Generation == p.gen && req.Boot == p.boot && claimed && claim == epoch {
			data, err := json.Marshal(&Record{Type: RecordResume, Table: t, Epoch: epoch, Generation: p.gen, Boot: p.boot})
			if err != nil || !writeRec(data) {
				return
			}
			sub.offered[t].Store(epoch)
			continue
		}
		if !sendSnapshots([]string{t}) {
			return
		}
	}
	flush()

	ctx := r.Context()
	for {
		var data []byte
		select {
		case <-ctx.Done():
			return
		case <-sub.drop:
			return
		case <-sub.kick:
			// Woken for a gap with an idle stream; handled below.
		case data = <-sub.ch:
		}
		if sub.gapped.Swap(false) {
			// The queue overflowed (or a resync was forced): whatever is
			// buffered — including the record just dequeued — predates
			// the gap. Discard it all and re-snapshot every subscribed
			// table; records enqueued from here on carry epochs at or
			// past the snapshots, and the follower drops the overlap.
			for {
				select {
				case <-sub.ch:
					continue
				default:
				}
				break
			}
			p.resnapshots.Add(1)
			p.logf("replica: subscriber lagged; re-snapshotting %d table(s) in-stream", len(set))
			if !sendSnapshots(served) {
				return
			}
			flush()
			continue
		}
		if data == nil {
			continue // spurious kick with no gap
		}
		if !writeRec(data) {
			return
		}
		// Drain whatever else is ready before paying the flush, so a
		// bulk replay amortizes syscalls without adding latency when
		// the stream is quiet.
	drain:
		for {
			select {
			case more := <-sub.ch:
				if sub.gapped.Load() {
					// Overflow raced the drain: stop writing stale
					// records; the next loop iteration repairs.
					break drain
				}
				if !writeRec(more) {
					return
				}
			default:
				break drain
			}
		}
		flush()
	}
}

// ObserveHandler returns the POST /v2/replication/observe handler: the
// landing point for follower-forwarded observations.
func (p *Publisher) ObserveHandler() http.Handler {
	return http.HandlerFunc(p.handleObserve)
}

func (p *Publisher) handleObserve(w http.ResponseWriter, r *http.Request) {
	var req ObserveRequest
	body := http.MaxBytesReader(w, r.Body, maxObserveBody)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeJSONError(w, http.StatusBadRequest, fmt.Sprintf("decoding observe request: %v", err))
		return
	}
	if req.Generation != 0 && req.Generation != p.gen {
		// Fenced: the sender's worldview is pinned to a different leader
		// term. Stale terms (a follower still feeding a deposed leader's
		// lineage) must not teach this optimizer; a NEWER term tells this
		// leader it has itself been superseded. Either way the whole
		// batch is refused with a status the forwarder counts as
		// rejected, and loudly enough to show up in logs and /metrics.
		p.obsFenced.Inc()
		p.logf("replica: fenced observation batch at generation %d (leader at %d)", req.Generation, p.gen)
		writeJSONError(w, http.StatusConflict,
			fmt.Sprintf("observation batch fenced: generation %d, leader at %d", req.Generation, p.gen))
		return
	}
	var resp ObserveResponse
	for _, ob := range req.Observations {
		// The column check is Observe's; the shape is not judged here.
		q := oreo.Query{ID: ob.ID, Template: -1, Preds: query.FromWire(ob.Preds)}
		ok, err := p.core.Observe(ob.Table, q)
		switch {
		case err != nil:
			resp.Rejected++
			p.obsRejected.Inc()
		case ok:
			resp.Observed++
			p.obsObserved.Inc()
		default:
			resp.Dropped++
			p.obsDropped.Inc()
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(&resp)
}

// writeJSONError writes the server's standard error shape.
func writeJSONError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(serve.ErrorResponse{Error: msg})
}
