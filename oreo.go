// Package oreo is the public API of this repository: a Go
// implementation of OREO (Online RE-organization Optimizer) from
// "Dynamic Data Layout Optimization with Worst-case Guarantees"
// (Rong, Liu, Sonje, Charikar — ICDE 2024).
//
// OREO watches an unknown query stream over a partitioned table and
// decides, online, when to reorganize the table into a different data
// layout so that the sum of query-processing cost and reorganization
// cost is minimized. Its decisions carry a provable worst-case
// guarantee: total cost at most 2·H(|Smax|) times the optimal offline
// schedule, where |Smax| is the largest number of candidate layouts
// ever held (Theorem IV.1 of the paper).
//
// # Quick start
//
//	schema := oreo.NewSchema(
//		oreo.Column{Name: "ts", Type: oreo.Int64},
//		oreo.Column{Name: "user", Type: oreo.String},
//	)
//	b := oreo.NewDatasetBuilder(schema, 0)
//	// ... b.AppendRow(...) for each record ...
//	ds := b.Build()
//
//	opt, err := oreo.New(ds, oreo.Config{
//		Alpha:      80,                              // reorg ≈ 80 full scans
//		Partitions: 64,
//		Generator:  oreo.NewQdTreeGenerator(),
//		InitialSort: []string{"ts"},                 // default time layout
//	})
//	// per query:
//	dec := opt.ProcessQuery(oreo.Query{Preds: []oreo.Predicate{
//		oreo.IntRange("ts", lo, hi),
//	}})
//	// dec.Cost is the fraction of the table scanned; dec.Reorganized
//	// reports whether OREO switched layouts before serving it.
//
// # Two components and one loop
//
// The paper's system is two components joined by one loop, and each
// exists once in this repository:
//
//   - the LAYOUT MANAGER (internal/manager): the candidate feed over a
//     sliding window and a reservoir sample, and the dynamic state
//     space itself — which layouts are states and under which IDs,
//     ε-admission over the reservoir, the most redundant state to prune
//     when the space is capped;
//   - the D-UMTS REORGANIZER (internal/mts): per-state counters, phases,
//     and the randomized choice of the next state, over whatever space
//     the manager currently holds;
//   - the loop (internal/policy): OREO.Observe mirrors the manager's
//     admissions and removals into the reorganizer and asks it for its
//     move; Stepper turns that move into the served layout and the cost
//     ledger — α charged when a switch is decided, the swap landing
//     ReorgDelay queries later, a swap in flight aborted when the policy
//     returns to the layout still serving.
//
// Optimizer.ProcessQuery is one Stepper.Step over an OREO built by
// policy.NewOREO, which also owns the seeding convention (candidate
// sampling draws from Seed, transitions from Seed + 1). The experiment
// harness behind cmd/oreobench builds its OREO through the same
// constructor and runs every policy, baselines included, through the
// same Stepper, so the figures describe the engine that ships.
//
// # Cost estimation: the compiled pruning engine
//
// Every decision OREO makes reduces to the service cost c(s, q) — the
// fraction of the table that partition metadata cannot skip for a query
// — evaluated thousands of times per period: the layout manager
// re-costs candidates against the full sliding window, the admission
// rule measures cost-vector distances, and the D-UMTS counters charge
// every state per query. That hot path runs on a compiled pruning
// engine (internal/prune) layered over three pieces:
//
//   - compilation: each predicate is bound once against the schema
//     (column index, type-resolved kind, typed bounds, interned IN-set
//     with precomputed Bloom hashes), so evaluation performs zero map
//     lookups and zero allocations;
//   - column-major statistics: every Partitioning carries a
//     struct-of-arrays mirror of its per-partition min/max/row-count
//     metadata (table.StatsBlock), so a range predicate sweeps two
//     contiguous arrays across all partitions instead of chasing one
//     pointer per partition;
//   - memoization: each Layout holds a bounded LRU of (query
//     fingerprint → cost), so re-costing a window against a layout that
//     has seen those queries is a lookup, not a scan.
//
// The engine is exact, not approximate: compiled costs are bit-for-bit
// equal to the interpreted reference (enforced by equivalence property
// tests), and the row-exact Query.MatchRow path is preserved for
// generators and soundness tests. Layout.Cost and friends use the
// engine transparently; Layout.Compile / CostCompiled let callers
// costing one query across many layouts share a single compilation.
//
// # Serving
//
// Every decision carries the survivor partition skip-list
// (Decision.SurvivorPartitions): the ascending IDs of partitions whose
// metadata could not rule the query out, extracted from the compiled
// engine's survivor bitmask. An execution layer reads exactly those
// partitions and provably skips the rest — the cost is the listed
// partitions' row mass over the table size, bit-for-bit. The list is
// never nil: a zero decision and an unsatisfiable query both yield an
// empty slice, so wire encoders emit [] on every path.
//
// In process, serving is two types. An Optimizer decides sequentially —
// D-UMTS counters advance one query at a time, in order — so it belongs
// to exactly one goroutine, its owner, and takes no lock. After any
// ProcessQuery the owner can take Optimizer.Snapshot: an immutable
// OptimizerSnapshot value (serving layout, pending reorganization,
// counters, all true at the same query boundary). Published however
// the owner likes, it is the whole read side: any number of goroutines
// cost queries and extract skip-lists from it with
// OptimizerSnapshot.CostQuery, lock-free and memo-free, while the owner
// keeps deciding. A MultiOptimizer is one such Optimizer per table,
// routed by predicate (Route); the decision trace is the one piece of
// state a non-owner may read from a live Optimizer (Events), and the
// recorder locks itself for that.
//
// Over the wire, the stack is a transport-neutral core under versioned
// codecs. serve.Core (internal/serve) owns every request semantic —
// validation, routing, costing, execution, the observation hand-off
// into per-table decision loops, typed errors, context cancellation —
// and knows nothing about HTTP; requests are answered from snapshots
// while observations drain through a bounded queue and one background
// consumer per table. The HTTP codecs mount two surfaces over it:
//
//   - /v1 — the original unary contract, frozen byte-for-byte and
//     pinned by golden-file tests; captured-log replay clients keep
//     working across every future redesign.
//   - /v2 — the same shapes plus POST /v2/query/stream: NDJSON in,
//     NDJSON out, one query per line answered in order from the
//     lock-free snapshot path, flush-controlled. Log replay pays
//     connection and encoder setup once per stream instead of once per
//     query (≥3x unary throughput on a 1k-query replay; measured ~8x —
//     see BenchmarkStreamVsUnary).
//
// The wire is declared once, in internal/wire: every request and
// answer type, the predicate shape rule, and a codec without
// reflection for the shapes every query carries — the server decodes
// QueryRequest and BatchRequest and encodes QueryResponse, BatchItem
// and BatchResponse with it, and the SDK, whose types are the same
// types by alias, does the reverse. Encoding writes the bytes
// json.Marshal writes. Decoding takes only the canonical spelling —
// plain ASCII strings, numbers the field's type holds, each known key
// at most once, no null — and anything else (an escaped or non-ASCII
// string, a key in another case, an unknown or repeated key, bytes
// after the value) is decoded by encoding/json from the same bytes,
// with the results and the error messages it has always had. The
// choice is made by the input and nothing configures it;
// oreo_wire_fallback_total counts the bodies that took the general
// path. Every other body (append rows, layout, stats, trace, health)
// is encoding/json's throughout. See BenchmarkWireCodec.
//
// cmd/oreoserve boots the stack (with slow-loris header/idle timeouts
// as flags); the public client package is the typed Go SDK — stdlib-
// only, speaking both surfaces with the query-log predicate encoding,
// mapping failures back to typed errors, and bulk-replaying traces
// through one stream (Client.Replay; cmd/oreoload -in LOG -stream
// -execute replays a log against a live server). See Example_serving in
// internal/serve for the raw wire loop and client's ExampleClient for
// the SDK loop.
// SaveStateWithData/LoadStateWithData round-trip a layout together
// with its statistics block, cost memo and live-written rows; that
// document is the framing of the replication stream's snapshot
// records, not a state file: no server writes or reads one on its own,
// and a restart is archive replay (see Cluster below).
//
// # Execution
//
// The execution layer (internal/exec) closes the serving loop: it is
// where layout decisions finally pay off as bytes not read. An
// exec.Store materializes the table's rows into one column-major block
// per partition of a layout, and a scan takes a query plus the
// survivor skip-list and reads exactly the listed blocks. There is one
// string dictionary in the system and it lives in the data: a Dataset
// stores each string column as an immutable table.StringDict plus one
// uint32 code per row, every dataset derived from it (samples, delta
// views, a compacted base whose tail brought no new value, the store's
// blocks) shares that dictionary and copies only codes, and the store
// keeps neither dictionaries nor code arrays of its own. Candidate
// generation reads the same codes: Qd-tree construction routes IN cuts
// over them and BuildPartitioning folds each partition's distinct
// codes into its metadata.
//
// A scan reads only what the partition metadata cannot answer, so each
// block of the table meets one of three outcomes. It is skipped when
// the survivor skip-list does not name it: never touched. It is covered
// when its metadata proves every predicate true for all its rows (an
// int64 range containing the block's [min, max]): count is the block's
// row count and sum a per-(block, numeric column) partial the store
// computed when it copied the block, so no column is read. Otherwise it
// is scanned: each remaining predicate sweeps its column into a
// reusable selection vector (typed int64/float64 range kernels with
// sentinel bounds; string IN-sets precompiled to a dictionary-code
// bitmap, so membership is one bit test per row instead of a string
// compare), then tight per-column aggregate loops (count, sum, min,
// max) fold only the selected indices — no table.Value boxing, and
// pooled per-scan scratch keeps the steady state at one allocation (the
// result slice). The kernels are branch-free in the data — the
// selection cursor advances by a computed 0/1 — so their cost per row
// does not depend on how many rows match (BenchmarkScanBySelectivity).
// Covered blocks still count in full in partitions_read and
// rows_examined, which report the cost model's c(s, q), not cells
// touched; oreo_scan_partitions_covered_total over
// oreo_executions_total says how many blocks per executed query were
// answered from summaries. Against the row-at-a-time engine the kernels
// are several times faster single-threaded; the serve-scan workload of
// BENCHMARK.json (go run -C bench .) measures them end to end and CI
// enforces a 4x floor on a scanned (not covered) shape
// (TestScanSpeedupBar).
//
// Survivor blocks are independent, so Options.Parallelism fans a scan
// across a bounded worker pool (serve defaults it to NumCPU,
// -scan-parallelism overrides). Workers fold per-block partial
// aggregates that are merged in skip-list order, which makes results
// bit-identical at every worker count; cancellation via
// Options.Context is checked before each block claim, and the pool
// never leaks goroutines. Row semantics stay identical to
// Query.MatchRow: the interpreted engine survives as
// Store.ScanInterpreted, the oracle that property/fuzz tests hold all
// engines to — parallel ≡ sequential ≡ interpreted, and pruned ≡ full,
// bitwise, across layouts, queries, and reorganizations.
//
// The serving layer executes on request: POST /v1/query with
// "execute": true scans the shard's store and returns matched-row
// counts and aggregates next to the cost. Each shard's store is
// rebuilt (dictionaries included) by its decision consumer whenever a
// reorganization lands and atomically swapped in lockstep with the
// optimizer snapshot, so the lock-free read path always sees a
// consistent (layout, data) pair. Real data comes in through
// internal/ingest: CSV files with header rows become typed datasets
// via schema inference (int64 → float64 → string widening), booted by
// oreoserve -csv DIR — see Example_execution in internal/serve for the
// loop in miniature.
//
// # Live writes
//
// Tables are not frozen at boot: POST /v2/tables/{table}/append lands
// new rows through serve.Core (client.Append / client.BulkLoad on the
// SDK side) into the table's *delta segment* — an append-only,
// unpartitioned column block: a still-open table.Builder whose View
// readers hold, with no statistics of its own. The delta has no
// partitions to prune, so every scan treats it as one extra
// always-surviving segment: costs count its rows as always read,
// executes re-check its rows row-by-row after the survivor blocks and
// merge its aggregate partial last, and therefore pruned ≡ unpruned and kernel ≡
// interpreted stay bitwise with writes in flight. Appended rows are
// queryable on the leader immediately — an append advances the table's
// epoch on the caller's goroutine, under the per-table lock that every
// epoch takes, so it never waits for a layout decision (candidate
// generation runs outside that lock, on the table's decision loop),
// and every change moves the table's (epoch, snapshot, base, delta)
// state through one transition function (serve's step), so readers
// always see a coherent (layout, store, delta) triple.
//
// A compaction folds the delta into the base: the transition
// concatenates the delta rows onto the dataset and starts a fresh
// builder for the next delta; the leader extends the serving layout's
// row→partition assignment over them by placing each new row into the
// partition whose metadata it widens least, names the compacted layout
// after the epoch the fold lands at, and
// rebuilds the optimizer over the grown dataset (same resolved Config,
// same converged layout as Initial). Compaction triggers automatically
// past a delta-size threshold or explicitly via POST /v2/tables/
// {table}/compact. The replication epoch covers data and layout as one
// sequence: append batches and compaction records ship in-stream
// (see Replication below), and a snapshot record's persist.StateDoc
// carries the data too — the compacted tail and the pending delta, with
// the statistics block gating integrity exactly as it does for layouts
// — so a leader restarting from its archive (see Cluster below) serves
// every appended row the archive holds. Per-table oreo_rows_appended_total, oreo_delta_rows, and
// oreo_compactions_total land on /metrics, and /healthz reports each
// table's live delta size. See client's ExampleClient_BulkLoad for a
// leader + follower converging over live appends.
//
// # Replication
//
// One process is the ceiling of the snapshot read path; replication
// (internal/replica) removes it by splitting the system into one
// leader and N read replicas sharing a single decision stream. The
// leader runs the optimizer exactly as before and publishes every
// processed query as an epoch-numbered record on
// POST /v2/replication/subscribe: a subscription starts with one
// snapshot per table — the serving layout in the persist framing
// (row→partition RLE + statistics block + memo seed) plus the
// optimizer counters — and continues with one decision record per
// query (cost, counters, and the new layout's RLE only when the
// serving layout switched).
//
// Followers (oreoserve -follow URL, or replica.Follower in process)
// run no optimizer and keep no state of their own: they load their own
// copy of the boot data, decode each record back into the update the
// leader's transition emitted, and feed it to the same transition in
// their own serve.Core, then serve the entire read surface — /v1 and
// /v2 unary, batch, stream, execute, layout/stats/trace — through the
// same code the leader uses. Both sides ran one function over the same
// inputs, so answers are bit-identical to the leader's at the same
// epoch (differentially tested step by step, property-tested across
// reorganizations and forced re-snapshots). The statistics
// block in each snapshot is the integrity gate: if the follower's data
// differs from the leader's, replication fails loudly rather than
// serving divergent costs. Queries answered at a follower are
// forwarded upstream (batched, bounded, drop-and-count — never
// backpressure) so the leader's optimizer keeps learning from edge
// traffic; gaps in the stream trigger transparent in-stream
// re-snapshots, and a severed connection or leader restart is survived
// by resubscribe-with-resume. Both sides expose per-table
// layout_epochs on /healthz, so replication lag is two curls. See
// ExampleFollower in internal/replica for a leader + two followers in
// miniature.
//
// # Cluster
//
// internal/cluster closes the loop around the fleet itself: a control
// plane that sizes the follower set to the observed load and survives
// the loss of the leader — built entirely on the public surfaces
// above (/healthz, /metrics, the replication stream, the client SDK);
// the controller holds no privileged channel into any member.
//
// The control loop follows the collector → decision → actuator split.
// cluster.Controller polls every member each tick and derives Signals:
// achieved QPS (request-counter deltas summed fleet-wide), the worst
// member's interval p99 (histogram-bucket deltas between scrapes), and
// the worst oreo_replication_lag_epochs reading. A pluggable Policy
// turns signals into a follower target: ThresholdPolicy scales up when
// any ceiling (QPS/node, p99, lag) is crossed and down only when the
// smaller fleet would sit comfortably inside a guard fraction of every
// ceiling — the hysteresis band is what prevents flapping;
// QueueingPolicy instead sizes the fleet as an M/M/c system, picking
// the smallest server count whose Erlang-C mean queueing delay meets a
// target wait. cluster.ProcessActuator turns targets into oreoserve
// -follow OS processes: at most one spawn or retire per tick, bounded
// to [min, max], rate-limited by a cool-down, crashed followers reaped
// and their slots reused, and every action logged and counted
// (oreo_cluster_spawns_total / _retires_total / _reaps_total, plus the
// controller's own qps/p99/lag/target gauges). cmd/oreoctl is the
// operational wrapper: point it at a leader and a binary and it runs
// the loop, serving its own /metrics.
//
// Failover is the same loop's other output. When the leader fails its
// health poll FailThreshold ticks in a row, the controller promotes
// the healthy follower that is at least as far along as every other on
// every table's (generation, epoch) — none if no follower is, and the
// next tick retries: POST /v2/cluster/promote asks the
// follower to build a live optimizer per table over the base, delta,
// layout and counters its core already holds (all engines before any
// table flips), flip its serve.Core to the leader role, and activate
// the replication endpoints it pre-mounted at boot. The
// actuator releases the promoted process from management — a new
// leader must never be "scaled down" — the loop repoints at it, and
// the surviving followers, whose upstream was fixed at boot, are
// retargeted: each is replaced by a fresh process tracking the new
// leader, since left alone they would retry the dead address forever.
//
// Promotion is safe against the failure that motivates it: the old
// leader coming back. The replication Generation is a monotonic
// fencing term — a fresh leader publishes generation 1, a promoted one
// applied+1 — carried on every stream record, subscribe request, and
// forwarded-observation batch. A subscriber claiming a newer term than
// its upstream is refused outright; an observation batch with a stale
// term is rejected with 409 and counted
// (oreo_replication_observations_received_total{result="fenced"}); a
// follower that sees a record with a term older than what it has
// already applied stops replicating with a terminal error rather than
// apply a deposed leader's decisions. Both roles expose their term as
// generation on /healthz. The term outlives the process that adopted
// it because it lives in the archived stream's record headers: a leader
// restarting from its -archive republishes at the archived term — not
// 1, which would fence it out of its own fleet, and not the next one,
// which only a promotion may claim.
// Within a term, a random per-process boot ID distinguishes two lives
// of the same leader: a subscriber resumes only when term, boot, and
// position all match, so a restarted leader that re-reaches old epochs
// re-snapshots its subscribers rather than silently resuming them onto
// a forked history. And because a promoted follower continues from
// the very state the shared transition built, nothing copied or
// converted, the fleet's answers stay bit-identical across the failover
// — property-tested at every epoch against a never-failed control run.
//
// A leader's publisher can archive its own stream
// (replica.PublisherConfig.ArchiveDir): every record subscribers
// receive, appended verbatim to append-only NDJSON segments (one per
// publisher lifetime, each opened with a snapshot of every table; torn
// tails from crashes are tolerated, mid-segment corruption fails
// loudly) inside the decision hook, before the update it carries is
// acknowledged. The archive decouples follower bootstrap from leader
// liveness: a follower started with -archive DIR replays the archive
// offline before touching the network, so its first live subscription
// is a cheap resume instead of a full leader snapshot — new capacity
// does not tax the leader it is meant to relieve. And it is how a
// leader comes back: oreoserve -archive on a leader keeps the fleet's
// own log, and a restart is replica.Recover — the archive replayed
// through the follower's apply path (from each table's newest snapshot
// on), then promoted in place — so a cold boot, a promotion and a restart are the only ways to lead a
// table, and the last two are one. A restart stands at the archive's
// tail, which holds every acknowledged update: a kill -9 loses nothing
// acknowledged, an OS crash at most the un-fsynced last 256 records.
// The whole arc is pinned piece by piece: scale-up under load
// (cluster's TestControllerScalesOnSignals), leader kill, promotion and
// survivor retarget (TestControllerPromotesOnLeaderFailure,
// TestProcessActuatorRetarget), the fenced old generation (replica's
// TestObserveFencedWithoutStateChange), the promoted leader serving on
// bit-identically (TestPromotionBitIdentityEveryEpoch), and a follower
// bootstrapped from the deposed leader's archive tracking the promoted
// one (TestArchiverRoundTripAndBootstrap, TestPromoteDerivesBootRows).
//
// # Observability
//
// Every serving role — leader and follower alike — mounts GET /metrics,
// Prometheus text exposition rendered from a stdlib-only registry
// (internal/metrics) whose instruments ARE the serving counters: the
// shards, the HTTP layer, /stats, and /healthz all read the same atomic
// cells, so the surfaces cannot drift (/healthz additionally exposes
// queue_depth, closing the identity observed = queries + queue_depth).
// Recording on the hot path is one atomic add; per-endpoint request
// latency lands in fixed-bucket histograms (exponential bounds from
// 50µs, shared with the load generator so client- and server-side
// percentiles compare directly).
//
// The catalog, abridged (all counters *_total, histograms with
// _bucket/_sum/_count):
//
//   - HTTP: oreo_http_requests_total{endpoint,code},
//     oreo_http_request_duration_seconds{endpoint},
//     oreo_wire_fallback_total{endpoint} (query, batch: request bodies;
//     stream: lines — outside the canonical wire shape and so decoded
//     by encoding/json instead of the purpose-built codec; 0 against
//     the SDK, and a steady non-zero rate means some client spells
//     its requests in a way the fast path does not cover)
//   - serving, per {table}: oreo_queries_served_total,
//     oreo_observations_total, oreo_observations_dropped_total,
//     oreo_observation_queue_depth / _capacity,
//     oreo_executions_total, oreo_scan_rows_examined_total,
//     oreo_scan_partitions_covered_total (survivor blocks an executed
//     scan answered from block summaries because partition metadata
//     proved every predicate true for them; flat on a workload whose
//     predicates never contain a block's range),
//     oreo_parallel_scans_total, oreo_snapshot_compiles_total,
//     oreo_served_cost_total
//   - decision loop, per {table}: oreo_decisions_total,
//     oreo_reorganizations_total, oreo_decision_query_cost_total,
//     oreo_decision_reorg_cost_total, oreo_memo_hits_total /
//     _misses_total / oreo_memo_entries
//   - identity: oreo_role{role}, oreo_scan_parallelism, and per {table}
//     oreo_replication_epoch — the same series name on every role, so
//     lag is a subtraction across scrapes
//   - replication, leader side: oreo_replication_subscribers,
//     oreo_replication_published_total, oreo_replication_resnapshots_total,
//     oreo_replication_subscriber_queue_depth,
//     oreo_replication_observations_received_total{result},
//     oreo_replication_lag_epochs{table} (slowest subscriber's backlog)
//   - replication, follower side: oreo_replication_snapshots_applied_total,
//     oreo_replication_decisions_applied_total, resumes/gaps/reconnects,
//     oreo_replication_forwarded_total / _dropped / _rejected,
//     oreo_replication_forward_queue_depth,
//     oreo_replication_lag_epochs{table} (decoded-but-not-applied)
//
// cmd/oreoload closes the measurement loop from the outside: a load
// generator on the client SDK with both loop disciplines — closed
// (N workers, one request in flight each: sustained throughput) and
// open (queries paced at a target arrival rate: does it keep up) —
// over unary or stream transports, reporting achieved QPS and
// p50/p90/p99/max from the same histogram buckets the server exports.
// BENCHMARK.json declares the repo's own benchmark (go run -C bench .:
// four workloads, with a traced read ladder from Core through unary
// and stream to a follower); cmd/oreoload -in LOG -stream -execute
// reports a replayed log's percentiles, QPS and matched rows. See
// Example_metrics in internal/replica for a leader + follower pair
// scraped under load.
//
// # Static analysis
//
// The invariants above are load-bearing enough to enforce at compile
// time. cmd/oreovet is a stdlib-only analyzer driver (go/ast +
// go/types over `go list -export`; no golang.org/x/tools) that CI runs
// as `go run ./cmd/oreovet ./...`; the analyzers live in
// internal/analysis, each with a seeded-violation testdata package:
//
//   - wirefreeze: the JSON shape of every /v1 wire type in
//     internal/wire is diffed against the checked-in manifest
//     internal/wire/testdata/wire.manifest — renaming a tag,
//     reordering fields, or toggling omitempty fails the build.
//     Deliberate (reviewed) changes regenerate it with
//     `go run ./cmd/oreovet -update-wire-manifest`.
//   - maporder: map iteration feeding an encoder, fmt output, or an
//     escaping append must sort first — Go's randomized map order
//     must never reach a wire or a report.
//   - floatbits: `==`/`!=` on floats is flagged (bit-identity is the
//     replication contract; compare math.Float64bits), and strconv
//     float text formatting is banned inside the persist/replica
//     encode boundary.
//   - blockingsend: channel sends on serving and replication paths
//     must be select-with-default (drop, count it) or carry a
//     justification — the bounded-queue discipline, enforced.
//   - atomicdiscipline: a field published via sync/atomic is never
//     read or written directly, and typed atomics are never copied.
//   - stdlibonly: client/, internal/metrics and internal/wire are
//     transitively standard library only — each imports the standard
//     library and, at most, another package on this list.
//
// Findings are suppressed line-by-line with
// `//oreovet:ignore <analyzer> <reason>`; the reason is mandatory — a
// reason-less directive is itself a diagnostic and suppresses nothing.
// internal/testleak complements the static suite at runtime: a
// dependency-free goroutine-leak checker (snapshot-diff with a grace
// window) armed in the lifecycle-heavy serve and replication tests.
//
// The subpackages under internal/ implement the substrates (columnar
// tables, query model, the pruning engine, layout generators, the
// D-UMTS reorganizer, the layout manager, baselines, the experiment
// harness, and the HTTP serving and replication layers); this package
// re-exports everything a downstream user needs.
package oreo

import (
	"fmt"
	"math"

	"oreo/internal/layout"
	"oreo/internal/manager"
	"oreo/internal/mts"
	"oreo/internal/policy"
	"oreo/internal/query"
	"oreo/internal/table"
	"oreo/internal/trace"
)

// Re-exported substrate types. Aliases keep the internal packages as
// the single source of truth while making every type usable (and
// constructible) through the public package.
type (
	// Schema describes a table's columns.
	Schema = table.Schema
	// Column is one named, typed column.
	Column = table.Column
	// ColType enumerates supported column types.
	ColType = table.ColType
	// Value is a dynamically typed cell value.
	Value = table.Value
	// Dataset is an immutable columnar table.
	Dataset = table.Dataset
	// DatasetBuilder accumulates rows for a Dataset.
	DatasetBuilder = table.Builder
	// Partitioning is a materialized row→partition mapping with
	// partition-level metadata.
	Partitioning = table.Partitioning

	// Query is a conjunction of predicates.
	Query = query.Query
	// Predicate is a single-column filter.
	Predicate = query.Predicate

	// Layout is a candidate data layout (one D-UMTS state).
	Layout = layout.Layout
	// Generator produces layouts from (dataset, workload, k).
	Generator = layout.Generator
)

// Column type constants.
const (
	Int64   = table.Int64
	Float64 = table.Float64
	String  = table.String
)

// NewSchema constructs a schema; see table.NewSchema.
func NewSchema(cols ...Column) *Schema { return table.NewSchema(cols...) }

// NewDatasetBuilder returns a dataset builder with a capacity hint.
func NewDatasetBuilder(schema *Schema, capacity int) *DatasetBuilder {
	return table.NewBuilder(schema, capacity)
}

// Int / Float / Str box cell values.
func Int(v int64) Value     { return table.Int(v) }
func Float(v float64) Value { return table.Float(v) }
func Str(v string) Value    { return table.Str(v) }

// Predicate constructors (see internal/query for semantics).
func IntRange(col string, lo, hi int64) Predicate     { return query.IntRange(col, lo, hi) }
func IntGE(col string, lo int64) Predicate            { return query.IntGE(col, lo) }
func IntLE(col string, hi int64) Predicate            { return query.IntLE(col, hi) }
func FloatRange(col string, lo, hi float64) Predicate { return query.FloatRange(col, lo, hi) }
func FloatGE(col string, lo float64) Predicate        { return query.FloatGE(col, lo) }
func FloatLE(col string, hi float64) Predicate        { return query.FloatLE(col, hi) }
func StrEq(col, v string) Predicate                   { return query.StrEq(col, v) }
func StrIn(col string, vs ...string) Predicate        { return query.StrIn(col, vs...) }

// Layout generator constructors.
func NewQdTreeGenerator() Generator { return layout.NewQdTreeGenerator() }
func NewZOrderGenerator(numCols int, fallback ...string) Generator {
	return layout.NewZOrderGenerator(numCols, fallback...)
}
func NewSortGenerator(cols ...string) Generator { return layout.NewSortGenerator(cols...) }

// Config parameterizes an Optimizer. Zero values select the paper's
// defaults where one exists.
type Config struct {
	// Alpha is the relative reorganization cost: the expected ratio of
	// reorganization time to a full-scan query (paper default 80;
	// measured 60–100 on the paper's testbed). Must be > 1; zero
	// selects 80.
	Alpha float64
	// Gamma biases layout-switch choices toward layouts that performed
	// well in the previous phase; zero selects the paper default 1.
	// Set NoPredictor to force the classic uniform choice (γ = 0).
	Gamma float64
	// NoPredictor disables the transition predictor (γ = 0).
	NoPredictor bool
	// Epsilon is the admission distance threshold for new layouts
	// (paper default 0.08). Zero selects the default.
	Epsilon float64
	// WindowSize is the sliding window of recent queries candidates are
	// generated from (paper default 200). Zero selects the default.
	WindowSize int
	// Period is the number of queries between candidate generations;
	// zero means WindowSize.
	Period int
	// Partitions is the target partition count k for generated layouts.
	// Zero derives about one partition per 1500 rows, clamped to [8, 128].
	Partitions int
	// MaxStates caps the dynamic state space (0 = unbounded); when
	// exceeded the most redundant non-current layout is pruned.
	MaxStates int
	// Generator builds candidate layouts; nil selects a Qd-tree
	// generator.
	Generator Generator
	// InitialSort names the column(s) of the default starting layout
	// (typically the arrival-time column). Required unless Initial is
	// set.
	InitialSort []string
	// Initial overrides the starting layout entirely.
	Initial *Layout
	// TraceCapacity enables decision tracing: the optimizer retains the
	// most recent TraceCapacity events (admissions, rejections, prunes,
	// switches, phase boundaries), readable via Events / DumpTrace.
	// Zero disables tracing.
	TraceCapacity int
	// ReorgDelay models background reorganization (§III-B, §VI-D5):
	// after a switch decision, this many queries are still served on the
	// outgoing layout before the swap lands. The reorganization cost is
	// charged at decision time either way. Zero applies switches
	// immediately.
	ReorgDelay int
	// Seed drives all randomness (candidate sampling and MTS
	// transitions), making runs reproducible.
	Seed int64
}

// Decision reports the outcome of processing one query.
type Decision struct {
	// Cost is the fraction of the table scanned to serve the query on
	// the layout in effect (0 ≤ Cost ≤ 1).
	Cost float64
	// Reorganized reports whether OREO switched layouts before this
	// query (one reorganization of relative cost Alpha was charged).
	Reorganized bool
	// Layout is the layout the query was served on.
	Layout *Layout

	// query is retained for lazy survivor extraction.
	query Query
	// survivors caches a pre-computed skip-list (set by the lock-free
	// CostQuery read path, which has already evaluated the mask).
	survivors []int
}

// SurvivorPartitions returns the skip-list complement: the ascending
// IDs of Layout's partitions whose metadata could not rule the query
// out — the partitions an execution layer must actually read. Every
// partition absent from the list is provably skippable, and Cost is
// exactly the row mass of the listed partitions divided by the table
// size. The list is extracted lazily from the compiled engine's
// survivor bitmask, so decisions that never ask for it (the common case
// on the sequential decision path, which answers costs from the memo)
// pay nothing; each call on a ProcessQuery decision re-evaluates one
// metadata sweep, while CostQuery decisions carry it pre-computed.
//
// The result is never nil — a zero Decision yields an empty list, the
// same shape an unsatisfiable query does — so wire encoders emit []
// on every path, never null.
func (d Decision) SurvivorPartitions() []int {
	if d.survivors != nil {
		return d.survivors
	}
	if d.Layout == nil {
		return []int{}
	}
	_, ids := d.Layout.CostSurvivorsSnapshot(d.query)
	if ids == nil {
		ids = []int{}
	}
	return ids
}

// Stats summarizes an Optimizer's activity.
type Stats struct {
	// Queries processed so far.
	Queries int
	// Reorganizations performed (layout switches).
	Reorganizations int
	// QueryCost is the cumulative fraction-scanned cost.
	QueryCost float64
	// ReorgCost is Alpha × Reorganizations.
	ReorgCost float64
	// States is the current dynamic state-space size |S|.
	States int
	// MaxStates is |Smax|, the largest space seen.
	MaxStates int
	// Phases is the number of MTS phases started.
	Phases int
	// CompetitiveBound is the worst-case guarantee 2·H(|Smax|) for the
	// space seen so far.
	CompetitiveBound float64
}

// Optimizer is the end-to-end OREO system: layout manager + D-UMTS
// reorganizer over one dataset. It is not safe for concurrent use: one
// goroutine owns it and shares Snapshot values with the rest. Events
// and DumpTrace alone may be called from any goroutine.
type Optimizer struct {
	cfg Config
	pol *policy.OREO
	// loop turns pol's decisions into the serving layout and the cost
	// ledger; under ReorgDelay its Serving trails pol's logical state.
	loop *policy.Stepper
	rec  *trace.Recorder
}

// New constructs an Optimizer over the dataset.
func New(ds *Dataset, cfg Config) (*Optimizer, error) {
	// NaN passes every ordered comparison below and an infinity most of
	// them, and each would then fail silently inside the policy layers:
	// counters never reach a NaN α, and no distance is "within" a NaN ε,
	// so the state space grows without bound.
	for _, f := range []struct {
		name string
		v    float64
	}{{"Alpha", cfg.Alpha}, {"Gamma", cfg.Gamma}, {"Epsilon", cfg.Epsilon}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return nil, fmt.Errorf("oreo: %s must be finite, got %g", f.name, f.v)
		}
	}
	//oreovet:ignore floatbits zero-value config sentinel; Alpha is caller-set, exact
	if cfg.Alpha == 0 {
		cfg.Alpha = policy.DefaultAlpha
	}
	if cfg.Alpha <= 1 {
		return nil, fmt.Errorf("oreo: Alpha must be > 1, got %g", cfg.Alpha)
	}
	if cfg.Gamma < 0 {
		return nil, fmt.Errorf("oreo: Gamma must be non-negative (0 selects the default; NoPredictor forces 0), got %g", cfg.Gamma)
	}
	//oreovet:ignore floatbits zero-value config sentinel; Gamma is caller-set, exact
	if cfg.Gamma == 0 && !cfg.NoPredictor {
		cfg.Gamma = policy.DefaultGamma
	}
	if cfg.NoPredictor {
		cfg.Gamma = 0
	}
	//oreovet:ignore floatbits zero-value config sentinel; Epsilon is caller-set, exact
	if cfg.Epsilon == 0 {
		cfg.Epsilon = policy.DefaultEpsilon
	}
	if cfg.Epsilon < 0 || cfg.Epsilon > 1 {
		return nil, fmt.Errorf("oreo: Epsilon must be in [0,1], got %g", cfg.Epsilon)
	}
	if cfg.WindowSize == 0 {
		cfg.WindowSize = policy.DefaultWindow
	}
	if cfg.WindowSize < 0 {
		return nil, fmt.Errorf("oreo: WindowSize must be positive, got %d", cfg.WindowSize)
	}
	// The remaining count-valued knobs reject negatives outright rather
	// than letting them flow into the policy layers, where each would
	// fail somewhere different and worse: a negative Partitions panics
	// the partitioner, a negative Period turns candidate generation off
	// silently, negative MaxStates disables the state-space cap it was
	// meant to tighten, and negative TraceCapacity/ReorgDelay read as
	// their zero defaults while looking like configuration.
	if cfg.Partitions < 0 {
		return nil, fmt.Errorf("oreo: Partitions must be non-negative (0 derives from table size), got %d", cfg.Partitions)
	}
	if cfg.Period < 0 {
		return nil, fmt.Errorf("oreo: Period must be non-negative (0 means WindowSize), got %d", cfg.Period)
	}
	if cfg.MaxStates < 0 {
		return nil, fmt.Errorf("oreo: MaxStates must be non-negative (0 means unbounded), got %d", cfg.MaxStates)
	}
	if cfg.TraceCapacity < 0 {
		return nil, fmt.Errorf("oreo: TraceCapacity must be non-negative (0 disables tracing), got %d", cfg.TraceCapacity)
	}
	if cfg.ReorgDelay < 0 {
		return nil, fmt.Errorf("oreo: ReorgDelay must be non-negative (0 applies switches immediately), got %d", cfg.ReorgDelay)
	}
	if cfg.Partitions == 0 {
		cfg.Partitions = policy.DefaultPartitions(ds.NumRows())
	}
	if cfg.Generator == nil {
		cfg.Generator = layout.NewQdTreeGenerator()
	}

	initial := cfg.Initial
	if initial == nil {
		if len(cfg.InitialSort) == 0 {
			return nil, fmt.Errorf("oreo: either Initial or InitialSort is required")
		}
		for _, c := range cfg.InitialSort {
			if _, ok := ds.Schema().Index(c); !ok {
				return nil, fmt.Errorf("oreo: InitialSort column %q not in schema", c)
			}
		}
		initial = layout.NewSortGenerator(cfg.InitialSort...).Generate(ds, nil, cfg.Partitions)
	}

	pol := policy.NewOREO(ds, cfg.Generator, initial, policy.OREOConfig{
		Feed: manager.FeedConfig{
			WindowSize: cfg.WindowSize,
			Period:     cfg.Period,
			Partitions: cfg.Partitions,
		},
		MTS:       mts.Config{Alpha: cfg.Alpha, Gamma: cfg.Gamma},
		Epsilon:   cfg.Epsilon,
		MaxStates: cfg.MaxStates,
	}, cfg.Seed)

	o := &Optimizer{cfg: cfg, pol: pol, loop: policy.NewStepper(pol, cfg.ReorgDelay)}
	if cfg.TraceCapacity > 0 {
		o.rec = trace.NewRecorder(cfg.TraceCapacity)
		pol.SetRecorder(o.rec)
	}
	return o, nil
}

// ProcessQuery feeds one query through OREO: the layout manager may
// admit new candidate layouts, the reorganizer may switch states, and
// the query is costed on the layout in effect. With ReorgDelay > 0,
// switch decisions charge their cost immediately but the serving layout
// swaps only after the delay elapses, modeling background
// reorganization; a decision to return to the layout still serving
// aborts the swap in flight and is not a reorganization (Reorganized
// tracks Stats.Reorganizations exactly). The rule itself lives in
// policy.Stepper, which the experiment harness runs too.
func (o *Optimizer) ProcessQuery(q Query) Decision {
	cost, reorganized := o.loop.Step(q)
	return Decision{Cost: cost, Reorganized: reorganized, Layout: o.loop.Serving, query: q}
}

// CurrentLayout returns the layout queries are currently served on.
// Under ReorgDelay this can trail the reorganizer's logical state
// (PendingLayout reports an in-flight background reorganization).
func (o *Optimizer) CurrentLayout() *Layout { return o.loop.Serving }

// PendingLayout returns the layout a background reorganization is
// building, or nil when none is in flight.
func (o *Optimizer) PendingLayout() *Layout { return o.loop.Pending }

// Stats returns cumulative counters and the current worst-case bound.
func (o *Optimizer) Stats() Stats {
	reorg := o.pol.Reorganizer()
	return Stats{
		Queries:          o.loop.Queries,
		Reorganizations:  o.loop.Switches,
		QueryCost:        o.loop.QueryCost,
		ReorgCost:        o.cfg.Alpha * float64(o.loop.Switches),
		States:           reorg.NumStates(),
		MaxStates:        reorg.MaxSpace(),
		Phases:           reorg.Phases(),
		CompetitiveBound: reorg.CompetitiveBound(),
	}
}

// Alpha returns the configured relative reorganization cost.
func (o *Optimizer) Alpha() float64 { return o.cfg.Alpha }

// Config returns the optimizer's resolved configuration — every zero
// value replaced by the default New selected. Hosts that rebuild an
// optimizer over grown data (the serving layer's compactor does, after
// folding a live-write delta into the base) construct the successor
// from this, overriding only Initial, so all tuning carries across the
// rebuild.
func (o *Optimizer) Config() Config { return o.cfg }
