package wire

import "fmt"

// The serving API's JSON shapes. internal/serve answers with them, the
// client SDK sends and reads them, internal/persist's query log and a
// follower's forwarded observation carry PredicateJSON. Both serve and
// client re-export every one under its public name as a type alias, so
// each shape is declared here and nowhere else.
//
// The first fifteen are the frozen /v1 contract, pinned field for field
// by testdata/wire.manifest (the wirefreeze analyzer) and byte for byte
// by internal/serve's goldens.

// PredicateJSON is the wire form of one predicate, and the query log's
// (LoggedQuery): numeric predicates carry both
// the int64 and float64 bound families and the evaluator selects by the
// column's schema type, so every constructible predicate round-trips.
//
// Clients must therefore populate the family matching the target
// column's type (or both, as captured logs do): bounds of the other
// family read as their zero values. This matters most with CSV-booted
// tables, where one fractional cell legally infers an expected-integer
// column as float64 — check GET /v1/tables/{t}/layout or the boot log
// for the inferred types before hand-writing integer-only bounds.
type PredicateJSON struct {
	Col   string   `json:"col"`
	HasLo bool     `json:"has_lo,omitempty"`
	HasHi bool     `json:"has_hi,omitempty"`
	LoI   int64    `json:"lo_i,omitempty"`
	HiI   int64    `json:"hi_i,omitempty"`
	LoF   float64  `json:"lo_f,omitempty"`
	HiF   float64  `json:"hi_f,omitempty"`
	In    []string `json:"in,omitempty"`
}

// Check is the one shape rule of a wire predicate, wherever it comes
// from — a request, a query log, a trace: it names a column, and it is
// either a numeric range (HasLo and/or HasHi) or an IN set, never both
// and never neither. Whether the column exists is the schema's
// question, asked later by whoever knows the table.
func (p PredicateJSON) Check() error {
	if p.Col == "" {
		return fmt.Errorf("predicate with empty column")
	}
	numeric := p.HasLo || p.HasHi
	if numeric && len(p.In) > 0 {
		return fmt.Errorf("predicate on %q mixes numeric bounds and an IN set", p.Col)
	}
	if !numeric && len(p.In) == 0 {
		return fmt.Errorf("predicate on %q has neither bounds nor IN set", p.Col)
	}
	return nil
}

// CheckPreds holds every predicate of a conjunction to Check; the error
// names the first that fails by its position.
func CheckPreds(preds []PredicateJSON) error {
	for i, p := range preds {
		if err := p.Check(); err != nil {
			return fmt.Errorf("pred %d: %w", i, err)
		}
	}
	return nil
}

// QueryRequest is the body of POST /v1/query (and one element of a
// batch). Table restricts the query to one registered table; when empty
// the predicates are routed to every table whose schema contains their
// column, the multi-table rule of multitable.Route.
//
// With Execute set, the server does not stop at the skip-list: it scans
// the survivor partitions of its materialized per-layout store,
// re-checks the predicates per row, and returns matched-row counts (and
// any requested Aggs) in each TableResult.Execution. ID, when set, is
// echoed back on every result so log-replay clients can correlate
// answers with their captured queries.
type QueryRequest struct {
	Table string          `json:"table,omitempty"`
	ID    int             `json:"id,omitempty"`
	Preds []PredicateJSON `json:"preds"`
	// Execute requests row-level execution against the survivor
	// partitions in addition to costing.
	Execute bool `json:"execute,omitempty"`
	// Aggs are the aggregates to fold over the matched rows; only
	// consulted when Execute is set. On a routed (table-less) query each
	// aggregate runs on the queried tables that have its column.
	Aggs []AggregateJSON `json:"aggs,omitempty"`
}

// AggregateJSON requests one execution aggregate.
type AggregateJSON struct {
	// Op is one of "count", "sum", "min", "max".
	Op string `json:"op"`
	// Col names the aggregated column; ignored for "count".
	Col string `json:"col,omitempty"`
}

// AggregateResultJSON is one computed aggregate. Type tells which value
// field carries the result: "int64" → value_i (counts, integer sums and
// extremes), "float64" → value_f, "string" → value_s.
//
// JSON numbers cannot carry NaN or ±Inf, so a non-finite float result
// (a sum folding a NaN cell, or overflowing) is spelled in value_s —
// "NaN", "+Inf", or "-Inf" — with value_f zero. Finite results leave
// value_s empty for float64-typed aggregates.
type AggregateResultJSON struct {
	Op  string `json:"op"`
	Col string `json:"col,omitempty"`
	// Type is the result type: "int64", "float64", or "string".
	Type string `json:"type"`
	// Valid is false for min/max over zero matched rows (no extreme
	// exists) and for an int64 sum that overflowed (no representable
	// result); counts are always valid.
	Valid  bool    `json:"valid"`
	ValueI int64   `json:"value_i"`
	ValueF float64 `json:"value_f"`
	ValueS string  `json:"value_s"`
}

// ExecutionJSON is the row-level half of an executed query's answer:
// what a scan over exactly the survivor partitions found. RowsExamined
// over RowsTotal reproduces the reported Cost — the paper's c(s, q)
// made observable — while MatchedRows counts the rows that actually
// satisfied every predicate after the per-row re-check.
type ExecutionJSON struct {
	MatchedRows     int `json:"matched_rows"`
	PartitionsRead  int `json:"partitions_read"`
	PartitionsTotal int `json:"partitions_total"`
	RowsExamined    int `json:"rows_examined"`
	RowsTotal       int `json:"rows_total"`
	// DeltaRows counts the delta-segment rows this scan examined on top
	// of the survivor partitions (the delta is unpartitioned, so every
	// execution reads all of it). Included in RowsExamined and RowsTotal;
	// omitted while the delta is empty, which keeps pre-live-write
	// responses byte-identical.
	DeltaRows int `json:"delta_rows,omitempty"`
	// Aggregates holds one entry per requested aggregate, in request
	// order (absent aggregates were requested on a column this table
	// does not have — routed queries only).
	Aggregates []AggregateResultJSON `json:"aggregates,omitempty"`
}

// BatchRequest is the body of POST /v1/query/batch.
type BatchRequest struct {
	Queries []QueryRequest `json:"queries"`
}

// TableResult is one table's serving answer for one query.
type TableResult struct {
	Table string `json:"table"`
	// Cost is the fraction of the table scanned: the row mass of
	// SurvivorPartitions over the table size.
	Cost float64 `json:"cost"`
	// Layout names the layout the query was costed on.
	Layout string `json:"layout"`
	// NumPartitions is the layout's partition count, so callers can
	// derive the skipped set as the complement of the survivor list.
	NumPartitions int `json:"num_partitions"`
	// SurvivorPartitions is the skip-list complement: ascending IDs of
	// the partitions an execution layer must actually read. Never null
	// (an unsatisfiable query yields an empty list).
	SurvivorPartitions []int `json:"survivor_partitions"`
	// Reorganizing reports an in-flight background reorganization into
	// PendingLayout as of the answering snapshot.
	Reorganizing  bool   `json:"reorganizing,omitempty"`
	PendingLayout string `json:"pending_layout,omitempty"`
	// DeltaRows is the size of the table's delta segment as of the
	// answering snapshot. The delta is always scanned (it has no
	// partitions to skip), so Cost already folds it in as an extra
	// always-survivor mass; this reports the row count behind that.
	// Omitted while empty, which keeps append-free responses
	// byte-identical to the pre-live-write contract.
	DeltaRows int `json:"delta_rows,omitempty"`
	// Observed reports whether the query was enqueued for the decision
	// loop. False means the observation queue was full and the query was
	// sampled out of reorganization decisions (it was still answered).
	Observed bool `json:"observed"`
	// QueryID echoes the request's ID (absent when the request carried
	// none — an explicit ID of 0 is indistinguishable from no ID, so
	// replay clients should number from 1).
	QueryID int `json:"query_id,omitempty"`
	// Execution reports the row-level scan outcome when the request set
	// Execute. The scan ran against the store snapshot paired with the
	// layout named above, reading only SurvivorPartitions.
	Execution *ExecutionJSON `json:"execution,omitempty"`
}

// QueryResponse is the body of a successful POST /v1/query: one result
// per affected table, in table registration order.
type QueryResponse struct {
	Results []TableResult `json:"results"`
}

// BatchItem is one entry of a batch response: either Results or Error
// is set. A batch is never failed wholesale by one bad query — the
// partial-failure contract — so callers must check per-item errors.
type BatchItem struct {
	// Index is the query's position in the request, echoed back so
	// partial failures stay attributable.
	Index int `json:"index"`
	// ID echoes the query's wire ID, so clients replaying captured logs
	// can correlate each answer with its source query even after
	// reordering (absent when the request carried none).
	ID      int           `json:"id,omitempty"`
	Results []TableResult `json:"results,omitempty"`
	Error   string        `json:"error,omitempty"`
}

// BatchResponse is the body of POST /v1/query/batch.
type BatchResponse struct {
	Results []BatchItem `json:"results"`
}

// LayoutResponse is the body of GET /v1/tables/{table}/layout.
type LayoutResponse struct {
	Table         string `json:"table"`
	Layout        string `json:"layout"`
	NumPartitions int    `json:"num_partitions"`
	TotalRows     int    `json:"total_rows"`
	// PartitionRows maps partition ID to row count — the sizing a
	// caller needs to turn survivor lists into I/O estimates.
	PartitionRows []int  `json:"partition_rows"`
	Reorganizing  bool   `json:"reorganizing,omitempty"`
	PendingLayout string `json:"pending_layout,omitempty"`
	// DeltaRows is the unpartitioned delta segment's current size —
	// rows appended since the last compaction, sitting outside
	// TotalRows/PartitionRows until a fold moves them into the base.
	// Omitted while empty.
	DeltaRows int `json:"delta_rows,omitempty"`
}

// StatsResponse is the body of GET /v1/tables/{table}/stats: the
// optimizer's cumulative counters, the costing memo's effectiveness,
// and the shard's serving metrics, all from one snapshot.
type StatsResponse struct {
	Table string `json:"table"`

	// Optimizer counters (oreo.Stats).
	Queries          int     `json:"queries"`
	Reorganizations  int     `json:"reorganizations"`
	QueryCost        float64 `json:"query_cost"`
	ReorgCost        float64 `json:"reorg_cost"`
	States           int     `json:"states"`
	MaxStates        int     `json:"max_states"`
	Phases           int     `json:"phases"`
	CompetitiveBound float64 `json:"competitive_bound"`

	// Costing-memo effectiveness for the serving layout. These count
	// the *decision path* only: window re-costing, admission checks, and
	// candidate evaluation inside the background decision loop. The
	// request read path deliberately bypasses the memo (it compiles
	// fresh against the immutable snapshot so requests never serialize
	// on the memo lock) and is counted by SnapshotCompiles instead — in
	// a serve-only deployment with a quiet decision loop these stay
	// near zero while SnapshotCompiles tracks the request rate.
	MemoHits    uint64 `json:"memo_hits"`
	MemoMisses  uint64 `json:"memo_misses"`
	MemoEntries int    `json:"memo_entries"`

	// Shard serving metrics (the request read path).
	Served        uint64  `json:"served"`
	Observed      uint64  `json:"observed"`
	Dropped       uint64  `json:"dropped"`
	ServedCostSum float64 `json:"served_cost_sum"`
	// SnapshotCompiles counts the lock-free compile-and-sweep
	// evaluations the read path served against layout snapshots — the
	// memo-bypassing complement of MemoHits/MemoMisses above.
	SnapshotCompiles uint64 `json:"snapshot_compiles"`
	// Executions counts served requests that also ran a row-level scan
	// over their survivor partitions, and ExecutionRowsRead the rows
	// those scans examined.
	Executions        uint64 `json:"executions"`
	ExecutionRowsRead uint64 `json:"execution_rows_read"`
	QueueDepth        int    `json:"queue_depth"`
	QueueCapacity     int    `json:"queue_capacity"`

	// Live write path counters: current delta segment size, rows landed
	// through appends this boot, and compactions folded. All omitted
	// while zero so write-free deployments keep the original body.
	DeltaRows    int    `json:"delta_rows,omitempty"`
	RowsAppended uint64 `json:"rows_appended,omitempty"`
	Compactions  uint64 `json:"compactions,omitempty"`
}

// TraceEventJSON is one decision-trace event.
type TraceEventJSON struct {
	Seq    int    `json:"seq"`
	Kind   string `json:"kind"`
	Layout string `json:"layout"`
	Detail string `json:"detail,omitempty"`
}

// TraceResponse is the body of GET /v1/tables/{table}/trace.
type TraceResponse struct {
	Table  string           `json:"table"`
	Events []TraceEventJSON `json:"events"`
}

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
}

// HealthResponse is the body of GET /healthz. The three shard totals
// are the authoritative serving view: Served counts every answered
// request, split into Observed (enqueued for the decision loop, or —
// on a follower — forwarded upstream) and Dropped (sampled out under
// overload). Queries counts what the decision loops have actually
// *processed* so far — it trails Observed while queues drain and
// excludes Dropped entirely, so it understates traffic under load and
// must not be read as a request count.
//
// Unlike the /v1 response shapes, /healthz is an operational endpoint,
// not part of the frozen replay contract: fields are added as the
// topology grows (Role, LayoutEpochs, Upstream/Advertise arrived with
// replication), always additively.
type HealthResponse struct {
	// Status is "ok", or "initializing" on a follower that has not yet
	// applied a first snapshot for every table.
	Status string `json:"status"`
	// Role is "leader" (owns decision loops) or "follower" (replica
	// applying the leader's decision stream).
	Role string `json:"role"`
	// Generation is the monotonic leadership fencing term: on a leader,
	// the term it publishes its decision stream under (0 when no
	// publisher is attached); on a follower, the highest term it has
	// applied. Two curls tell an operator whether a follower is still
	// tracking a deposed leader. Arrived with cluster promotion,
	// additively (see the doc comment above).
	Generation uint64 `json:"generation"`
	// Upstream is the leader URL a follower replicates from; Advertise
	// is the URL a leader told operators to point followers at. Both
	// informational.
	Upstream  string   `json:"upstream,omitempty"`
	Advertise string   `json:"advertise,omitempty"`
	Tables    []string `json:"tables"`
	// LayoutEpochs maps each table to its monotonic decision sequence
	// number — on a leader, decisions processed this boot; on a
	// follower, the last epoch applied from the stream. Replication lag
	// for a table is the difference between the two readings, which is
	// why the same field exists on both sides: two curls give the lag.
	LayoutEpochs map[string]uint64 `json:"layout_epochs"`
	// Served / Observed / Dropped are summed over all table shards.
	Served   uint64 `json:"served"`
	Observed uint64 `json:"observed"`
	Dropped  uint64 `json:"dropped"`
	// Queries is the total processed by the decision loops across all
	// tables (observed queries that have drained, plus any direct use).
	// On a follower it reflects the leader's replicated counters.
	Queries int `json:"queries"`
	// QueueDepth is the observations currently waiting in decision
	// queues across all tables, making the Observed/Queries relation
	// auditable in one reading: Observed = Queries + QueueDepth (up to
	// scrape skew), so a persistent gap is a lagging decision loop, not
	// lost counts. Always 0 on a follower (no local decision queues).
	QueueDepth int `json:"queue_depth"`
	// ScanParallelism is the worker count execute-path scans run with
	// (serve.Config.ScanParallelism after defaulting/clamping), and
	// ParallelScans counts the executions across all tables that
	// actually used more than one worker. Parallelism never changes
	// results — scans are bit-identical at every setting — so these are
	// capacity-planning signals, not correctness ones.
	ScanParallelism int    `json:"scan_parallelism"`
	ParallelScans   uint64 `json:"parallel_scans"`
	// DeltaRows maps each table to its current delta segment size: rows
	// appended but not yet folded into the base layout. A settle loop
	// watches these drop to zero after a compaction round. Arrived with
	// the live write path, additively (see the doc comment above).
	DeltaRows map[string]int `json:"delta_rows"`
}

// AppendRequest is the body of POST /v2/tables/{table}/append. Each
// row maps every schema column name to its value; numbers are decoded
// with full precision (the server reads them as json.Number), integer
// columns reject fractional values, and extra or missing keys fail the
// whole batch — nothing lands on a partial error.
type AppendRequest struct {
	Rows []map[string]any `json:"rows"`
}

// AppendResponse acknowledges a durable append: as of Epoch, the
// Appended rows are visible to every query on this server (they landed
// in the delta segment, which every scan reads). DeltaRows is the
// delta size after the append — or after the auto-compaction it
// triggered, in which case it is typically 0.
type AppendResponse struct {
	Table     string `json:"table"`
	Epoch     uint64 `json:"epoch"`
	Appended  int    `json:"appended"`
	DeltaRows int    `json:"delta_rows"`
}

// CompactResponse acknowledges POST /v2/tables/{table}/compact: Folded
// delta rows were rewritten into the base layout (0 when the delta was
// already empty — an idempotent no-op that does not advance Epoch).
type CompactResponse struct {
	Table     string `json:"table"`
	Epoch     uint64 `json:"epoch"`
	Folded    int    `json:"folded"`
	DeltaRows int    `json:"delta_rows"`
}
