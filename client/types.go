package client

// Wire types. These mirror the server's JSON shapes field for field —
// the same query-log predicate encoding internal/persist writes, so a
// captured production log IS a valid request stream. They are defined
// here rather than imported so the SDK stays transitively standard
// library only: a downstream service embedding this client pulls in
// nothing of the server.

// Predicate is one single-column filter in the query-log wire
// encoding: numeric predicates carry an int64 and/or float64 bound
// family and the server selects by the target column's schema type;
// string predicates carry an IN set. Use the typed constructors
// (IntRange, FloatGE, StrIn, ...) rather than filling fields by hand.
type Predicate struct {
	Col   string   `json:"col"`
	HasLo bool     `json:"has_lo,omitempty"`
	HasHi bool     `json:"has_hi,omitempty"`
	LoI   int64    `json:"lo_i,omitempty"`
	HiI   int64    `json:"hi_i,omitempty"`
	LoF   float64  `json:"lo_f,omitempty"`
	HiF   float64  `json:"hi_f,omitempty"`
	In    []string `json:"in,omitempty"`
}

// IntRange returns a closed int64 range predicate lo <= col <= hi.
func IntRange(col string, lo, hi int64) Predicate {
	return Predicate{Col: col, LoI: lo, HiI: hi, HasLo: true, HasHi: true}
}

// IntGE returns an int64 lower-bound predicate col >= lo.
func IntGE(col string, lo int64) Predicate {
	return Predicate{Col: col, LoI: lo, HasLo: true}
}

// IntLE returns an int64 upper-bound predicate col <= hi.
func IntLE(col string, hi int64) Predicate {
	return Predicate{Col: col, HiI: hi, HasHi: true}
}

// FloatRange returns a closed float64 range predicate lo <= col <= hi.
func FloatRange(col string, lo, hi float64) Predicate {
	return Predicate{Col: col, LoF: lo, HiF: hi, HasLo: true, HasHi: true}
}

// FloatGE returns a float64 lower-bound predicate col >= lo.
func FloatGE(col string, lo float64) Predicate {
	return Predicate{Col: col, LoF: lo, HasLo: true}
}

// FloatLE returns a float64 upper-bound predicate col <= hi.
func FloatLE(col string, hi float64) Predicate {
	return Predicate{Col: col, HiF: hi, HasHi: true}
}

// StrEq returns an equality predicate col == v.
func StrEq(col, v string) Predicate { return Predicate{Col: col, In: []string{v}} }

// StrIn returns a membership predicate col IN (vs...).
func StrIn(col string, vs ...string) Predicate { return Predicate{Col: col, In: vs} }

// Query is one serving request. Table restricts it to one registered
// table; when empty the server routes each predicate to every table
// whose schema has its column. Execute asks for row-level execution
// (matched rows + Aggs) in addition to costing. ID, when set, is
// echoed on every result — replay clients should number from 1, since
// an explicit 0 is indistinguishable from "no ID" on the wire.
type Query struct {
	Table   string      `json:"table,omitempty"`
	ID      int         `json:"id,omitempty"`
	Preds   []Predicate `json:"preds"`
	Execute bool        `json:"execute,omitempty"`
	Aggs    []Aggregate `json:"aggs,omitempty"`
}

// Aggregate requests one execution aggregate.
type Aggregate struct {
	// Op is one of "count", "sum", "min", "max".
	Op string `json:"op"`
	// Col names the aggregated column; ignored for "count".
	Col string `json:"col,omitempty"`
}

// Count / Sum / Min / Max build Aggregates.
func Count() Aggregate         { return Aggregate{Op: "count"} }
func Sum(col string) Aggregate { return Aggregate{Op: "sum", Col: col} }
func Min(col string) Aggregate { return Aggregate{Op: "min", Col: col} }
func Max(col string) Aggregate { return Aggregate{Op: "max", Col: col} }

// AggregateResult is one computed aggregate. Type selects the value
// field: "int64" → ValueI, "float64" → ValueF, "string" → ValueS.
// Non-finite float results are spelled in ValueS ("NaN", "+Inf",
// "-Inf") with ValueF zero, since JSON numbers cannot carry them.
type AggregateResult struct {
	Op     string  `json:"op"`
	Col    string  `json:"col,omitempty"`
	Type   string  `json:"type"`
	Valid  bool    `json:"valid"`
	ValueI int64   `json:"value_i"`
	ValueF float64 `json:"value_f"`
	ValueS string  `json:"value_s"`
}

// Execution is the row-level half of an executed query's answer.
// DeltaRows counts delta-segment rows the scan examined on top of the
// survivor partitions (servers predating live writes omit it).
type Execution struct {
	MatchedRows     int               `json:"matched_rows"`
	PartitionsRead  int               `json:"partitions_read"`
	PartitionsTotal int               `json:"partitions_total"`
	RowsExamined    int               `json:"rows_examined"`
	RowsTotal       int               `json:"rows_total"`
	DeltaRows       int               `json:"delta_rows,omitempty"`
	Aggregates      []AggregateResult `json:"aggregates,omitempty"`
}

// TableResult is one table's answer for one query.
type TableResult struct {
	Table              string     `json:"table"`
	Cost               float64    `json:"cost"`
	Layout             string     `json:"layout"`
	NumPartitions      int        `json:"num_partitions"`
	SurvivorPartitions []int      `json:"survivor_partitions"`
	Reorganizing       bool       `json:"reorganizing,omitempty"`
	PendingLayout      string     `json:"pending_layout,omitempty"`
	DeltaRows          int        `json:"delta_rows,omitempty"`
	Observed           bool       `json:"observed"`
	QueryID            int        `json:"query_id,omitempty"`
	Execution          *Execution `json:"execution,omitempty"`
}

// BatchItem is one answer of a batch or stream: either Results or
// Error is set. Index echoes the query's position (batch) or input
// line (stream); ID echoes the query's wire ID.
type BatchItem struct {
	Index   int           `json:"index"`
	ID      int           `json:"id,omitempty"`
	Results []TableResult `json:"results,omitempty"`
	Error   string        `json:"error,omitempty"`
}

// Layout is GET /tables/{t}/layout.
type Layout struct {
	Table         string `json:"table"`
	Layout        string `json:"layout"`
	NumPartitions int    `json:"num_partitions"`
	TotalRows     int    `json:"total_rows"`
	PartitionRows []int  `json:"partition_rows"`
	Reorganizing  bool   `json:"reorganizing,omitempty"`
	PendingLayout string `json:"pending_layout,omitempty"`
	// DeltaRows is the unpartitioned delta segment's size: rows appended
	// since the last compaction, outside TotalRows until a fold.
	DeltaRows int `json:"delta_rows,omitempty"`
}

// TableStats is GET /tables/{t}/stats.
type TableStats struct {
	Table string `json:"table"`

	Queries          int     `json:"queries"`
	Reorganizations  int     `json:"reorganizations"`
	QueryCost        float64 `json:"query_cost"`
	ReorgCost        float64 `json:"reorg_cost"`
	States           int     `json:"states"`
	MaxStates        int     `json:"max_states"`
	Phases           int     `json:"phases"`
	CompetitiveBound float64 `json:"competitive_bound"`

	MemoHits    uint64 `json:"memo_hits"`
	MemoMisses  uint64 `json:"memo_misses"`
	MemoEntries int    `json:"memo_entries"`

	Served            uint64  `json:"served"`
	Observed          uint64  `json:"observed"`
	Dropped           uint64  `json:"dropped"`
	ServedCostSum     float64 `json:"served_cost_sum"`
	SnapshotCompiles  uint64  `json:"snapshot_compiles"`
	Executions        uint64  `json:"executions"`
	ExecutionRowsRead uint64  `json:"execution_rows_read"`
	QueueDepth        int     `json:"queue_depth"`
	QueueCapacity     int     `json:"queue_capacity"`

	// Live write path counters (servers predating live writes omit all
	// three): current delta size, rows appended this boot, delta folds.
	DeltaRows    int    `json:"delta_rows,omitempty"`
	RowsAppended uint64 `json:"rows_appended,omitempty"`
	Compactions  uint64 `json:"compactions,omitempty"`
}

// TraceEvent is one decision-trace event.
type TraceEvent struct {
	Seq    int    `json:"seq"`
	Kind   string `json:"kind"`
	Layout string `json:"layout"`
	Detail string `json:"detail,omitempty"`
}

// Trace is GET /tables/{t}/trace.
type Trace struct {
	Table  string       `json:"table"`
	Events []TraceEvent `json:"events"`
}

// Health is GET /healthz. It is follower-aware: Role distinguishes a
// leader (owns the decision loops) from a follower (replicates the
// leader's decision stream), Upstream names a follower's leader, and
// LayoutEpochs carries each table's monotonic decision sequence
// number on both sides — replication lag for a table is the leader's
// reading minus the follower's.
type Health struct {
	// Status is "ok", or "initializing" on a follower that has not yet
	// applied a first snapshot for every table.
	Status string `json:"status"`
	// Role is "leader" or "follower". Servers predating replication
	// leave it empty.
	Role string `json:"role"`
	// Generation is the monotonic leadership fencing term: the term a
	// leader publishes under (0 with no publisher attached), or the
	// highest term a follower has applied. Servers predating cluster
	// promotion omit it (reads as 0).
	Generation uint64 `json:"generation,omitempty"`
	// Upstream is the leader URL a follower replicates from; Advertise
	// is the URL a leader tells operators to point followers at.
	Upstream  string   `json:"upstream,omitempty"`
	Advertise string   `json:"advertise,omitempty"`
	Tables    []string `json:"tables"`
	// LayoutEpochs maps table name to its decision epoch: decisions
	// processed on a leader, last applied epoch on a follower.
	LayoutEpochs map[string]uint64 `json:"layout_epochs"`
	Served       uint64            `json:"served"`
	Observed     uint64            `json:"observed"`
	Dropped      uint64            `json:"dropped"`
	Queries      int               `json:"queries"`
	// QueueDepth is the observations waiting in decision queues across
	// all tables: Observed = Queries + QueueDepth up to scrape skew.
	// Servers predating the /metrics layer omit it (reads as 0).
	QueueDepth int `json:"queue_depth"`
	// DeltaRows maps each table to its uncompacted delta segment size.
	// Watch these drop to zero to know a compaction round has settled.
	// Servers predating live writes omit the map (reads as nil).
	DeltaRows map[string]int `json:"delta_rows,omitempty"`
}

// Row is one append-row: schema column name → value. Every schema
// column must be present; ints, floats, and strings matching the
// column types. Integer columns reject fractional values.
type Row map[string]any

// AppendResult acknowledges a durable append: as of Epoch the rows are
// visible to every query on the answering server. DeltaRows is the
// delta segment's size afterwards (0 right after an auto-compaction).
type AppendResult struct {
	Table     string `json:"table"`
	Epoch     uint64 `json:"epoch"`
	Appended  int    `json:"appended"`
	DeltaRows int    `json:"delta_rows"`
}

// CompactResult acknowledges an explicit compaction: Folded delta rows
// were rewritten into the base layout (0 when the delta was empty).
type CompactResult struct {
	Table     string `json:"table"`
	Epoch     uint64 `json:"epoch"`
	Folded    int    `json:"folded"`
	DeltaRows int    `json:"delta_rows"`
}
