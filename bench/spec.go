package main

// The names declared here are the benchmark's contract: BENCHMARK.json
// at the repository root lists exactly these workloads and metrics, and
// bench_test.go fails when the two drift apart. Metrics are always
// emitted in this order.

type workloadSpec struct {
	Name string
	Why  string
}

type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: allowed worsening as a share of the median
}

const (
	decideDrift = "decide-drift"
	serveCost   = "serve-cost"
	serveScan   = "serve-scan"
	serveWrite  = "serve-write"
)

var workloads = []workloadSpec{
	{decideDrift, "the paper's algorithm: one goroutine drives Optimizer.ProcessQuery over a drifting TPC-H stream; layout generation dominates and serve, exec, client and replica do no work"},
	{serveCost, "costing-only unary queries over loopback HTTP from a stationary 13-template mix that fits the cost memo; transport, JSON and serve dominate, exec is idle"},
	{serveScan, "executed count+sum queries over the v2 stream from a pool twice the cost memo's capacity; exec.Store.Scan dominates, so a kernel or pruning gain shows here and not on serve-cost"},
	{serveWrite, "a closed-loop 64-row append writer beside a 500 q/s open-loop reader on a leader with one follower; appends, folds and decisions share one consumer, so read and write costs trade visibly"},
}

// endToEnd is what a caller of the system sees, measured with tracing
// off. Every workload reports every one of them. "op" is the workload's
// primary operation: on decide-drift a ProcessQuery call (throughput
// counts all of them, the two latencies are those of the every-200th
// call that carries a candidate generation), on serve-cost and serve-scan
// a query, on serve-write an acknowledged 64-row append. op_tail_us is
// the highest of p90/p99 that keeps at least ten samples beyond it at the
// benchmark's sizes: p90 on decide-drift, p99 elsewhere. A bound is three
// times the widest quartile spread seen on any workload in two sets of
// ten seeds, rounded up and capped at 0.25 (README.md, Sizing evidence).
var endToEnd = []metricSpec{
	{"ops_per_s", "1/s", "higher", 0.12},
	{"op_p50_us", "us", "lower", 0.12},
	{"op_tail_us", "us", "lower", 0.25},
	{"rss_peak_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer comes from the traced run only. A workload reports 0 for a
// layer it does not exercise.
var perLayer = []metricSpec{
	// decide-drift: where a decision's time goes, and what it decided.
	{"oreo.process_query_p50_ns", "ns", "lower", 0},
	{"oreo.decide_stall_p50_ms", "ms", "lower", 0},
	{"oreo.decide_stall_p90_ms", "ms", "lower", 0},
	{"oreo.total_cost_ratio", "ratio", "lower", 0},
	{"oreo.reorganizations", "count", "lower", 0},
	{"oreo.states_max", "count", "lower", 0},
	{"oreo.phases", "count", "lower", 0},
	{"oreo.unattributed_share", "ratio", "lower", 0},
	{"layout.generate_ms", "ms", "lower", 0},
	{"table.build_partitioning_ms", "ms", "lower", 0},
	{"manager.admit_us", "us", "lower", 0},
	{"manager.admitted_ratio", "ratio", "higher", 0},
	{"mts.observe_ns", "ns", "lower", 0},
	// Costing on the serving snapshot.
	{"prune.compile_ns", "ns", "lower", 0},
	{"prune.cost_miss_ns", "ns", "lower", 0},
	{"prune.cost_hit_ns", "ns", "lower", 0},
	{"prune.memo_hit_ratio", "ratio", "higher", 0},
	{"prune.survivors_us", "us", "lower", 0},
	// Execution on the serving snapshot's partitioning.
	{"exec.store_build_ms", "ms", "lower", 0},
	{"exec.scan_us", "us", "lower", 0},
	{"exec.scan_full_us", "us", "lower", 0},
	{"exec.rows_examined_per_query", "rows", "lower", 0},
	{"exec.partitions_read_ratio", "ratio", "lower", 0},
	// The read ladder, one client, rung by rung.
	{"serve.core_answer_us", "us", "lower", 0},
	{"serve.handler_us", "us", "lower", 0},
	{"client.unary_us", "us", "lower", 0},
	{"client.transport_us", "us", "lower", 0},
	{"client.stream_us", "us", "lower", 0},
	{"replica.follower_stream_us", "us", "lower", 0},
	// The tail of the traced two-client window and the runtime under it.
	{"client.query_p999_us", "us", "lower", 0},
	{"client.query_max_ms", "ms", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_p99_us", "us", "lower", 0},
	{"runtime.sched_latency_p99_us", "us", "lower", 0},
	{"runtime.alloc_bytes_per_op", "B", "lower", 0},
	{"runtime.goroutines_max", "count", "lower", 0},
	// The leader's decision consumer over the traced window.
	{"serve.observed", "count", "higher", 0},
	{"serve.dropped", "count", "lower", 0},
	{"serve.drop_ratio", "ratio", "lower", 0},
	{"serve.decisions", "count", "higher", 0},
	{"serve.reorganizations", "count", "lower", 0},
	{"serve.queue_depth_max", "count", "lower", 0},
	{"serve.snapshot_compiles", "count", "higher", 0},
	// The write path.
	{"serve.append_core_ms", "ms", "lower", 0},
	{"serve.compactions", "count", "higher", 0},
	{"serve.compaction_ack_ms", "ms", "lower", 0},
	{"serve.read_p50_us", "us", "lower", 0},
	{"serve.read_stall_p99_ms", "ms", "lower", 0},
	{"serve.reader_lateness_p99_ms", "ms", "lower", 0},
	{"table.delta_rows_max", "rows", "lower", 0},
	{"replica.lag_epochs_max", "count", "lower", 0},
	{"replica.lag_ms_p50", "ms", "lower", 0},
	{"replica.published", "count", "higher", 0},
	{"replica.resnapshots", "count", "lower", 0},
	{"persist.save_ms", "ms", "lower", 0},
	{"persist.load_ms", "ms", "lower", 0},
	{"persist.snapshot_bytes", "B", "lower", 0},
	{"persist.bytes_per_row", "B", "lower", 0},
	// Tracing overhead: the traced window's op median over an untraced
	// window's in the same process.
	{"bench.trace_overhead_ratio", "ratio", "lower", 0},
}
