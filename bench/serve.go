package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"oreo/client"
	"oreo/internal/exec"
	"oreo/internal/layout"
	"oreo/internal/prune"
	"oreo/internal/query"
	"oreo/internal/serve"
	"oreo/internal/table"
)

// numClients is fixed so that numbers from boxes with different core
// counts describe the same load.
const numClients = 2

var scanAggs = []exec.AggSpec{{Op: exec.AggCount}, {Op: exec.AggSum, Col: "l_extendedprice"}}

// scanOracle holds, for the first queries of the scan pool, what a full
// scan of the boot rows finds. It is computed on a store the benchmark
// builds itself, so it does not depend on any layout the program picks.
type scanOracle []exec.Result

func buildScanOracle(ds *table.Dataset, qs []query.Query, n int) (scanOracle, error) {
	if n > len(qs) {
		n = len(qs)
	}
	part := layout.NewSortGenerator(timeColumn).Generate(ds, nil, 8).Part
	store, err := exec.NewStore(ds, part)
	if err != nil {
		return nil, fmt.Errorf("oracle store: %w", err)
	}
	oracle := make(scanOracle, n)
	for i := range oracle {
		if oracle[i], err = store.ScanFull(qs[i], scanAggs, exec.Options{}); err != nil {
			return nil, fmt.Errorf("oracle scan: %w", err)
		}
	}
	return oracle, nil
}

// sumTolerance bounds the relative difference of a float sum taken in
// another row order: the served layout visits rows in partition order,
// the oracle in its own, and float addition does not commute bitwise.
const sumTolerance = 1e-9

// check compares a served execution with the oracle: matched rows and
// count exactly, the float sum to within reordering error.
func (o scanOracle) check(idx int, res []client.TableResult) bool {
	if !oneTable(idx, res) || res[0].Execution == nil {
		return false
	}
	if idx >= len(o) {
		return true
	}
	ex, want := res[0].Execution, o[idx]
	if ex.MatchedRows != want.Matched || len(ex.Aggregates) != 2 {
		return false
	}
	count, sum := ex.Aggregates[0], ex.Aggregates[1]
	if !count.Valid || count.ValueI != int64(want.Matched) || !sum.Valid {
		return false
	}
	return math.Abs(sum.ValueF-want.Aggs[1].F) <= sumTolerance*math.Max(1, math.Abs(want.Aggs[1].F))
}

// serveReadInputs are the generated inputs of serve-cost or serve-scan.
type serveReadInputs struct {
	ds     *table.Dataset
	qs     []query.Query
	pool   []client.Query
	stream bool
	check  resultCheck
}

func genServeRead(cfg runConfig) (*serveReadInputs, error) {
	in := &serveReadInputs{ds: genTable(cfg.size.serveRows, cfg.seed, saltData), check: oneTable}
	if cfg.workload == serveCost {
		in.qs = genMix(cfg.size.costPool, cfg.seed)
		in.pool = clientPool(in.qs, false)
		return in, nil
	}
	in.qs = genMix(cfg.size.scanPool, cfg.seed)
	in.pool = clientPool(in.qs, true)
	in.stream = true
	oracle, err := buildScanOracle(in.ds, in.qs, cfg.size.oracleQueries)
	if err != nil {
		return nil, err
	}
	in.check = oracle.check
	return in, nil
}

// setUpServeRead is one timed set-up: boot the leader and run the
// warm-up pass that forces the lazy work a first caller would pay (the
// execution store build, the first snapshot compiles).
func setUpServeRead(cfg runConfig, in *serveReadInputs, tr *tracer, out *outcome) (*cluster, float64, error) {
	t0 := time.Now()
	c, err := bootLeader(in.ds, cfg.seed, 0, tr)
	if err != nil {
		return nil, 0, err
	}
	warm := queryLoop(c.cl, in.pool, in.stream, numClients, forCount(cfg.size.warmOps), nil, in.check)
	elapsed := time.Since(t0).Seconds()
	out.attempted += int64(len(warm.lat))
	out.failed += warm.failed
	return c, elapsed, nil
}

func runServeRead(cfg runConfig, tr *tracer) (*outcome, error) {
	start := time.Now()
	in, err := genServeRead(cfg)
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	out.notef("inputs and oracle generated in %.2fs", time.Since(start).Seconds())
	if cfg.trace {
		return runServeReadTraced(cfg, tr, in, out)
	}

	resetPeakRSS()
	c, setups, err := setUpRepeatedly(cfg.size.setupReps, func() (*cluster, float64, error) {
		return setUpServeRead(cfg, in, nil, out)
	})
	if err != nil {
		return nil, err
	}
	defer c.close()

	settle := queryLoop(c.cl, in.pool, in.stream, numClients, forDuration(cfg.size.settle), nil, in.check)
	window := queryLoop(c.cl, in.pool, in.stream, numClients, forDuration(seconds(cfg.seconds)), nil, in.check)
	rss := peakRSSMB()

	out.attempted += int64(len(settle.lat) + len(window.lat))
	out.failed += settle.failed + window.failed
	out.setEndToEnd(len(window.lat), window.elapsed, window.lat, 0.99, rss, setups)
	return out, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// pollMax samples, every 100 ms until stopped, the readings that only
// have a meaningful maximum.
type pollMax struct {
	queueDepth int
	deltaRows  int
	goroutines int
}

func startPoller(core *serve.Core) (stop func() pollMax) {
	var mu sync.Mutex
	var max pollMax
	done := make(chan struct{})
	var wg sync.WaitGroup
	sample := func() {
		st, err := core.Stats(tableName)
		mu.Lock()
		defer mu.Unlock()
		if err == nil {
			if st.QueueDepth > max.queueDepth {
				max.queueDepth = st.QueueDepth
			}
			if st.DeltaRows > max.deltaRows {
				max.deltaRows = st.DeltaRows
			}
		}
		if g := runtime.NumGoroutine(); g > max.goroutines {
			max.goroutines = g
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			sample()
			select {
			case <-done:
				return
			case <-t.C:
			}
		}
	}()
	return func() pollMax {
		close(done)
		wg.Wait()
		return max
	}
}

// observeWindow runs window between two readings of the runtime's and
// the leader's counters, polling the maxima meanwhile, and fills the
// runtime.* and consumer serve.* metrics for it. ops is how many
// operations the window turned out to hold.
func observeWindow(core *serve.Core, out *outcome, window func() (ops int)) error {
	before, err := core.Stats(tableName)
	if err != nil {
		return err
	}
	rtBefore := readRuntime()
	stopPoll := startPoller(core)
	ops := window()
	max := stopPoll()
	rtAfter := readRuntime()
	after, err := core.Stats(tableName)
	if err != nil {
		return err
	}
	runtimeDelta(out, rtBefore, rtAfter, ops, max.goroutines)
	out.set("table.delta_rows_max", float64(max.deltaRows), 1)

	observed := float64(after.Observed - before.Observed)
	dropped := float64(after.Dropped - before.Dropped)
	out.set("serve.observed", observed, 1)
	out.set("serve.dropped", dropped, 1)
	out.set("serve.drop_ratio", ratio(dropped, observed+dropped), 1)
	out.set("serve.decisions", float64(after.Queries-before.Queries), 1)
	out.set("serve.reorganizations", float64(after.Reorganizations-before.Reorganizations), 1)
	out.set("serve.queue_depth_max", float64(max.queueDepth), 1)
	out.set("serve.snapshot_compiles", float64(after.SnapshotCompiles-before.SnapshotCompiles), 1)
	out.set("serve.compactions", float64(after.Compactions-before.Compactions), 1)
	return nil
}

func runServeReadTraced(cfg runConfig, tr *tracer, in *serveReadInputs, out *outcome) (*outcome, error) {
	c, _, err := setUpServeRead(cfg, in, tr, out)
	if err != nil {
		return nil, err
	}
	defer c.close()
	queryLoop(c.cl, in.pool, in.stream, numClients, forDuration(cfg.size.settle), nil, in.check)

	// The same two-client loop as the timed run, first untraced, then
	// traced: their medians give the tracing overhead, and the traced
	// one's tail is read beside the runtime's and the consumer's counters
	// over exactly that window.
	plain := queryLoop(c.cl, in.pool, in.stream, numClients, forDuration(seconds(cfg.seconds/4)), nil, in.check)
	var traced loopStats
	err = observeWindow(c.srv.Core(), out, func() int {
		traced = queryLoop(c.cl, in.pool, in.stream, numClients, forDuration(seconds(cfg.seconds/2)), tr, in.check)
		return len(traced.lat)
	})
	if err != nil {
		return nil, err
	}
	out.attempted += int64(len(plain.lat) + len(traced.lat))
	out.failed += plain.failed + traced.failed

	n := len(traced.lat)
	out.set("client.query_p999_us", us(percentile(traced.lat, 0.999)), n)
	out.set("client.query_max_ms", ms(percentile(traced.lat, 1)), n)
	out.set("bench.trace_overhead_ratio", ratio(float64(percentile(traced.lat, 0.5)), float64(percentile(plain.lat, 0.5))), n)

	if err := readLadder(cfg, c, in, tr, out); err != nil {
		return nil, err
	}
	return out, probeSnapshot(cfg, c, in, tr, out)
}

// readLadder climbs the read path one rung at a time with a single
// client, the same pool at every rung, so that each rung's median minus
// the one below it is what that rung adds.
func readLadder(cfg runConfig, c *cluster, in *serveReadInputs, tr *tracer, out *outcome) error {
	n := cfg.size.ladderOps
	core := c.srv.Core()
	ctx := context.Background()

	answers := make([]time.Duration, n)
	for i := range answers {
		req := coreRequest(in.pool[i%len(in.pool)])
		var res []serve.TableResult
		var err error
		answers[i] = tr.timed("serve.core_answer", 0, nextOp.Add(1), func() { res, err = core.Answer(ctx, req) })
		out.attempted++
		if err != nil || len(res) != 1 {
			out.failed++
		}
	}
	out.set("serve.core_answer_us", us(medianDuration(answers)), n)

	mark := tr.mark()
	unary := queryLoop(c.cl, in.pool, false, 1, forCount(n), tr, in.check)
	handler := tr.durations("serve.handler", mark)
	out.set("client.unary_us", us(percentile(unary.lat, 0.5)), n)
	out.set("serve.handler_us", us(medianDuration(handler)), len(handler))
	out.set("client.transport_us", us(percentile(unary.lat, 0.5)-percentile(handler, 0.5)), n)

	stream := queryLoop(c.cl, in.pool, true, 1, forCount(n), tr, in.check)
	out.set("client.stream_us", us(percentile(stream.lat, 0.5)), n)

	if err := c.addFollower(); err != nil {
		return err
	}
	follower := queryLoop(c.fcl, in.pool, true, 1, forCount(n), tr, in.check)
	out.set("replica.follower_stream_us", us(percentile(follower.lat, 0.5)), n)

	out.attempted += int64(len(unary.lat) + len(stream.lat) + len(follower.lat))
	out.failed += unary.failed + stream.failed + follower.failed
	return nil
}

// probeSnapshot times the costing and execution layers directly on the
// layout the leader is serving when the ladder ends.
func probeSnapshot(cfg runConfig, c *cluster, in *serveReadInputs, tr *tracer, out *outcome) error {
	snap, ok := c.srv.Core().Snapshot(tableName)
	if !ok {
		return fmt.Errorf("no serving snapshot for %s", tableName)
	}
	serving := snap.Serving
	schema := in.ds.Schema()
	n := cfg.size.probeOps
	at := func(i int) query.Query { return in.qs[i%len(in.qs)] }

	compile := make([]time.Duration, n)
	for i := range compile {
		compile[i] = tr.timed("prune.compile", 0, 0, func() { prune.Compile(schema, at(i)) })
	}
	out.set("prune.compile_ns", float64(medianDuration(compile)), n)

	// A fresh engine over the serving partitioning: the first pass over
	// the pool misses the cost memo, the second hits it — unless the pool
	// is larger than the memo, in which case the LRU has already evicted
	// what the second pass asks for. The hit ratio says which.
	fresh := layout.New("bench-probe", schema, serving.Part)
	cqs := fresh.CompileWorkload(in.qs)
	var miss, hit []time.Duration
	for pass := 0; pass < 2; pass++ {
		for _, cq := range cqs {
			before := fresh.Engine().Stats().Hits
			d := tr.timed("prune.cost", 0, 0, func() { fresh.CostCompiled(cq) })
			if fresh.Engine().Stats().Hits > before {
				hit = append(hit, d)
			} else {
				miss = append(miss, d)
			}
		}
	}
	memo := fresh.Engine().Stats()
	out.set("prune.cost_miss_ns", float64(medianDuration(miss)), len(miss))
	out.set("prune.cost_hit_ns", float64(medianDuration(hit)), len(hit))
	out.set("prune.memo_hit_ratio", ratio(float64(memo.Hits), float64(memo.Hits+memo.Misses)), len(hit)+len(miss))

	survivors := make([]time.Duration, n)
	for i := range survivors {
		survivors[i] = tr.timed("prune.survivors", 0, 0, func() { serving.CostSurvivorsSnapshot(at(i)) })
	}
	out.set("prune.survivors_us", us(medianDuration(survivors)), n)

	var store *exec.Store
	var err error
	build := tr.timed("exec.store_build", 0, 0, func() { store, err = exec.NewStore(in.ds, serving.Part) })
	if err != nil {
		return fmt.Errorf("exec.NewStore: %w", err)
	}
	out.set("exec.store_build_ms", ms(build), 1)

	n = cfg.size.ladderOps
	opts := exec.Options{Parallelism: runtime.NumCPU()}
	scan, full := make([]time.Duration, n), make([]time.Duration, n)
	var rows, parts float64
	for i := 0; i < n; i++ {
		q := at(i)
		_, ids := serving.CostSurvivorsSnapshot(q)
		var pruned, unpruned exec.Result
		scan[i] = tr.timed("exec.scan", 0, 0, func() { pruned, err = store.Scan(q, ids, scanAggs, opts) })
		if err != nil {
			return fmt.Errorf("exec.Scan: %w", err)
		}
		full[i] = tr.timed("exec.scan_full", 0, 0, func() { unpruned, err = store.ScanFull(q, scanAggs, opts) })
		if err != nil {
			return fmt.Errorf("exec.ScanFull: %w", err)
		}
		rows += float64(pruned.RowsExamined)
		parts += float64(pruned.PartitionsRead)
		// Same store, same visit order: pruned ≡ unpruned holds bitwise.
		out.attempted++
		if pruned.Matched != unpruned.Matched || math.Float64bits(pruned.Aggs[1].F) != math.Float64bits(unpruned.Aggs[1].F) {
			out.failed++
		}
	}
	out.set("exec.scan_us", us(medianDuration(scan)), n)
	out.set("exec.scan_full_us", us(medianDuration(full)), n)
	out.set("exec.rows_examined_per_query", rows/float64(n), n)
	out.set("exec.partitions_read_ratio", parts/float64(n)/float64(serving.Part.NumPartitions), n)
	return nil
}
