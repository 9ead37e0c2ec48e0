package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"oreo"
	"oreo/client"
	"oreo/internal/query"
	"oreo/internal/table"
)

// writeInputs are the generated inputs of serve-write.
type writeInputs struct {
	boot *table.Dataset // the leader's and the follower's boot rows
	src  *table.Dataset // a second seeded table the appended rows come from
	qs   []query.Query
	pool []client.Query // executed reads
}

func genServeWrite(cfg runConfig) *writeInputs {
	in := &writeInputs{
		boot: genTable(cfg.size.writeBootRows, cfg.seed, saltData),
		src:  genTable(cfg.size.writeSrcRows, cfg.seed, saltAppendRows),
		qs:   genMix(cfg.size.costPool, cfg.seed),
	}
	in.pool = clientPool(in.qs, true)
	return in
}

// executed accepts any well-formed answer that carries an execution. The
// table grows while the reader runs, so there is no fixed oracle for its
// answers; the row count and the follower comparison after the window
// are this workload's gate.
func executed(idx int, res []client.TableResult) bool {
	return oneTable(idx, res) && res[0].Execution != nil
}

// setUpServeWrite is one timed set-up: leader, publisher, one caught-up
// follower, and a read pass that builds the execution store.
func setUpServeWrite(cfg runConfig, in *writeInputs, tr *tracer, out *outcome) (*cluster, float64, error) {
	t0 := time.Now()
	c, err := bootLeader(in.boot, cfg.seed, cfg.size.compactThreshold, tr)
	if err != nil {
		return nil, 0, err
	}
	if err := c.addFollower(); err != nil {
		c.close()
		return nil, 0, err
	}
	warm := queryLoop(c.cl, in.pool, false, 1, forCount(cfg.size.warmOps), nil, executed)
	elapsed := time.Since(t0).Seconds()
	out.attempted += int64(len(warm.lat))
	out.failed += warm.failed
	return c, elapsed, nil
}

// writeWindow is what the writer and the reader measured side by side.
type writeWindow struct {
	elapsed time.Duration

	acks       []time.Duration // every append, in send order
	foldAcks   []time.Duration // the appends whose acknowledgment reported a fold
	ackedRows  int
	appendFail int64
	lagEpochs  uint64          // largest leader-minus-follower epoch gap seen at an ack
	lagTimes   []time.Duration // ack → follower applied that epoch (traced windows only)

	reads    []time.Duration // from due time
	lateness []time.Duration // how late the generator itself sent
	readFail int64
}

// runWriteWindow runs client 1, a closed-loop writer of fixed-size
// batches, beside client 2, an open-loop reader at a fixed rate, for d.
// nextRow is the first source row to append and is advanced.
func runWriteWindow(cfg runConfig, c *cluster, in *writeInputs, d time.Duration, tr *tracer, nextRow *int) writeWindow {
	var w writeWindow
	begin := time.Now()
	deadline := begin.Add(d)
	ctx := context.Background()
	batch := cfg.size.appendBatch

	// The lag watcher turns "the follower has applied epoch e" into a
	// time, by polling Follower.Position; it only runs when tracing.
	type ackMark struct {
		epoch uint64
		at    time.Time
	}
	var marks chan ackMark
	var watch sync.WaitGroup
	if tr != nil {
		marks = make(chan ackMark, 1<<14) // more acks than a window can produce, so the writer never waits on the watcher
		watch.Add(1)
		go func() {
			defer watch.Done()
			for m := range marks {
				for c.fol.Position(tableName) < m.epoch && time.Since(m.at) < 5*time.Second {
					time.Sleep(200 * time.Microsecond)
				}
				w.lagTimes = append(w.lagTimes, time.Since(m.at))
			}
		}()
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // client 1: writer
		defer wg.Done()
		prevDelta := -1
		for {
			rows := appendBatch(in.src, *nextRow, batch)
			t0 := time.Now()
			if !t0.Before(deadline) {
				return
			}
			opCtx, op, id := ctx, int64(0), int64(0)
			if tr != nil {
				op, id = nextOp.Add(1), tr.reserve()
				opCtx = context.WithValue(ctx, opKey{}, opRef{op, id})
			}
			ack, err := c.cl.Append(opCtx, tableName, rows)
			t1 := time.Now()
			tr.recordAs(id, "client.append", t0, t1, 0, op)
			w.acks = append(w.acks, t1.Sub(t0))
			if err != nil || ack.Appended != batch {
				w.appendFail++
				continue
			}
			*nextRow += batch
			w.ackedRows += ack.Appended
			if prevDelta >= 0 && ack.DeltaRows < prevDelta+batch {
				w.foldAcks = append(w.foldAcks, t1.Sub(t0))
			}
			prevDelta = ack.DeltaRows
			if pos := c.fol.Position(tableName); ack.Epoch > pos && ack.Epoch-pos > w.lagEpochs {
				w.lagEpochs = ack.Epoch - pos
			}
			if marks != nil {
				marks <- ackMark{ack.Epoch, t1}
			}
		}
	}()
	go func() { // client 2: paced reader
		defer wg.Done()
		interval := time.Duration(float64(time.Second) / cfg.size.readerQPS)
		for k := 0; ; k++ {
			due := begin.Add(time.Duration(k) * interval)
			if !due.Before(deadline) {
				return
			}
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			sent := time.Now()
			idx := k % len(in.pool)
			res, err := c.cl.Query(ctx, in.pool[idx])
			done := time.Now()
			tr.record("client.unary", sent, done, 0, 0)
			w.reads = append(w.reads, done.Sub(due))
			w.lateness = append(w.lateness, sent.Sub(due))
			if err != nil || !executed(idx, res) {
				w.readFail++
			}
		}
	}()
	wg.Wait()
	w.elapsed = time.Since(begin)
	if marks != nil {
		close(marks)
		watch.Wait()
	}
	return w
}

func (w *writeWindow) account(out *outcome) {
	out.attempted += int64(len(w.acks) + len(w.reads))
	out.failed += w.appendFail + w.readFail
}

// matchAll is a predicate every generated row satisfies, so an executed
// count over it is count(*).
var matchAll = []client.Predicate{client.IntGE("l_linenumber", 0)}

// checkWriteOutcome is serve-write's gate: the leader holds exactly the
// boot rows plus every acknowledged row, and once the follower has
// applied the leader's epoch it answers probe queries bit-identically.
func checkWriteOutcome(cfg runConfig, c *cluster, in *writeInputs, ackedRows int, out *outcome) {
	ctx := context.Background()
	count := client.Query{Table: tableName, Preds: matchAll, Execute: true, Aggs: []client.Aggregate{client.Count()}}
	out.attempted++
	res, err := c.cl.Query(ctx, count)
	if want := in.boot.NumRows() + ackedRows; err != nil || !executed(0, res) || res[0].Execution.MatchedRows != want {
		out.failed++
		out.notef("leader count(*) is not boot rows + acknowledged rows (%d): %v %+v", want, err, res)
	}

	n := cfg.size.followerProbe
	if n > len(in.pool) {
		n = len(in.pool)
	}
	for i := 0; i < n; i++ {
		out.attempted++
		// A probe is itself observed and may trigger a reorganization
		// between the two answers; a differing pair is retried once the
		// follower has caught up again.
		same := false
		for attempt := 0; attempt < 5 && !same; attempt++ {
			if !c.waitCaughtUp(10 * time.Second) {
				break
			}
			a, errA := c.cl.Query(ctx, in.pool[i])
			b, errB := c.fcl.Query(ctx, in.pool[i])
			same = errA == nil && errB == nil && sameAnswer(a, b)
		}
		if !same {
			out.failed++
			out.notef("follower answer to probe %d differs from the leader's", i)
		}
	}
}

// waitCaughtUp waits until the leader's decision queue is empty and the
// follower has applied the leader's current epoch.
func (c *cluster) waitCaughtUp(limit time.Duration) bool {
	core := c.srv.Core()
	for deadline := time.Now().Add(limit); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		st, err := core.Stats(tableName)
		pos, ok := core.ReplicaPosition(tableName)
		if err == nil && ok && st.QueueDepth == 0 && c.fol.Position(tableName) == pos.Epoch {
			return true
		}
	}
	return false
}

// sameAnswer compares what a query returned on two servers, floats by
// their bits. Observed and the reorganization flags describe the
// answering server's queue, not the answer, and are left out.
func sameAnswer(a, b []client.TableResult) bool {
	if len(a) != 1 || len(b) != 1 {
		return false
	}
	x, y := a[0], b[0]
	if x.Table != y.Table || math.Float64bits(x.Cost) != math.Float64bits(y.Cost) || x.Layout != y.Layout ||
		x.NumPartitions != y.NumPartitions || x.DeltaRows != y.DeltaRows || len(x.SurvivorPartitions) != len(y.SurvivorPartitions) {
		return false
	}
	for i := range x.SurvivorPartitions {
		if x.SurvivorPartitions[i] != y.SurvivorPartitions[i] {
			return false
		}
	}
	ex, ey := x.Execution, y.Execution
	if ex == nil || ey == nil {
		return ex == ey
	}
	if ex.MatchedRows != ey.MatchedRows || ex.PartitionsRead != ey.PartitionsRead || ex.RowsExamined != ey.RowsExamined ||
		ex.RowsTotal != ey.RowsTotal || ex.DeltaRows != ey.DeltaRows || len(ex.Aggregates) != len(ey.Aggregates) {
		return false
	}
	for i := range ex.Aggregates {
		p, q := ex.Aggregates[i], ey.Aggregates[i]
		if p.Op != q.Op || p.Col != q.Col || p.Type != q.Type || p.Valid != q.Valid || p.ValueI != q.ValueI ||
			math.Float64bits(p.ValueF) != math.Float64bits(q.ValueF) || p.ValueS != q.ValueS {
			return false
		}
	}
	return true
}

func runServeWrite(cfg runConfig, tr *tracer) (*outcome, error) {
	in := genServeWrite(cfg)
	out := newOutcome()
	if cfg.trace {
		return runServeWriteTraced(cfg, tr, in, out)
	}

	resetPeakRSS()
	c, setups, err := setUpRepeatedly(cfg.size.setupReps, func() (*cluster, float64, error) {
		return setUpServeWrite(cfg, in, nil, out)
	})
	if err != nil {
		return nil, err
	}
	defer c.close()

	nextRow := 0
	settle := runWriteWindow(cfg, c, in, cfg.size.settle, nil, &nextRow)
	w := runWriteWindow(cfg, c, in, seconds(cfg.seconds), nil, &nextRow)
	rss := peakRSSMB()
	settle.account(out)
	w.account(out)
	checkWriteOutcome(cfg, c, in, settle.ackedRows+w.ackedRows, out)

	out.setEndToEnd(len(w.acks), w.elapsed, sortDurations(w.acks), 0.99, rss, setups)
	out.notef("appended %.0f rows/s in %d-row batches; %d acknowledgments reported a fold; reader p50 %.0f us over %d reads",
		float64(w.ackedRows)/w.elapsed.Seconds(), cfg.size.appendBatch, len(w.foldAcks), us(medianDuration(w.reads)), len(w.reads))
	return out, nil
}

func runServeWriteTraced(cfg runConfig, tr *tracer, in *writeInputs, out *outcome) (*outcome, error) {
	c, _, err := setUpServeWrite(cfg, in, tr, out)
	if err != nil {
		return nil, err
	}
	defer c.close()
	core := c.srv.Core()

	nextRow := 0
	settle := runWriteWindow(cfg, c, in, cfg.size.settle, nil, &nextRow)
	plain := runWriteWindow(cfg, c, in, seconds(cfg.seconds/4), nil, &nextRow)

	var w writeWindow
	err = observeWindow(core, out, func() int {
		w = runWriteWindow(cfg, c, in, seconds(cfg.seconds/2), tr, &nextRow)
		return len(w.acks) + len(w.reads)
	})
	if err != nil {
		return nil, err
	}
	settle.account(out)
	plain.account(out)
	w.account(out)
	acked := settle.ackedRows + plain.ackedRows + w.ackedRows

	reads := sortDurations(w.reads)
	out.set("serve.compaction_ack_ms", ms(medianDuration(w.foldAcks)), len(w.foldAcks))
	out.set("serve.read_p50_us", us(percentile(reads, 0.50)), len(reads))
	out.set("serve.read_stall_p99_ms", ms(percentile(reads, 0.99)), len(reads))
	out.set("serve.reader_lateness_p99_ms", ms(percentile(sortDurations(w.lateness), 0.99)), len(w.lateness))
	out.set("replica.lag_epochs_max", float64(w.lagEpochs), len(w.acks))
	out.set("replica.lag_ms_p50", ms(medianDuration(w.lagTimes)), len(w.lagTimes))
	out.set("replica.published", float64(c.pub.Published()), 1)
	out.set("replica.resnapshots", float64(c.pub.Resnapshots()), 1)
	out.set("client.query_p999_us", us(percentile(reads, 0.999)), len(reads))
	out.set("client.query_max_ms", ms(percentile(reads, 1)), len(reads))
	out.set("bench.trace_overhead_ratio", ratio(float64(medianDuration(w.acks)), float64(medianDuration(plain.acks))), len(w.acks))

	// The in-process rung under the append path: Core.Append with the
	// same batches, no HTTP and no JSON.
	ctx := context.Background()
	appends := make([]time.Duration, cfg.size.ladderOps/4)
	for i := range appends {
		rows := appendBatch(in.src, nextRow, cfg.size.appendBatch)
		wire := make([]map[string]any, len(rows))
		for j, r := range rows {
			wire[j] = r
		}
		var aerr error
		appends[i] = tr.timed("serve.append_core", 0, nextOp.Add(1), func() { _, aerr = core.Append(ctx, tableName, wire) })
		out.attempted++
		if aerr != nil {
			out.failed++
			continue
		}
		nextRow += len(rows)
		acked += len(rows)
	}
	out.set("serve.append_core_ms", ms(medianDuration(appends)), len(appends))

	checkWriteOutcome(cfg, c, in, acked, out)
	return out, probePersist(c, in, tr, out)
}

// probePersist saves and reloads the leader's final position: what a
// warm start would cost, and what a snapshot weighs.
func probePersist(c *cluster, in *writeInputs, tr *tracer, out *outcome) error {
	pos, ok := c.srv.Core().ReplicaPosition(tableName)
	if !ok {
		return fmt.Errorf("no replica position for %s", tableName)
	}
	var buf bytes.Buffer
	var err error
	save := tr.timed("persist.save", 0, 0, func() {
		err = oreo.SaveStateWithData(&buf, pos.Snapshot.Serving, pos.Dataset, pos.SeedRows, pos.Delta)
	})
	if err != nil {
		return fmt.Errorf("SaveStateWithData: %w", err)
	}
	size := buf.Len()
	var base, delta *oreo.Dataset
	load := tr.timed("persist.load", 0, 0, func() {
		_, _, base, delta, err = oreo.LoadStateWithData(&buf, in.boot)
	})
	if err != nil {
		return fmt.Errorf("LoadStateWithData: %w", err)
	}
	rows := base.NumRows()
	if delta != nil {
		rows += delta.NumRows()
	}
	want := pos.Dataset.NumRows()
	if pos.Delta != nil {
		want += pos.Delta.NumRows()
	}
	out.attempted++
	if rows != want {
		out.failed++
		out.notef("reloaded state holds %d rows, saved position had %d", rows, want)
	}
	out.set("persist.save_ms", ms(save), 1)
	out.set("persist.load_ms", ms(load), 1)
	out.set("persist.snapshot_bytes", float64(size), 1)
	out.set("persist.bytes_per_row", ratio(float64(size), float64(rows)), rows)
	return nil
}
