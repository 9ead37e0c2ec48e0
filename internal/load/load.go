// Package load drives synthetic query traffic at a live serving
// instance through the public client SDK and measures what comes back:
// achieved throughput, error counts, and the latency distribution the
// serving-layer /metrics endpoint reports from the other side.
//
// Two loop disciplines are supported, because they answer different
// questions:
//
//   - Closed loop (QPS == 0): Concurrency workers each keep exactly one
//     request in flight, back to back. Throughput is what the server
//     sustains at that concurrency; latency includes no queueing beyond
//     the server's own.
//   - Open loop (QPS > 0): a pacer issues send tickets at the target
//     rate regardless of completions, the way real traffic arrives.
//     If the server cannot keep up the backlog (bounded by one second
//     of tickets) applies backpressure and the achieved rate drops
//     below target — the honest signal that the target is past
//     capacity.
//
// Latency is recorded in the same fixed-bucket histogram the server's
// /metrics layer uses (internal/metrics.LatencyBuckets), so client-side
// and server-side percentiles are directly comparable.
package load

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"oreo/client"
	"oreo/internal/metrics"
)

// Spec configures one load run.
type Spec struct {
	// URL is the target server's base URL.
	URL string
	// Queries is the pool the run cycles through, in order. Required.
	// Pin sets Execute on the pool entries if the run should execute
	// scans rather than only cost queries.
	Queries []client.Query

	// Count stops the run after this many sends; Duration after this
	// much wall clock. At least one must be set; with both, whichever
	// trips first ends the run.
	Count    int
	Duration time.Duration

	// QPS selects the open loop at that target rate; zero selects the
	// closed loop.
	QPS float64
	// Concurrency is the worker count: in-flight requests (closed loop)
	// or maximum send parallelism (open loop). Zero means 1 (closed)
	// or 16 (open).
	Concurrency int
	// Stream sends each worker's queries down one long-lived
	// /v2/query/stream connection in ping-pong (flush-every-1) mode
	// instead of individual POST /v1/query requests.
	Stream bool

	// AppendRatio mixes live writes into the run: with ratio r > 0,
	// every k-th operation (k = round(1/r)) is an append instead of a
	// query. The schedule is deterministic by operation index, so a
	// Count-bounded run lands exactly floor(Count/k) append operations —
	// a closed form CI assertions can check against server counters.
	// Appends always go over POST /v2/tables/{t}/append, even when
	// Stream routes the queries over a stream connection.
	AppendRatio float64
	// AppendTable is the table appends target; required when
	// AppendRatio > 0.
	AppendTable string
	// MakeRow builds the seq-th appended row (seq counts appended rows
	// from 0, densely across all workers); required when AppendRatio > 0.
	// It must be deterministic in seq and safe for concurrent calls.
	MakeRow func(seq int) client.Row
	// AppendBatch is the rows per append operation; zero means 1.
	AppendBatch int

	// Progress, when set, receives a snapshot roughly every
	// ProgressEvery (default 1s) while the run is live.
	Progress      func(Snapshot)
	ProgressEvery time.Duration

	// HTTPClient substitutes the SDK's transport (tests).
	HTTPClient client.Option
}

// Snapshot is a point-in-time progress reading.
type Snapshot struct {
	Sent    uint64
	Failed  uint64
	Elapsed time.Duration
	QPS     float64 // achieved so far
	P50     time.Duration
	P99     time.Duration
}

// Report is the final accounting of a run.
type Report struct {
	// Sent counts completed requests (including failures); Failed the
	// subset that errored — transport errors and per-query server
	// errors both count, run-shutdown cancellations do not.
	Sent   uint64
	Failed uint64
	// Elapsed is the measured wall clock of the run.
	Elapsed time.Duration
	// TargetQPS echoes the open-loop target (0 for closed loop); QPS is
	// the achieved rate Sent/Elapsed.
	TargetQPS float64
	QPS       float64
	// AppendOps counts completed append operations (a subset of Sent);
	// Appended counts the rows those operations durably landed — failed
	// appends contribute to neither.
	AppendOps uint64
	Appended  uint64
	// Executed counts the executions successful answers carried, one
	// per table result (the unit of the server's executions counter);
	// Matched sums their MatchedRows. Both stay zero when costing only.
	Executed uint64
	Matched  uint64
	// Latency percentiles over successful and failed completions alike.
	P50, P90, P99, Max time.Duration
}

// String renders the report as the oreoload summary block.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sent %d queries in %v (%.0f qps", r.Sent, r.Elapsed.Round(time.Millisecond), r.QPS)
	if r.TargetQPS > 0 {
		fmt.Fprintf(&b, ", target %.0f", r.TargetQPS)
	}
	fmt.Fprintf(&b, "), %d failed\n", r.Failed)
	if r.AppendOps > 0 {
		fmt.Fprintf(&b, "appended %d rows in %d batches\n", r.Appended, r.AppendOps)
	}
	if r.Executed > 0 {
		fmt.Fprintf(&b, "executed %d, matched rows %d\n", r.Executed, r.Matched)
	}
	fmt.Fprintf(&b, "latency p50 %v  p90 %v  p99 %v  max %v",
		r.P50.Round(time.Microsecond), r.P90.Round(time.Microsecond),
		r.P99.Round(time.Microsecond), r.Max.Round(time.Microsecond))
	return b.String()
}

// run is the shared mutable state of one load run.
type run struct {
	spec      Spec
	c         *client.Client
	ctx       context.Context
	pool      []client.Query
	every     int           // every-th operation is an append (0 = read-only)
	next      atomic.Uint64 // operation cursor
	sent      atomic.Uint64
	failed    atomic.Uint64
	appendOps atomic.Uint64
	appended  atomic.Uint64
	executed  atomic.Uint64
	matched   atomic.Uint64
	hist      *metrics.Histogram
	started   time.Time
}

// Run executes the spec and blocks until the run completes.
func Run(ctx context.Context, spec Spec) (*Report, error) {
	every := 0
	if spec.AppendRatio > 0 {
		if spec.AppendRatio > 1 {
			return nil, fmt.Errorf("load: append ratio %g outside (0, 1]", spec.AppendRatio)
		}
		if spec.AppendTable == "" || spec.MakeRow == nil {
			return nil, errors.New("load: append ratio needs AppendTable and MakeRow")
		}
		if spec.AppendBatch <= 0 {
			spec.AppendBatch = 1
		}
		if every = int(math.Round(1 / spec.AppendRatio)); every < 1 {
			every = 1
		}
	}
	// every == 1 is a pure-write run; only then may the query pool be
	// empty.
	if len(spec.Queries) == 0 && every != 1 {
		return nil, errors.New("load: empty query pool")
	}
	if spec.Count <= 0 && spec.Duration <= 0 {
		return nil, errors.New("load: need Count or Duration to bound the run")
	}
	if spec.Concurrency <= 0 {
		if spec.QPS > 0 {
			spec.Concurrency = 16
		} else {
			spec.Concurrency = 1
		}
	}
	if spec.ProgressEvery <= 0 {
		spec.ProgressEvery = time.Second
	}
	var opts []client.Option
	if spec.HTTPClient != nil {
		opts = append(opts, spec.HTTPClient)
	}
	c, err := client.New(spec.URL, opts...)
	if err != nil {
		return nil, err
	}

	if spec.Duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, spec.Duration)
		defer cancel()
	}
	r := &run{
		spec:    spec,
		c:       c,
		ctx:     ctx,
		pool:    spec.Queries,
		every:   every,
		hist:    metrics.NewHistogram(metrics.LatencyBuckets()),
		started: time.Now(),
	}

	if spec.Progress != nil {
		progressCtx, stopProgress := context.WithCancel(context.Background())
		defer stopProgress()
		go r.progressLoop(progressCtx)
	}

	if spec.QPS > 0 {
		r.openLoop()
	} else {
		r.closedLoop()
	}

	elapsed := time.Since(r.started)
	rep := &Report{
		Sent:      r.sent.Load(),
		Failed:    r.failed.Load(),
		Elapsed:   elapsed,
		TargetQPS: spec.QPS,
		AppendOps: r.appendOps.Load(),
		Appended:  r.appended.Load(),
		Executed:  r.executed.Load(),
		Matched:   r.matched.Load(),
		P50:       secondsToDuration(r.hist.Quantile(0.50)),
		P90:       secondsToDuration(r.hist.Quantile(0.90)),
		P99:       secondsToDuration(r.hist.Quantile(0.99)),
		Max:       secondsToDuration(r.hist.Max()),
	}
	if s := elapsed.Seconds(); s > 0 {
		rep.QPS = float64(rep.Sent) / s
	}
	return rep, nil
}

func secondsToDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// take reserves the next operation slot, or ok=false when the Count
// budget is exhausted. The slot is an append when the deterministic
// schedule says so (every-th operation, counted from the every-th);
// otherwise q is the query to send.
func (r *run) take() (q client.Query, isAppend bool, seq int, ok bool) {
	i := r.next.Add(1) - 1
	if r.spec.Count > 0 && i >= uint64(r.spec.Count) {
		return client.Query{}, false, 0, false
	}
	if r.every > 0 && i%uint64(r.every) == uint64(r.every)-1 {
		// seq numbers append operations densely: operation i is the
		// (i+1)/every-th append (1-based), so append op seq*(batch rows)
		// lines up with the closed form floor(Count/every).
		return client.Query{}, true, int(i / uint64(r.every)), true
	}
	q = r.pool[i%uint64(len(r.pool))]
	// IDs number from 1 so stream answers stay attributable (wire ID 0
	// means "no ID").
	q.ID = int(i%uint64(len(r.pool))) + 1
	return q, false, 0, true
}

// appendOnce sends one scheduled append operation: a batch of
// AppendBatch rows built from the dense row sequence.
func (r *run) appendOnce(seq int) {
	rows := make([]client.Row, r.spec.AppendBatch)
	for j := range rows {
		rows[j] = r.spec.MakeRow(seq*r.spec.AppendBatch + j)
	}
	start := time.Now()
	ack, err := r.c.Append(r.ctx, r.spec.AppendTable, rows)
	if err == nil {
		r.appendOps.Add(1)
		r.appended.Add(uint64(ack.Appended))
	}
	r.record(time.Since(start), nil, err)
}

// record accounts one completed request and, for a successful query,
// the executions its answer carried. Failures caused only by the run
// ending (deadline or cancellation) are ignored: they measure the
// harness, not the server.
func (r *run) record(d time.Duration, results []client.TableResult, err error) {
	if err != nil && r.ctx.Err() != nil {
		return
	}
	r.sent.Add(1)
	r.hist.ObserveDuration(d)
	if err != nil {
		r.failed.Add(1)
		return
	}
	for _, res := range results {
		if res.Execution != nil {
			r.executed.Add(1)
			r.matched.Add(uint64(res.Execution.MatchedRows))
		}
	}
}

// closedLoop runs Concurrency workers, each with one request in flight
// back to back.
func (r *run) closedLoop() {
	var wg sync.WaitGroup
	for w := 0; w < r.spec.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.worker(nil)
		}()
	}
	wg.Wait()
}

// openLoop paces send tickets at the target rate and has workers drain
// them. The ticket channel buffers one second of the target rate; a
// server that falls further behind than that blocks the pacer, and the
// achieved-vs-target gap in the report is the capacity verdict.
func (r *run) openLoop() {
	burst := int(r.spec.QPS)
	if burst < 1 {
		burst = 1
	}
	tickets := make(chan struct{}, burst)
	var wg sync.WaitGroup
	for w := 0; w < r.spec.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.worker(tickets)
		}()
	}

	issued := 0
	ticker := time.NewTicker(time.Millisecond)
	defer ticker.Stop()
pace:
	for {
		select {
		case <-r.ctx.Done():
			break pace
		case <-ticker.C:
		}
		want := int(r.spec.QPS * time.Since(r.started).Seconds())
		if r.spec.Count > 0 && want > r.spec.Count {
			want = r.spec.Count
		}
		for issued < want {
			select {
			case tickets <- struct{}{}:
				issued++
			case <-r.ctx.Done():
				break pace
			}
		}
		if r.spec.Count > 0 && issued >= r.spec.Count {
			break
		}
	}
	close(tickets)
	wg.Wait()
}

// worker sends queries until the pool budget, the context, or (open
// loop) the ticket channel ends. tickets == nil selects the closed
// loop's send-as-fast-as-answered discipline.
func (r *run) worker(tickets <-chan struct{}) {
	var st *client.Stream
	defer func() {
		if st != nil {
			st.Close()
		}
	}()
	for {
		if tickets != nil {
			if _, ok := <-tickets; !ok {
				return
			}
		}
		if r.ctx.Err() != nil {
			return
		}
		q, isAppend, seq, ok := r.take()
		if !ok {
			return
		}
		if isAppend {
			r.appendOnce(seq)
			continue
		}
		var (
			results []client.TableResult
			err     error
		)
		start := time.Now()
		if r.spec.Stream {
			if st == nil {
				st, err = r.c.OpenStream(r.ctx, client.WithFlushEvery(1))
				if err != nil {
					r.record(time.Since(start), nil, err)
					continue
				}
			}
			var fatal bool
			results, err, fatal = pingPong(st, q)
			if fatal {
				// The stream is poisoned after a transport error; drop it
				// and let the next iteration redial. A per-query error line
				// is just a failed request — the connection is fine.
				st.Close()
				st = nil
			}
		} else {
			results, err = r.c.Query(r.ctx, q)
		}
		r.record(time.Since(start), results, err)
	}
}

// pingPong sends one query down the stream and returns its answer's
// results — flush-every-1 keeps exactly one query in flight per
// connection, so the measured time is a true per-query latency.
func pingPong(st *client.Stream, q client.Query) (results []client.TableResult, err error, fatal bool) {
	if err := st.Send(q); err != nil {
		return nil, err, true
	}
	item, err := st.Recv()
	if err != nil {
		return nil, err, true
	}
	if item.Error != "" {
		return nil, errors.New(item.Error), false
	}
	return item.Results, nil, false
}

// progressLoop emits snapshots until the run finishes.
func (r *run) progressLoop(ctx context.Context) {
	t := time.NewTicker(r.spec.ProgressEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		elapsed := time.Since(r.started)
		s := Snapshot{
			Sent:    r.sent.Load(),
			Failed:  r.failed.Load(),
			Elapsed: elapsed,
			P50:     secondsToDuration(r.hist.Quantile(0.50)),
			P99:     secondsToDuration(r.hist.Quantile(0.99)),
		}
		if sec := elapsed.Seconds(); sec > 0 {
			s.QPS = float64(s.Sent) / sec
		}
		r.spec.Progress(s)
	}
}
