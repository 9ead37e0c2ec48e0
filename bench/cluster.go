package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"oreo"
	"oreo/client"
	"oreo/internal/replica"
	"oreo/internal/serve"
	"oreo/internal/table"
)

// cluster is a leader, and optionally one follower, hosted in this
// process behind real loopback HTTP — the oreoserve / oreoserve -follow
// topology without the process boundary.
type cluster struct {
	ds  *table.Dataset
	srv *serve.Server
	ts  *httptest.Server
	hc  *http.Client
	cl  *client.Client

	pub *replica.Publisher
	fol *replica.Follower
	fts *httptest.Server
	fcl *client.Client
}

func quietLogf(string, ...any) {}

// bootLeader is the program's set-up for the serving workloads: one
// table registered with the optimizer, a serving core over it, and an
// HTTP listener. With a tracer, the handler and the client transport are
// wrapped in the benchmark's own span recorders.
func bootLeader(ds *table.Dataset, seed int64, compactThreshold int, tr *tracer) (*cluster, error) {
	m := oreo.NewMulti()
	if err := m.AddTable(tableName, ds, oreo.Config{InitialSort: []string{timeColumn}, Seed: seed}); err != nil {
		return nil, fmt.Errorf("AddTable: %w", err)
	}
	srv, err := serve.New(m, serve.Config{CompactThreshold: compactThreshold})
	if err != nil {
		return nil, fmt.Errorf("serve.New: %w", err)
	}
	c := &cluster{ds: ds, srv: srv}
	var h http.Handler = srv.Handler()
	var rt http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: 4}
	if tr != nil {
		h = &handlerProbe{next: h, tr: tr}
		rt = &opTransport{base: rt}
	}
	c.ts = httptest.NewServer(h)
	c.hc = &http.Client{Transport: rt}
	if c.cl, err = client.New(c.ts.URL, client.WithHTTPClient(c.hc)); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// addFollower attaches a replication publisher to the leader and boots
// one follower over the same boot rows, caught up and serving.
func (c *cluster) addFollower() error {
	var err error
	if c.pub, err = replica.NewPublisher(c.srv.Core(), replica.PublisherConfig{Logf: quietLogf}); err != nil {
		return fmt.Errorf("NewPublisher: %w", err)
	}
	c.pub.Mount(c.srv)
	c.fol, err = replica.NewFollower(replica.FollowerConfig{
		Upstream: c.ts.URL,
		Tables:   []replica.TableData{{Name: tableName, Dataset: c.ds}},
		Logf:     quietLogf,
	})
	if err != nil {
		return fmt.Errorf("NewFollower: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := c.fol.WaitReady(ctx); err != nil {
		return fmt.Errorf("Follower.WaitReady: %w", err)
	}
	c.fts = httptest.NewServer(serve.NewServer(c.fol.Core(), serve.Config{}).Handler())
	if c.fcl, err = client.New(c.fts.URL, client.WithHTTPClient(c.hc)); err != nil {
		return err
	}
	return nil
}

// close stops everything the cluster started and waits for it. The
// follower goes first: its subscription is a request the leader's
// listener would otherwise wait on.
func (c *cluster) close() {
	if c.fts != nil {
		c.fts.Close()
	}
	if c.fol != nil {
		c.fol.Close()
	}
	if c.pub != nil {
		c.pub.DropSubscribers()
	}
	c.hc.CloseIdleConnections()
	c.ts.Close()
	c.srv.Close()
}

// setUpRepeatedly runs a workload's timed set-up reps times, closing
// every instance but the last, and returns that one with all the set-up
// times in seconds. setup_s is their median: one set-up is too few
// samples of something a later change may make slower.
func setUpRepeatedly(reps int, setUp func() (*cluster, float64, error)) (*cluster, []float64, error) {
	var c *cluster
	times := make([]float64, reps)
	for i := range times {
		if c != nil {
			c.close()
			runtime.GC()
		}
		var err error
		if c, times[i], err = setUp(); err != nil {
			return nil, nil, err
		}
	}
	return c, times, nil
}

// opRef ties an outgoing request to the client span that caused it.
type opRef struct{ op, parent int64 }

type opKey struct{}

const opHeader = "X-Bench-Op"

// opTransport copies the operation reference from the request context
// into a header, which is how handlerProbe on the other side of the
// socket learns its parent span.
type opTransport struct{ base http.RoundTripper }

func (t *opTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if ref, ok := r.Context().Value(opKey{}).(opRef); ok {
		r = r.Clone(r.Context())
		r.Header.Set(opHeader, strconv.FormatInt(ref.op, 10)+","+strconv.FormatInt(ref.parent, 10))
	}
	return t.base.RoundTrip(r)
}

func (t *opTransport) CloseIdleConnections() {
	if b, ok := t.base.(interface{ CloseIdleConnections() }); ok {
		b.CloseIdleConnections()
	}
}

// handlerProbe is the benchmark's wrapper around srv.Handler(): the
// serve.handler span is the server-side time of one request, measured
// without a clock inside the program.
type handlerProbe struct {
	next http.Handler
	tr   *tracer
}

func (h *handlerProbe) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	hdr := r.Header.Get(opHeader)
	if hdr == "" {
		h.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	h.next.ServeHTTP(w, r)
	end := time.Now()
	opStr, parentStr, _ := strings.Cut(hdr, ",")
	op, _ := strconv.ParseInt(opStr, 10, 64)         // our own header
	parent, _ := strconv.ParseInt(parentStr, 10, 64) // our own header
	h.tr.record("serve.handler", start, end, parent, op)
}

// loopLimit ends a client loop after a number of operations, at a
// deadline, or whichever comes first.
type loopLimit struct {
	count    int
	deadline time.Time
}

func forDuration(d time.Duration) loopLimit { return loopLimit{deadline: time.Now().Add(d)} }
func forCount(n int) loopLimit              { return loopLimit{count: n} }

func (l loopLimit) done(n int, now time.Time) bool {
	return (l.count > 0 && n >= l.count) || (!l.deadline.IsZero() && !now.Before(l.deadline))
}

// loopStats is what a set of closed-loop clients measured.
type loopStats struct {
	lat     []time.Duration // exact, one per operation, all clients merged and sorted
	failed  int64
	elapsed time.Duration
}

// resultCheck judges one answer to the pool's idx-th query.
type resultCheck func(idx int, res []client.TableResult) bool

var nextOp atomic.Int64

// queryLoop runs n closed-loop clients against one server: each keeps
// exactly one query in flight, client w cycling through pool entries w,
// w+n, w+2n, ... Unary clients POST /v1/query; stream clients ping-pong
// over one /v2/query/stream connection each. Transport errors, non-2xx
// answers, per-item errors and failed checks all count as failed.
func queryLoop(cl *client.Client, pool []client.Query, stream bool, n int, limit loopLimit, tr *tracer, check resultCheck) loopStats {
	per := make([]loopStats, n)
	var wg sync.WaitGroup
	begin := time.Now()
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if stream {
				per[w] = streamClient(cl, pool, w, n, limit, tr, check)
			} else {
				per[w] = unaryClient(cl, pool, w, n, limit, tr, check)
			}
		}(w)
	}
	wg.Wait()
	total := loopStats{elapsed: time.Since(begin)}
	for _, p := range per {
		total.lat = append(total.lat, p.lat...)
		total.failed += p.failed
	}
	sortDurations(total.lat)
	return total
}

func unaryClient(cl *client.Client, pool []client.Query, w, stride int, limit loopLimit, tr *tracer, check resultCheck) loopStats {
	st := loopStats{lat: make([]time.Duration, 0, 1<<16)}
	ctx := context.Background()
	for i, idx := 0, w%len(pool); ; i, idx = i+1, (idx+stride)%len(pool) {
		t0 := time.Now()
		if limit.done(i, t0) {
			return st
		}
		opCtx, op, id := ctx, int64(0), int64(0)
		if tr != nil {
			op, id = nextOp.Add(1), tr.reserve()
			opCtx = context.WithValue(ctx, opKey{}, opRef{op, id})
		}
		res, err := cl.Query(opCtx, pool[idx])
		t1 := time.Now()
		tr.recordAs(id, "client.unary", t0, t1, 0, op)
		st.lat = append(st.lat, t1.Sub(t0))
		if err != nil || !check(idx, res) {
			st.failed++
		}
	}
}

func streamClient(cl *client.Client, pool []client.Query, w, stride int, limit loopLimit, tr *tracer, check resultCheck) loopStats {
	st := loopStats{lat: make([]time.Duration, 0, 1<<16)}
	var conn *client.Stream
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	for i, idx := 0, w%len(pool); ; i, idx = i+1, (idx+stride)%len(pool) {
		t0 := time.Now()
		if limit.done(i, t0) {
			return st
		}
		if conn == nil {
			c, err := cl.OpenStream(context.Background(), client.WithFlushEvery(1))
			if err != nil {
				st.lat = append(st.lat, time.Since(t0))
				st.failed++
				continue
			}
			conn = c
		}
		var item *client.BatchItem
		err := conn.Send(pool[idx])
		if err == nil {
			item, err = conn.Recv()
		}
		t1 := time.Now()
		if tr != nil {
			tr.record("client.stream", t0, t1, 0, nextOp.Add(1))
		}
		st.lat = append(st.lat, t1.Sub(t0))
		switch {
		case err != nil:
			// A transport error poisons the stream; redial on the next turn.
			st.failed++
			conn.Close()
			conn = nil
		case item.Error != "" || !check(idx, item.Results):
			st.failed++
		}
	}
}

// oneTable accepts any well-formed single-table answer.
func oneTable(_ int, res []client.TableResult) bool {
	return len(res) == 1 && res[0].Table == tableName && res[0].Cost >= 0 && res[0].Cost <= 1
}
