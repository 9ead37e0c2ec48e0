package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"oreo"
	"oreo/internal/query"
)

// atomicUint64 is a tiny alias so counter structs read cleanly.
type atomicUint64 = atomic.Uint64

// forwardBatch is how many observations one upstream POST carries at
// most.
const forwardBatch = 256

// forwarder ships follower-answered queries upstream so the leader's
// optimizer keeps learning from edge traffic. It is built to shed, not
// stall: enqueue is non-blocking (overflow is dropped and counted), a
// background loop batches observations by count and time, and an
// upstream failure costs that batch — there is no retry queue that
// could grow without bound or a send that could ever backpressure the
// serving path.
type forwarder struct {
	upstream string
	hc       *http.Client
	ch       chan Observation
	interval time.Duration
	logf     func(format string, args ...any)
	ctx      context.Context
	// gen reports the sender's current leadership fencing term at post
	// time (nil ≡ unfenced), so a leader can 409 batches from followers
	// still living in a deposed leader's worldview.
	gen func() uint64

	forwarded atomic.Uint64 // accepted into a leader decision queue
	dropped   atomic.Uint64 // local overflow, failed posts, leader queue-full
	rejected  atomic.Uint64 // leader-side validation failures (schema skew)
}

func newForwarder(ctx context.Context, upstream string, hc *http.Client, queue int, interval time.Duration, logf func(string, ...any), gen func() uint64, wg *sync.WaitGroup) *forwarder {
	fw := &forwarder{
		upstream: upstream,
		hc:       hc,
		ch:       make(chan Observation, queue),
		interval: interval,
		logf:     logf,
		ctx:      ctx,
		gen:      gen,
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		fw.run()
	}()
	return fw
}

// enqueue hands one answered query to the forwarding loop without
// blocking; false (counted) when the buffer is full or shutdown begun.
func (fw *forwarder) enqueue(table string, q oreo.Query) bool {
	ob := Observation{Table: table, ID: q.ID, Preds: query.ToWire(q.Preds)}
	select {
	case fw.ch <- ob:
		return true
	default:
		fw.dropped.Add(1)
		return false
	}
}

// run batches and posts until the context ends, then flushes what it
// holds with a short grace timeout.
func (fw *forwarder) run() {
	tick := time.NewTicker(fw.interval)
	defer tick.Stop()
	buf := make([]Observation, 0, forwardBatch)
	for {
		select {
		case <-fw.ctx.Done():
			// Final flush: the context that carried us is gone, so give
			// the upstream post its own short deadline.
			for {
				select {
				case ob := <-fw.ch:
					buf = append(buf, ob)
					continue
				default:
				}
				break
			}
			if len(buf) > 0 {
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				fw.post(ctx, buf)
				cancel()
			}
			return
		case ob := <-fw.ch:
			buf = append(buf, ob)
			if len(buf) >= forwardBatch {
				fw.post(fw.ctx, buf)
				buf = buf[:0]
			}
		case <-tick.C:
			if len(buf) > 0 {
				fw.post(fw.ctx, buf)
				buf = buf[:0]
			}
		}
	}
}

// post ships one batch; failures drop the batch (counted), never
// retry — the leader samples under overload anyway, and a retry queue
// is exactly the unbounded buffer this design forbids.
func (fw *forwarder) post(ctx context.Context, obs []Observation) {
	req0 := ObserveRequest{Observations: obs}
	if fw.gen != nil {
		req0.Generation = fw.gen()
	}
	body, err := json.Marshal(&req0)
	if err != nil {
		fw.dropped.Add(uint64(len(obs)))
		fw.logf("replica: encoding observation batch: %v", err)
		return
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		fw.upstream+"/v2/replication/observe", bytes.NewReader(body))
	if err != nil {
		fw.dropped.Add(uint64(len(obs)))
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := fw.hc.Do(req)
	if err != nil {
		fw.dropped.Add(uint64(len(obs)))
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fw.dropped.Add(uint64(len(obs)))
		return
	}
	var or ObserveResponse
	if err := json.NewDecoder(resp.Body).Decode(&or); err != nil {
		// The batch reached the leader; the accounting just didn't come
		// back. Count it forwarded rather than double-reporting drops.
		fw.forwarded.Add(uint64(len(obs)))
		return
	}
	fw.forwarded.Add(uint64(or.Observed))
	fw.dropped.Add(uint64(or.Dropped))
	fw.rejected.Add(uint64(or.Rejected))
}
