// Cluster: the control plane around a leader + follower fleet — load-
// driven scale-up, leader failure, fenced promotion, and archive-based
// bootstrap, all in one process.
//
// A cluster.Controller watches the fleet through the same /healthz and
// /metrics every operator sees and sizes the follower set with a
// threshold policy; here the actuator spawns followers in-process (the
// production ProcessActuator spawns oreoserve -follow processes — see
// cmd/oreoctl — but the controller only speaks the Actuator interface,
// so the demo fleet lives on goroutines). The leader's publisher
// archives its decision stream to disk. Then the leader is killed: the
// controller notices, promotes the most caught-up follower (generation
// 1 → 2), the old generation's writes bounce off the fence, and a
// fresh follower bootstraps from the archive instead of demanding a
// snapshot from the new leader.
//
// Run with:
//
//	go run ./examples/cluster
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"oreo"
	"oreo/client"
	"oreo/internal/cluster"
	"oreo/internal/replica"
	"oreo/internal/serve"
)

const rows = 20000

var ordersConfig = oreo.Config{
	Alpha: 4, WindowSize: 60, Partitions: 16,
	InitialSort: []string{"order_ts"}, Seed: 7,
}

// buildOrders is deterministic and closed-form: every member of the
// cluster loads byte-identical data, the precondition replication
// verifies through the snapshot's statistics-block gate.
func buildOrders() *oreo.Dataset {
	schema := oreo.NewSchema(
		oreo.Column{Name: "order_ts", Type: oreo.Int64},
		oreo.Column{Name: "status", Type: oreo.String},
		oreo.Column{Name: "amount", Type: oreo.Float64},
	)
	statuses := []string{"cancelled", "delivered", "pending", "returned"}
	b := oreo.NewDatasetBuilder(schema, rows)
	for i := 0; i < rows; i++ {
		b.AppendRow(oreo.Int(int64(i)), oreo.Str(statuses[i%4]), oreo.Float(float64(i%500)+0.25))
	}
	return b.Build()
}

func serveOn(h http.Handler) (string, func()) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln)
	return "http://" + ln.Addr().String(), func() { hs.Close() }
}

var quiet = func(string, ...any) {}

// member is one in-process follower: a replica.Follower serving the
// full read surface, plus the promote endpoint oreoserve -follow
// mounts — promotion flips it to a live leader in place.
type member struct {
	fol  *replica.Follower
	url  string
	stop func()

	mu  sync.Mutex
	pub *replica.Publisher
}

func newMember(leader string) (*member, error) {
	fol, err := replica.NewFollower(replica.FollowerConfig{
		Upstream: leader,
		Tables:   []replica.TableData{{Name: "orders", Dataset: buildOrders()}},
		Logf:     quiet,
	})
	if err != nil {
		return nil, err
	}
	if err := fol.WaitReady(context.Background()); err != nil {
		fol.Close()
		return nil, err
	}
	m := &member{fol: fol}
	folSrv := serve.NewServer(fol.Core(), serve.Config{})
	mux := http.NewServeMux()
	mux.Handle("/", folSrv.Handler())
	mux.HandleFunc("POST /v2/cluster/promote", func(w http.ResponseWriter, r *http.Request) {
		m.mu.Lock()
		defer m.mu.Unlock()
		if m.pub != nil {
			http.Error(w, `{"error":"already promoted"}`, http.StatusBadRequest)
			return
		}
		pub, err := replica.Promote(fol, serve.PromoteConfig{
			Tables: map[string]serve.PromoteTable{
				"orders": {Config: ordersConfig},
			},
		}, replica.PublisherConfig{Logf: quiet})
		if err != nil {
			http.Error(w, `{"error":"promotion failed"}`, http.StatusServiceUnavailable)
			return
		}
		m.pub = pub
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(fol.Core().Health())
	})
	// Replication endpoints activate on promotion, exactly like
	// oreoserve's pre-mounted handlers.
	delegate := func(h func(*replica.Publisher) http.Handler) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			m.mu.Lock()
			pub := m.pub
			m.mu.Unlock()
			if pub == nil {
				http.Error(w, `{"error":"still a follower"}`, http.StatusServiceUnavailable)
				return
			}
			h(pub).ServeHTTP(w, r)
		}
	}
	mux.Handle("POST /v2/replication/subscribe", delegate((*replica.Publisher).SubscribeHandler))
	mux.Handle("POST /v2/replication/observe", delegate((*replica.Publisher).ObserveHandler))
	m.url, m.stop = serveOn(mux)
	return m, nil
}

// fleet implements cluster.Actuator over in-process members: one
// spawn or retire per Ensure call, like the production ProcessActuator.
type fleet struct {
	members  []*member
	released []*member
}

func (f *fleet) Ensure(target int, leader string) (int, error) {
	if target > len(f.members) {
		m, err := newMember(leader)
		if err != nil {
			return len(f.members), err
		}
		f.members = append(f.members, m)
		fmt.Printf("actuator: spawned follower %s (caught up)\n", m.url)
	} else if target < len(f.members) {
		m := f.members[len(f.members)-1]
		f.members = f.members[:len(f.members)-1]
		m.fol.Close()
		m.stop()
		fmt.Printf("actuator: retired follower %s\n", m.url)
	}
	return len(f.members), nil
}

func (f *fleet) Followers() []string {
	urls := make([]string, len(f.members))
	for i, m := range f.members {
		urls[i] = m.url
	}
	return urls
}

func (f *fleet) Release(url string) bool {
	for i, m := range f.members {
		if m.url == url {
			f.members = append(f.members[:i], f.members[i+1:]...)
			f.released = append(f.released, m)
			fmt.Printf("actuator: released %s from management — it is the leader now\n", url)
			return true
		}
	}
	return false
}

// Retarget implements cluster.Actuator: the survivors were booted
// against the deposed leader and a follower's upstream is fixed for
// life, so each is torn down and rebuilt tracking the new leader —
// the in-process mirror of ProcessActuator's rolling replacement.
func (f *fleet) Retarget(leader string) int {
	old := f.members
	f.members = f.members[:0]
	for _, m := range old {
		m.fol.Close()
		m.stop()
		nm, err := newMember(leader)
		if err != nil {
			fmt.Printf("actuator: retarget respawn failed: %v\n", err)
			continue
		}
		f.members = append(f.members, nm)
		fmt.Printf("actuator: replaced follower %s with %s tracking the new leader\n", m.url, nm.url)
	}
	return len(f.members)
}

func (f *fleet) stopAll() {
	for _, m := range append(append([]*member(nil), f.members...), f.released...) {
		m.fol.Close()
		m.stop()
	}
}

func main() {
	ctx := context.Background()

	// --- The leader: optimizer + publisher at generation 1, archiving
	// its own stream to disk. ---
	archiveDir, err := os.MkdirTemp("", "oreo-archive-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(archiveDir)
	m := oreo.NewMulti()
	if err := m.AddTable("orders", buildOrders(), ordersConfig); err != nil {
		panic(err)
	}
	leaderSrv, err := serve.New(m, serve.Config{})
	if err != nil {
		panic(err)
	}
	defer leaderSrv.Close()
	pub, err := replica.NewPublisher(leaderSrv.Core(), replica.PublisherConfig{Logf: quiet, ArchiveDir: archiveDir})
	if err != nil {
		panic(err)
	}
	pub.Mount(leaderSrv)
	leaderURL, stopLeader := serveOn(leaderSrv.Handler())
	fmt.Printf("leader serving on %s (generation %d)\n", leaderURL, pub.Generation())
	fmt.Printf("leader archiving its decision stream into %s\n", archiveDir)

	// --- The control plane: a controller driven tick-by-tick (oreoctl
	// runs the same loop on a timer), scaling on achieved QPS. ---
	act := &fleet{}
	ctl, err := cluster.NewController(cluster.ControllerConfig{
		Leader:        leaderURL,
		Policy:        cluster.ThresholdPolicy{MaxQPSPerNode: 5, MaxLagEpochs: 200},
		Actuator:      act,
		FailThreshold: 2,
		Logf: func(format string, args ...any) {
			fmt.Printf("controller: "+format+"\n", args...)
		},
	})
	if err != nil {
		panic(err)
	}
	ctl.Tick(ctx) // baseline scrape: no history yet, fleet holds at 0

	// --- Load until the actuator scales the fleet up. ---
	leader := leaderSrv.Core()
	drive := func(n, from int) {
		for i := from; i < from+n; i++ {
			lo := int64((i * 131) % (rows - 1000))
			if _, err := leader.Answer(ctx, serve.QueryRequest{Table: "orders", Preds: []serve.PredicateJSON{
				{Col: "order_ts", HasLo: true, HasHi: true, LoI: lo, HiI: lo + 999},
			}}); err != nil {
				panic(err)
			}
		}
	}
	drive(600, 0)
	ctl.Tick(ctx) // 600 requests this interval: QPS/node over the ceiling
	drive(400, 600)
	ctl.Tick(ctx) // still over the per-node ceiling on 2 nodes: one more
	sig := ctl.Signals()
	fmt.Printf("after load: %d followers (achieved %.0f QPS)\n", len(act.Followers()), sig.QPS)

	// Seal the archive before the crash: drain the leader's decision
	// loop — every update it applies is archived before the hook returns
	// — then fsync and close the segment.
	leaderSrv.Close()
	if err := pub.Close(); err != nil {
		panic(err)
	}
	pos, _ := leader.ReplicaPosition("orders")
	fmt.Printf("archive sealed at epoch %d\n\n", pos.Epoch)

	// --- Kill the leader. ---
	stopLeader()
	fmt.Printf("leader killed; controller polls until FailThreshold=2 trips\n")
	ctl.Tick(ctx) // failure 1/2: one flaky poll must not depose a leader
	ctl.Tick(ctx) // failure 2/2: promote the most caught-up follower

	newLeaderURL := ctl.Leader()
	if newLeaderURL == leaderURL {
		panic("controller did not fail over")
	}
	c, err := client.New(newLeaderURL)
	if err != nil {
		panic(err)
	}
	h, err := c.Health(ctx)
	if err != nil {
		panic(err)
	}
	fmt.Printf("new leader %s: role=%s generation=%d epoch=%d\n\n",
		newLeaderURL, h.Role, h.Generation, h.LayoutEpochs["orders"])

	// --- The fence: the deposed generation's writes are rejected. A
	// revived old leader (or anything still speaking generation 1)
	// cannot slip observations into the new leader's decision loop. ---
	stale, _ := json.Marshal(replica.ObserveRequest{
		Generation: 1,
		Observations: []replica.Observation{{Table: "orders", ID: 1, Preds: []serve.PredicateJSON{
			{Col: "order_ts", HasLo: true, HasHi: true, LoI: 0, HiI: 99},
		}}},
	})
	resp, err := http.Post(newLeaderURL+"/v2/replication/observe", "application/json", bytes.NewReader(stale))
	if err != nil {
		panic(err)
	}
	resp.Body.Close()
	fmt.Printf("observation batch from generation 1 → HTTP %d (fenced, not applied)\n\n", resp.StatusCode)

	// --- Archive bootstrap: a fresh follower replays the sealed log
	// offline and reaches the pre-crash epoch before touching the
	// network, so its first live subscription is a cheap resume — new
	// capacity without taxing the new leader with a snapshot. ---
	n, err := replica.ReplayArchive(archiveDir, func(*replica.Record) error { return nil })
	if err != nil {
		panic(err)
	}
	boot, err := replica.NewFollower(replica.FollowerConfig{
		Upstream:   newLeaderURL,
		Tables:     []replica.TableData{{Name: "orders", Dataset: buildOrders()}},
		ArchiveDir: archiveDir,
		Logf:       quiet,
	})
	if err != nil {
		panic(err)
	}
	defer boot.Close()
	pos, _ = boot.Core().ReplicaPosition("orders")
	fmt.Printf("bootstrap follower replayed %d archived records to epoch %d offline\n", n, pos.Epoch)
	if err := boot.WaitReady(ctx); err != nil {
		panic(err)
	}
	fmt.Printf("bootstrap follower live: %d snapshot applied (the archived one), resumes %d\n\n",
		boot.Stats().Snapshots, boot.Stats().Resumes)

	// --- The promoted leader runs its own optimizer now: it serves,
	// executes, and decides where the old leader left off, and the
	// bootstrapped follower tracks its stream. ---
	results, err := c.Query(ctx, client.Query{
		Table: "orders", Execute: true,
		Preds: []client.Predicate{client.IntRange("order_ts", 1000, 4999)},
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("query on the new leader: matched %d rows (want 4000), cost %.4f\n",
		results[0].Execution.MatchedRows, results[0].Cost)
	// That query is one more decision on the new leader; wait for the
	// bootstrapped follower to stand at it.
	promoted := act.released[0]
	lp, _ := promoted.fol.Core().ReplicaPosition("orders")
	bp, _ := boot.Core().ReplicaPosition("orders")
	for lp.Epoch <= h.LayoutEpochs["orders"] || bp.Epoch != lp.Epoch {
		time.Sleep(time.Millisecond)
		lp, _ = promoted.fol.Core().ReplicaPosition("orders")
		bp, _ = boot.Core().ReplicaPosition("orders")
	}

	// Cross-check at the shared epoch: the follower that never met the
	// old leader answers bit-identically to the promoted one.
	probe := oreo.Query{Preds: []oreo.Predicate{oreo.IntRange("order_ts", 1000, 4999)}}
	ld, bd := lp.Snapshot.CostQuery(probe), bp.Snapshot.CostQuery(probe)
	fmt.Printf("probe at epoch %d: leader cost %.6f, bootstrap follower cost %.6f — bit-identical: %v\n",
		lp.Epoch, ld.Cost, bd.Cost,
		math.Float64bits(ld.Cost) == math.Float64bits(bd.Cost) &&
			len(ld.SurvivorPartitions()) == len(bd.SurvivorPartitions()))

	act.stopAll()
}
