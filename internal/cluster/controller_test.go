package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"syscall"
	"testing"
	"time"

	"oreo/internal/metrics"
)

// fakeMember is one scriptable fleet member: /healthz and /metrics
// payloads are settable, promotion requests are recorded and answered.
type fakeMember struct {
	mu       sync.Mutex
	health   string
	metrics  string
	healthy  bool
	promoted bool
	srv      *httptest.Server
}

func newFakeMember(t *testing.T, health string) *fakeMember {
	t.Helper()
	m := &fakeMember{health: health, healthy: true}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		m.mu.Lock()
		defer m.mu.Unlock()
		if !m.healthy {
			http.Error(w, `{"error":"down"}`, http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, m.health)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		m.mu.Lock()
		defer m.mu.Unlock()
		fmt.Fprint(w, m.metrics)
	})
	mux.HandleFunc("POST /v2/cluster/promote", func(w http.ResponseWriter, r *http.Request) {
		m.mu.Lock()
		m.promoted = true
		m.health = `{"status":"ok","role":"leader","generation":2,"layout_epochs":{"orders":9}}`
		h := m.health
		m.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, h)
	})
	m.srv = httptest.NewServer(mux)
	t.Cleanup(m.srv.Close)
	return m
}

func (m *fakeMember) set(health, metricsText string, healthy bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if health != "" {
		m.health = health
	}
	m.metrics = metricsText
	m.healthy = healthy
}

func (m *fakeMember) wasPromoted() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.promoted
}

// fakeActuator records Ensure calls and serves a scripted follower
// list, so controller decisions are observable without processes.
type fakeActuator struct {
	mu        sync.Mutex
	followers []string
	targets   []int
	released  []string
	retargets []string
}

func (a *fakeActuator) Ensure(target int, leader string) (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.targets = append(a.targets, target)
	return len(a.followers), nil
}

func (a *fakeActuator) Followers() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]string(nil), a.followers...)
}

func (a *fakeActuator) Release(url string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.released = append(a.released, url)
	for i, f := range a.followers {
		if f == url {
			a.followers = append(a.followers[:i], a.followers[i+1:]...)
			return true
		}
	}
	return false
}

func (a *fakeActuator) Retarget(leader string) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.retargets = append(a.retargets, leader)
	return len(a.followers)
}

func (a *fakeActuator) lastTarget() (int, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.targets) == 0 {
		return 0, false
	}
	return a.targets[len(a.targets)-1], true
}

const leaderHealth = `{"status":"ok","role":"leader","generation":1,"layout_epochs":{"orders":5}}`

// metricsAt renders a minimal /metrics payload: a request counter and
// a two-bucket latency histogram with `fast` requests under 1ms and
// `slow` between 1ms and 1s, plus a replication-lag gauge.
func metricsAt(fast, slow int, lag float64) string {
	total := fast + slow
	return fmt.Sprintf(`oreo_http_requests_total{code="200",endpoint="query"} %d
oreo_http_request_duration_seconds_bucket{endpoint="query",le="0.001"} %d
oreo_http_request_duration_seconds_bucket{endpoint="query",le="1"} %d
oreo_http_request_duration_seconds_bucket{endpoint="query",le="+Inf"} %d
oreo_replication_lag_epochs{table="orders"} %g
`, total, fast, total, total, lag)
}

func newTestController(t *testing.T, leaderURL string, act Actuator, reg *metrics.Registry) *Controller {
	t.Helper()
	ctl, err := NewController(ControllerConfig{
		Leader:        leaderURL,
		Policy:        ThresholdPolicy{MaxP99: 5 * time.Millisecond, MaxLagEpochs: 50},
		Actuator:      act,
		FailThreshold: 2,
		Logf:          t.Logf,
		Reg:           reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ctl
}

// scrapeRegistry renders a registry through its own handler and parses
// it back with the controller's scrape parser.
func scrapeRegistry(t *testing.T, reg *metrics.Registry) *metrics.Scrape {
	t.Helper()
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	sc, err := metrics.ParseText(rec.Body)
	if err != nil {
		t.Fatalf("controller registry emits unparseable text: %v", err)
	}
	return sc
}

// TestControllerScalesOnSignals drives Tick directly against a fake
// fleet: moderate lag holds the fleet (anti-flap band), a latency
// regression between two scrapes raises the target, and replication
// lag over the ceiling raises it regardless of latency.
func TestControllerScalesOnSignals(t *testing.T) {
	leader := newFakeMember(t, leaderHealth)
	follower := newFakeMember(t, `{"status":"ok","role":"follower","layout_epochs":{"orders":5}}`)
	act := &fakeActuator{followers: []string{follower.srv.URL}}
	ctl := newTestController(t, leader.srv.URL, act, nil)
	ctx := context.Background()

	// Baseline scrape: no history yet, so QPS and p99 are zero, but the
	// follower's lag of 30 sits inside the hold band (over 0.5×50, under
	// 50) — the fleet must hold, not flap down.
	leader.set("", metricsAt(100, 0, 0), true)
	follower.set("", metricsAt(100, 0, 30), true)
	ctl.Tick(ctx)
	if tgt, ok := act.lastTarget(); !ok || tgt != 1 {
		t.Fatalf("baseline target = %d,%v; want hold at 1", tgt, ok)
	}

	// Slow interval: 200 new requests on the leader, almost all over
	// 1ms — the interval p99 lands far above the 5ms ceiling.
	leader.set("", metricsAt(110, 190, 0), true)
	ctl.Tick(ctx)
	if tgt, _ := act.lastTarget(); tgt != 2 {
		t.Fatalf("latency-pressure target = %d, want 2", tgt)
	}
	if sig := ctl.signals; sig.P99 < 5*time.Millisecond || sig.QPS <= 0 {
		t.Fatalf("signals after slow interval = %+v; want p99 over ceiling and positive QPS", sig)
	}

	// Lag pressure: quiet interval, but a follower now lags 80 epochs —
	// over the ceiling, scale up regardless of latency.
	follower.set("", metricsAt(100, 0, 80), true)
	ctl.Tick(ctx)
	if tgt, _ := act.lastTarget(); tgt != 2 {
		t.Fatalf("lag-pressure target = %d, want 2", tgt)
	}
	if sig := ctl.signals; sig.MaxLagEpochs != 80 {
		t.Fatalf("MaxLagEpochs = %v, want 80", sig.MaxLagEpochs)
	}
}

// TestControllerPromotesOnLeaderFailure kills the fake leader and
// asserts the full failover path: FailThreshold consecutive failures,
// promotion of the most caught-up healthy follower, actuator release,
// leader swap, and instrumentation.
func TestControllerPromotesOnLeaderFailure(t *testing.T) {
	leader := newFakeMember(t, leaderHealth)
	behind := newFakeMember(t, `{"status":"ok","role":"follower","layout_epochs":{"orders":3}}`)
	ahead := newFakeMember(t, `{"status":"ok","role":"follower","layout_epochs":{"orders":8}}`)
	act := &fakeActuator{followers: []string{behind.srv.URL, ahead.srv.URL}}
	reg := metrics.NewRegistry()
	ctl := newTestController(t, leader.srv.URL, act, reg)
	ctx := context.Background()

	leader.set("", metricsAt(10, 0, 0), false) // leader down from the start
	ctl.Tick(ctx)
	if ahead.wasPromoted() || behind.wasPromoted() {
		t.Fatal("one failed health poll must not depose a leader")
	}
	ctl.Tick(ctx) // second failure reaches FailThreshold
	if !ahead.wasPromoted() {
		t.Fatal("most caught-up follower was not promoted")
	}
	if behind.wasPromoted() {
		t.Fatal("wrong follower promoted")
	}
	if got := ctl.Leader(); got != ahead.srv.URL {
		t.Fatalf("controller leader = %q, want the promoted follower", got)
	}
	act.mu.Lock()
	released := append([]string(nil), act.released...)
	act.mu.Unlock()
	if len(released) != 1 || released[0] != ahead.srv.URL {
		t.Fatalf("released = %v, want exactly the promoted follower", released)
	}
	// The survivors must be repointed at the new leader — their boot-time
	// upstream is the deposed one, and nothing else ever fixes that.
	act.mu.Lock()
	retargets := append([]string(nil), act.retargets...)
	act.mu.Unlock()
	if len(retargets) != 1 || retargets[0] != ahead.srv.URL {
		t.Fatalf("retargets = %v, want the surviving fleet moved onto the promoted leader once", retargets)
	}

	// The controller's own metrics must tell the story: failures
	// counted, exactly one promotion, and the leader-info series moved
	// to the new URL without leaking the deposed one.
	sc := scrapeRegistry(t, reg)
	if v, ok := sc.Value("oreo_cluster_leader_health_failures_total", nil); !ok || v != 2 {
		t.Fatalf("leader_health_failures_total = %v,%v; want 2", v, ok)
	}
	if v, ok := sc.Value("oreo_cluster_promotions_total", nil); !ok || v != 1 {
		t.Fatalf("promotions_total = %v,%v; want 1", v, ok)
	}
	if v, ok := sc.Value("oreo_cluster_leader_info", map[string]string{"leader": ahead.srv.URL}); !ok || v != 1 {
		t.Fatalf("leader_info for promoted leader = %v,%v; want 1", v, ok)
	}
	if _, ok := sc.Value("oreo_cluster_leader_info", map[string]string{"leader": leader.srv.URL}); ok {
		t.Fatal("deposed leader's info series leaked")
	}

	// After failover the loop steers by the new leader; an idle fleet
	// (no traffic, no lag) scales down.
	ahead.set("", metricsAt(50, 0, 0), true)
	behind.set("", metricsAt(50, 0, 0), true)
	ctl.Tick(ctx)
	if tgt, ok := act.lastTarget(); !ok || tgt != 0 {
		t.Fatalf("post-failover idle target = %d,%v; want scale-down to 0", tgt, ok)
	}
}

// TestControllerPromotionSkipsUnhealthyFollowers pins candidate
// selection: a dead follower is never promoted even if it was ahead,
// and with no candidates at all the controller keeps retrying instead
// of failing over to nothing.
func TestControllerPromotionSkipsUnhealthyFollowers(t *testing.T) {
	leader := newFakeMember(t, leaderHealth)
	dead := newFakeMember(t, `{"status":"ok","role":"follower","layout_epochs":{"orders":100}}`)
	alive := newFakeMember(t, `{"status":"ok","role":"follower","layout_epochs":{"orders":2}}`)
	dead.set("", "", false)
	act := &fakeActuator{followers: []string{dead.srv.URL, alive.srv.URL}}
	ctl := newTestController(t, leader.srv.URL, act, nil)
	ctx := context.Background()

	leader.set("", "", false)
	ctl.Tick(ctx)
	ctl.Tick(ctx)
	if dead.wasPromoted() {
		t.Fatal("promoted a follower that failed its health check")
	}
	if !alive.wasPromoted() {
		t.Fatal("healthy follower was not promoted")
	}

	// No candidates at all: the controller must hold position and
	// retry, not declare a leaderless fleet.
	leader2 := newFakeMember(t, leaderHealth)
	act2 := &fakeActuator{}
	ctl2 := newTestController(t, leader2.srv.URL, act2, nil)
	leader2.set("", "", false)
	ctl2.Tick(ctx)
	ctl2.Tick(ctx)
	ctl2.Tick(ctx)
	if got := ctl2.Leader(); got != leader2.srv.URL {
		t.Fatalf("with no candidates the leader moved to %q", got)
	}
}

// TestControllerPromotesOnlyADominatingFollower pins the dominance
// rule: a follower ahead on one table and behind on another is not
// promoted over one ahead on the second table — that would lose the
// second table's acked writes — so with neither dominating nobody is
// promoted, and the next tick, once one follower has caught up on every
// table, promotes it.
func TestControllerPromotesOnlyADominatingFollower(t *testing.T) {
	leader := newFakeMember(t, leaderHealth)
	first := newFakeMember(t, `{"status":"ok","role":"follower","generation":1,"layout_epochs":{"orders":10,"events":1}}`)
	second := newFakeMember(t, `{"status":"ok","role":"follower","generation":1,"layout_epochs":{"orders":2,"events":8}}`)
	act := &fakeActuator{followers: []string{first.srv.URL, second.srv.URL}}
	ctl := newTestController(t, leader.srv.URL, act, nil)
	ctx := context.Background()

	leader.set("", "", false)
	for range 3 {
		ctl.Tick(ctx)
	}
	if first.wasPromoted() || second.wasPromoted() {
		t.Fatal("promoted a follower that is behind another on some table")
	}
	if got := ctl.Leader(); got != leader.srv.URL {
		t.Fatalf("with no dominating follower the leader moved to %q", got)
	}

	first.set(`{"status":"ok","role":"follower","generation":1,"layout_epochs":{"orders":10,"events":8}}`, "", true)
	ctl.Tick(ctx)
	if !first.wasPromoted() || second.wasPromoted() {
		t.Fatalf("promoted first %v, second %v; want only the follower ahead on every table", first.wasPromoted(), second.wasPromoted())
	}
	if got := ctl.Leader(); got != first.srv.URL {
		t.Fatalf("controller leader = %q, want the promoted follower", got)
	}
}

// TestProcessActuatorLifecycle exercises the real actuator against a
// trivially spawnable command: spawn toward a target one action per
// call, respect the cool-down and max, release a promoted follower
// without reusing its slot, and retire on scale-down. The command is
// a shell that execs a sleeper, so the stop signal reaches the
// sleeper itself; the appended -addr/-follow/-advertise flags land in
// unused positional parameters.
func TestProcessActuatorLifecycle(t *testing.T) {
	const cooldown = 150 * time.Millisecond
	reg := metrics.NewRegistry()
	a, err := NewProcessActuator(ProcessActuatorConfig{
		Binary:      "/bin/sh",
		BaseArgs:    []string{"-c", "exec sleep 60", "follower"},
		PortBase:    42000,
		Max:         3,
		Cooldown:    cooldown,
		RetireGrace: 2 * time.Second,
		Logf:        t.Logf,
		Reg:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.StopAll)

	// One action per Ensure: reaching 2 followers takes two calls.
	if n, err := a.Ensure(2, "http://leader"); err != nil || n != 1 {
		t.Fatalf("first Ensure = %d,%v; want 1 (one spawn per call)", n, err)
	}
	// Cool-down: an immediate second call must not act.
	if n, _ := a.Ensure(2, "http://leader"); n != 1 {
		t.Fatalf("Ensure inside cool-down acted (n=%d)", n)
	}
	time.Sleep(cooldown + 50*time.Millisecond)
	if n, err := a.Ensure(2, "http://leader"); err != nil || n != 2 {
		t.Fatalf("second spawn Ensure = %d,%v; want 2", n, err)
	}
	urls := a.Followers()
	if len(urls) != 2 || urls[0] != "http://127.0.0.1:42000" || urls[1] != "http://127.0.0.1:42001" {
		t.Fatalf("followers = %v; want slots 42000, 42001 in order", urls)
	}
	// Each follower advertises its own URL, which /healthz reports once
	// a failover promotes it.
	a.mu.Lock()
	args := a.procs[1].cmd.Args[1:]
	a.mu.Unlock()
	if want := []string{"-c", "exec sleep 60", "follower", "-addr", "127.0.0.1:42001", "-follow", "http://leader", "-advertise", "http://127.0.0.1:42001"}; !slices.Equal(args, want) {
		t.Fatalf("spawned args = %q; want %q", args, want)
	}

	// Target above Max clamps.
	time.Sleep(cooldown + 50*time.Millisecond)
	if n, _ := a.Ensure(10, "http://leader"); n != 3 {
		t.Fatalf("Ensure(10) = %d; want clamp at max 3", n)
	}

	// Release: the promoted follower leaves management but its process
	// keeps running (StopAll still reaps it at cleanup).
	if !a.Release("http://127.0.0.1:42001") {
		t.Fatal("Release did not find the follower")
	}
	if got := a.Followers(); len(got) != 2 {
		t.Fatalf("followers after release = %v", got)
	}

	// Retire: scaling down stops the newest remaining follower.
	time.Sleep(cooldown + 50*time.Millisecond)
	if n, err := a.Ensure(1, "http://leader"); err != nil || n != 1 {
		t.Fatalf("scale-down Ensure = %d,%v; want 1", n, err)
	}

	// The released slot stays occupied: a new spawn must not hand the
	// promoted leader's address to a fresh follower.
	time.Sleep(cooldown + 50*time.Millisecond)
	if n, err := a.Ensure(2, "http://leader"); err != nil || n != 2 {
		t.Fatalf("respawn Ensure = %d,%v; want 2", n, err)
	}
	for _, u := range a.Followers() {
		if u == "http://127.0.0.1:42001" {
			t.Fatalf("spawn reused the released follower's slot: %v", a.Followers())
		}
	}

	// Every action is accounted.
	sc := scrapeRegistry(t, reg)
	if v, _ := sc.Value("oreo_cluster_spawns_total", nil); v != 4 {
		t.Fatalf("spawns_total = %v, want 4", v)
	}
	if v, _ := sc.Value("oreo_cluster_retires_total", nil); v != 1 {
		t.Fatalf("retires_total = %v, want 1", v)
	}
	if v, _ := sc.Value("oreo_cluster_followers", nil); v != 2 {
		t.Fatalf("followers gauge = %v, want 2", v)
	}
}

// TestProcessActuatorKillsAfterGrace pins the stop's second half: a
// follower that ignores SIGTERM is killed once RetireGrace has passed,
// not before, and the retire is counted.
func TestProcessActuatorKillsAfterGrace(t *testing.T) {
	const (
		cooldown = 10 * time.Millisecond
		grace    = 300 * time.Millisecond
	)
	ready := filepath.Join(t.TempDir(), "ready")
	reg := metrics.NewRegistry()
	a, err := NewProcessActuator(ProcessActuatorConfig{
		Binary:      "/bin/sh",
		BaseArgs:    []string{"-c", "trap '' TERM; : > '" + ready + "'; exec sleep 60", "follower"},
		PortBase:    44000,
		Cooldown:    cooldown,
		RetireGrace: grace,
		Logf:        t.Logf,
		Reg:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.StopAll)

	if n, err := a.Ensure(1, "http://leader"); err != nil || n != 1 {
		t.Fatalf("Ensure = %d,%v; want 1", n, err)
	}
	a.mu.Lock()
	p := a.procs[0]
	a.mu.Unlock()
	// The file appears after the trap is set: from then on SIGTERM is
	// ignored, by the shell and by the sleeper it execs.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if _, err := os.Stat(ready); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follower never set its SIGTERM trap")
		}
	}
	time.Sleep(cooldown)

	start := time.Now()
	if n, err := a.Ensure(0, "http://leader"); err != nil || n != 0 {
		t.Fatalf("scale-down Ensure = %d,%v; want 0", n, err)
	}
	if elapsed := time.Since(start); elapsed < grace {
		t.Fatalf("a SIGTERM-ignoring follower was gone after %v, inside the %v grace", elapsed, grace)
	}
	select {
	case <-p.done:
	default:
		t.Fatal("retire returned with the follower still running")
	}
	if ws, ok := p.cmd.ProcessState.Sys().(syscall.WaitStatus); !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
		t.Fatalf("follower ended with %v; want SIGKILL", p.cmd.ProcessState)
	}
	sc := scrapeRegistry(t, reg)
	if v, _ := sc.Value("oreo_cluster_retires_total", nil); v != 1 {
		t.Fatalf("retires_total = %v, want 1", v)
	}
}

// TestProcessActuatorRetarget pins the post-promotion convergence path:
// Retarget replaces every managed follower with a fresh process aimed
// at the new leader — immediately, ignoring the cool-down — while the
// released (promoted) follower's process and slot stay untouched.
func TestProcessActuatorRetarget(t *testing.T) {
	const cooldown = 100 * time.Millisecond
	reg := metrics.NewRegistry()
	a, err := NewProcessActuator(ProcessActuatorConfig{
		Binary:      "/bin/sh",
		BaseArgs:    []string{"-c", "exec sleep 60", "follower"},
		PortBase:    43000,
		Max:         3,
		Cooldown:    cooldown,
		RetireGrace: 2 * time.Second,
		Logf:        t.Logf,
		Reg:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.StopAll)

	if n, err := a.Ensure(2, "http://oldleader"); err != nil || n != 1 {
		t.Fatalf("first Ensure = %d,%v; want 1", n, err)
	}
	time.Sleep(cooldown + 50*time.Millisecond)
	if n, err := a.Ensure(2, "http://oldleader"); err != nil || n != 2 {
		t.Fatalf("second Ensure = %d,%v; want 2", n, err)
	}

	// Promote slot 0's follower out of management, then converge the
	// survivor onto it. No cool-down sleep before Retarget: a stranded
	// follower serves stale data, so convergence must not wait.
	if !a.Release("http://127.0.0.1:43000") {
		t.Fatal("Release did not find the follower")
	}
	if n := a.Retarget("http://127.0.0.1:43000"); n != 1 {
		t.Fatalf("Retarget moved %d follower(s), want 1", n)
	}
	urls := a.Followers()
	if len(urls) != 1 || urls[0] != "http://127.0.0.1:43001" {
		t.Fatalf("followers after retarget = %v; want a fresh process on slot 43001 only (slot 43000 belongs to the promoted leader)", urls)
	}
	sc := scrapeRegistry(t, reg)
	if v, _ := sc.Value("oreo_cluster_retires_total", nil); v != 1 {
		t.Fatalf("retires_total = %v, want 1 (the replaced survivor)", v)
	}
	if v, _ := sc.Value("oreo_cluster_spawns_total", nil); v != 3 {
		t.Fatalf("spawns_total = %v, want 3 (two scale-ups plus the retarget respawn)", v)
	}
}
