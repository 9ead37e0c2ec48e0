// Package cluster is the self-scaling fleet layer: a control loop
// that watches an OREO leader + follower fleet through its own public
// surfaces (/healthz and /metrics — the controller has no privileged
// channel), decides how many followers the observed load deserves, and
// actuates that decision by spawning and retiring follower processes.
// It also owns failover: when the leader stops answering, the
// controller promotes the most caught-up follower and fences the old
// leader out with the replication generation term.
//
// The design follows the collector → controller → actuator split of
// production autoscalers: Controller collects signals and picks a
// target via a pluggable Policy (ThresholdPolicy, QueueingPolicy);
// an Actuator (ProcessActuator for OS processes) moves the fleet
// toward it, bounded, cooled down, and fully accounted in /metrics.
package cluster

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"oreo/client"
	"oreo/internal/metrics"
)

const (
	// pollTimeout bounds each health/metrics poll.
	pollTimeout = 2 * time.Second
	// promoteTimeout bounds the promotion request (the follower rebuilds
	// a decision engine per table).
	promoteTimeout = 60 * time.Second
)

// ControllerConfig parameterizes a Controller.
type ControllerConfig struct {
	// Leader is the initial leader base URL. After a promotion the
	// controller tracks the new leader internally (see Leader()).
	Leader string
	// Policy picks the follower target each tick; nil selects a
	// ThresholdPolicy with a 5ms p99 ceiling and 200-epoch lag ceiling.
	Policy Policy
	// Actuator moves the fleet. Required.
	Actuator Actuator
	// Interval is the control-loop period; zero selects 2s.
	Interval time.Duration
	// FailThreshold is how many consecutive leader health failures
	// trigger a promotion; zero selects 3. One flaky poll must not
	// depose a healthy leader.
	FailThreshold int
	// HTTPClient substitutes the transport for metric scrapes; nil
	// selects a dedicated client.
	HTTPClient *http.Client
	// Logf receives operational messages; nil selects log.Printf.
	Logf func(format string, args ...any)
	// Reg receives the controller's own metric series; nil disables
	// instrumentation.
	Reg *metrics.Registry
}

// Controller is the collector + decision half of the control loop: it
// polls the fleet, derives Signals, asks the Policy for a target, and
// hands the target to the Actuator. Drive it with Run (blocking) or
// tick-by-tick with Tick (tests, one-shot tools).
type Controller struct {
	cfg      ControllerConfig
	logf     func(format string, args ...any)
	hc       *http.Client
	actuator Actuator
	policy   Policy

	mu        sync.Mutex
	leader    string
	failCount int
	clients   map[string]*client.Client
	prev      map[string]*metrics.Scrape
	prevTime  time.Time
	signals   Signals
	target    int

	ticks          *metrics.Counter
	leaderFailures *metrics.Counter
	promotions     *metrics.Counter
	reg            *metrics.Registry
}

// NewController builds a controller; it polls nothing until Run or
// Tick is called.
func NewController(cfg ControllerConfig) (*Controller, error) {
	if cfg.Leader == "" {
		return nil, fmt.Errorf("cluster: controller needs a leader URL")
	}
	if cfg.Actuator == nil {
		return nil, fmt.Errorf("cluster: controller needs an actuator")
	}
	if cfg.Policy == nil {
		cfg.Policy = ThresholdPolicy{MaxP99: 5 * time.Millisecond, MaxLagEpochs: 200}
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 2 * time.Second
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = 3
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = &http.Client{}
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	c := &Controller{
		cfg:      cfg,
		logf:     cfg.Logf,
		hc:       cfg.HTTPClient,
		actuator: cfg.Actuator,
		policy:   cfg.Policy,
		leader:   cfg.Leader,
		clients:  make(map[string]*client.Client),
		prev:     make(map[string]*metrics.Scrape),
	}
	if cfg.Reg != nil {
		c.reg = cfg.Reg
		c.ticks = cfg.Reg.Counter("oreo_cluster_ticks_total",
			"Control-loop iterations completed.", nil)
		c.leaderFailures = cfg.Reg.Counter("oreo_cluster_leader_health_failures_total",
			"Leader health polls that failed.", nil)
		c.promotions = cfg.Reg.Counter("oreo_cluster_promotions_total",
			"Follower promotions the controller has executed.", nil)
		cfg.Reg.GaugeFunc("oreo_cluster_target_followers",
			"Follower count the policy last asked for (before actuator clamping).", nil,
			func() float64 { c.mu.Lock(); defer c.mu.Unlock(); return float64(c.target) })
		cfg.Reg.GaugeFunc("oreo_cluster_qps",
			"Fleet-wide achieved HTTP request rate over the last control interval.", nil,
			func() float64 { c.mu.Lock(); defer c.mu.Unlock(); return c.signals.QPS })
		cfg.Reg.GaugeFunc("oreo_cluster_p99_seconds",
			"Fleet p99 HTTP latency over the last control interval (worst member).", nil,
			func() float64 { c.mu.Lock(); defer c.mu.Unlock(); return c.signals.P99.Seconds() })
		cfg.Reg.GaugeFunc("oreo_cluster_max_lag_epochs",
			"Worst follower replication lag observed on the last tick.", nil,
			func() float64 { c.mu.Lock(); defer c.mu.Unlock(); return c.signals.MaxLagEpochs })
		c.setLeaderGauge("", cfg.Leader)
	}
	return c, nil
}

// setLeaderGauge maintains the 1-valued oreo_cluster_leader_info gauge
// whose {leader} label names the current leader. The old label series
// is unregistered on change, so a promotion moves the series instead
// of leaking one per deposed leader.
func (c *Controller) setLeaderGauge(old, cur string) {
	if c.reg == nil {
		return
	}
	if old != "" {
		c.reg.Unregister("oreo_cluster_leader_info", metrics.Labels{"leader": old})
	}
	c.reg.Gauge("oreo_cluster_leader_info",
		"Current leader identity, as a 1-valued gauge labeled with its URL.",
		metrics.Labels{"leader": cur}).Set(1)
}

// Leader returns the URL the controller currently believes leads the
// fleet (updated by promotions).
func (c *Controller) Leader() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.leader
}

// Run drives the control loop until ctx ends.
func (c *Controller) Run(ctx context.Context) {
	t := time.NewTicker(c.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			c.Tick(ctx)
		}
	}
}

// clientFor returns a cached SDK client for a base URL.
func (c *Controller) clientFor(url string) (*client.Client, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cl, ok := c.clients[url]; ok {
		return cl, nil
	}
	cl, err := client.New(url, client.WithHTTPClient(c.hc))
	if err != nil {
		return nil, err
	}
	c.clients[url] = cl
	return cl, nil
}

// health polls one member's /healthz with the poll timeout.
func (c *Controller) health(ctx context.Context, url string) (*client.Health, error) {
	cl, err := c.clientFor(url)
	if err != nil {
		return nil, err
	}
	hctx, cancel := context.WithTimeout(ctx, pollTimeout)
	defer cancel()
	return cl.Health(hctx)
}

// scrape fetches and parses one member's /metrics.
func (c *Controller) scrape(ctx context.Context, url string) (*metrics.Scrape, error) {
	hctx, cancel := context.WithTimeout(ctx, pollTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(hctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("metrics answered %d", resp.StatusCode)
	}
	return metrics.ParseText(resp.Body)
}

// Tick runs one control-loop iteration: poll, derive signals, decide,
// actuate. Exported so tests and one-shot tools can drive the loop
// without wall-clock coupling.
func (c *Controller) Tick(ctx context.Context) {
	if c.ticks != nil {
		c.ticks.Add(1)
	}
	c.mu.Lock()
	leader := c.leader
	c.mu.Unlock()

	if _, err := c.health(ctx, leader); err != nil {
		c.mu.Lock()
		c.failCount++
		fails := c.failCount
		c.mu.Unlock()
		if c.leaderFailures != nil {
			c.leaderFailures.Add(1)
		}
		c.logf("cluster: leader %s health check failed (%d/%d): %v", leader, fails, c.cfg.FailThreshold, err)
		if fails >= c.cfg.FailThreshold {
			c.promote(ctx, leader)
		}
		return
	}
	c.mu.Lock()
	c.failCount = 0
	c.mu.Unlock()

	sig := c.collect(ctx, leader)
	target := c.policy.Target(sig)
	c.mu.Lock()
	c.signals = sig
	c.target = target
	c.mu.Unlock()
	got, err := c.actuator.Ensure(target, leader)
	if err != nil {
		c.logf("cluster: actuating target %d: %v", target, err)
		return
	}
	if got != sig.Followers {
		c.logf("cluster: signals qps=%.1f p99=%v lag=%.0f followers=%d -> target %d (now %d)",
			sig.QPS, sig.P99, sig.MaxLagEpochs, sig.Followers, target, got)
	}
}

// collect polls every fleet member and derives this tick's Signals:
// QPS is the summed request-counter delta over the interval, P99 the
// worst member's interval latency quantile, MaxLagEpochs the worst
// replication lag gauge. Members that fail to scrape contribute
// nothing this tick (their previous scrape is kept for the next
// delta).
func (c *Controller) collect(ctx context.Context, leader string) Signals {
	members := append([]string{leader}, c.actuator.Followers()...)
	now := time.Now()
	c.mu.Lock()
	prevTime := c.prevTime
	c.mu.Unlock()
	interval := now.Sub(prevTime).Seconds()

	sig := Signals{Followers: len(members) - 1}
	var requests float64
	for _, url := range members {
		sc, err := c.scrape(ctx, url)
		if err != nil {
			c.logf("cluster: scraping %s: %v", url, err)
			continue
		}
		c.mu.Lock()
		prev := c.prev[url]
		c.prev[url] = sc
		c.mu.Unlock()
		if lag := sc.Max("oreo_replication_lag_epochs", nil); lag > sig.MaxLagEpochs {
			sig.MaxLagEpochs = lag
		}
		if prev == nil || interval <= 0 {
			continue
		}
		if d := sc.Sum("oreo_http_requests_total", nil) - prev.Sum("oreo_http_requests_total", nil); d > 0 {
			requests += d
		}
		if p99, ok := sc.HistQuantile("oreo_http_request_duration_seconds", 0.99, prev); ok {
			if d := time.Duration(p99 * float64(time.Second)); d > sig.P99 {
				sig.P99 = d
			}
		}
	}
	if interval > 0 {
		sig.QPS = requests / interval
	}
	c.mu.Lock()
	c.prevTime = now
	c.mu.Unlock()
	return sig
}

// promote executes the failover: pick the follower that dominates
// every other healthy candidate — at least as far along on every
// table's (generation, epoch), so promoting it drops no table's state
// another follower holds — ask it to promote, and repoint the fleet's
// world at it. A sum of epochs is not enough: a follower ahead on one
// table and behind on another would win it and lose the second table's
// acked writes. Candidates that fail are skipped; if none dominates, or
// every candidate fails, the old leader stays on probation and the next
// tick retries.
func (c *Controller) promote(ctx context.Context, oldLeader string) {
	type candidate struct {
		url string
		h   *client.Health
	}
	var healthy []candidate
	for _, url := range c.actuator.Followers() {
		h, err := c.health(ctx, url)
		if err != nil {
			c.logf("cluster: promotion candidate %s unhealthy: %v", url, err)
			continue
		}
		healthy = append(healthy, candidate{url: url, h: h})
	}
	if len(healthy) == 0 {
		c.logf("cluster: leader %s is down and no follower is promotable; retrying", oldLeader)
		return
	}
	var best *candidate
	for i := range healthy {
		if !slices.ContainsFunc(healthy, func(o candidate) bool { return !dominates(healthy[i].h, o.h) }) {
			best = &healthy[i]
			break
		}
	}
	if best == nil {
		var positions []string
		for _, cand := range healthy {
			positions = append(positions, fmt.Sprintf("%s at generation %d, epochs %v", cand.url, cand.h.Generation, cand.h.LayoutEpochs))
		}
		c.logf("cluster: leader %s is down and no follower is at least as far along as every other on every table (%s); promoting none, retrying",
			oldLeader, strings.Join(positions, "; "))
		return
	}
	cl, err := c.clientFor(best.url)
	if err != nil {
		c.logf("cluster: promotion of %s failed: %v", best.url, err)
		return
	}
	pctx, cancel := context.WithTimeout(ctx, promoteTimeout)
	h, err := cl.Promote(pctx)
	cancel()
	if err != nil {
		c.logf("cluster: promoting %s failed: %v", best.url, err)
		return
	}
	c.actuator.Release(best.url)
	c.mu.Lock()
	c.leader = best.url
	c.failCount = 0
	c.mu.Unlock()
	if c.promotions != nil {
		c.promotions.Add(1)
	}
	c.setLeaderGauge(oldLeader, best.url)
	c.logf("cluster: promoted %s to leader (generation %d, epochs %v); deposed %s",
		best.url, h.Generation, h.LayoutEpochs, oldLeader)
	// The surviving followers still point at the deposed leader — their
	// upstream is fixed at boot — so without this they retry a dead
	// address forever and the fleet never re-replicates. Move them now.
	if moved := c.actuator.Retarget(best.url); moved > 0 {
		c.logf("cluster: retargeted %d surviving follower(s) onto %s", moved, best.url)
	}
}

// dominates reports whether a is at least as far along as b on every
// table: its (generation, epoch) is lexicographically no less than b's.
// A table a follower does not name is at epoch 0.
func dominates(a, b *client.Health) bool {
	if a.Generation != b.Generation {
		return a.Generation > b.Generation
	}
	for t, e := range b.LayoutEpochs {
		if a.LayoutEpochs[t] < e {
			return false
		}
	}
	return true
}
