package cluster

import (
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"oreo/internal/metrics"
)

// Actuator abstracts the mechanism that changes the fleet, so the
// controller's decision logic is testable without spawning processes.
type Actuator interface {
	// Ensure moves the live follower count toward target (clamped to
	// the actuator's bounds, rate-limited by its cool-down) with the
	// given leader as upstream, and returns the count after the call.
	Ensure(target int, leader string) (int, error)
	// Followers returns the base URLs of the live followers, oldest
	// first.
	Followers() []string
	// Release stops managing the follower at url without stopping its
	// process — the promotion hand-off: a follower that just became
	// the leader must never be "scaled down".
	Release(url string) bool
	// Retarget moves every managed follower onto a new leader and
	// returns how many were moved. Followers learn their upstream at
	// boot, so this is a replacement, not a reconfiguration; the
	// promotion path uses it because survivors of a failover would
	// otherwise retry the dead leader forever with frozen lag gauges.
	Retarget(leader string) int
}

// ProcessActuatorConfig parameterizes a ProcessActuator.
type ProcessActuatorConfig struct {
	// Binary is the oreoserve executable to spawn.
	Binary string
	// BaseArgs are the flags every follower shares (-tables, -rows,
	// -csv, ...). The actuator appends -addr, -follow and -advertise
	// per process.
	BaseArgs []string
	// Host is the address followers bind and are reached at; zero
	// selects 127.0.0.1.
	Host string
	// PortBase is the first follower port; follower slot i listens on
	// PortBase+i.
	PortBase int
	// Min and Max bound the follower count. Min defaults to 0, Max to
	// 8; Ensure never goes outside them regardless of the target.
	Min, Max int
	// Cooldown is the minimum time between fleet actions (spawn or
	// retire); zero selects 10s. One action per Ensure call at most —
	// the loop converges over ticks, damped, instead of slamming a
	// whole fleet up in one tick.
	Cooldown time.Duration
	// RetireGrace bounds how long a retiring follower gets to exit
	// after SIGTERM before SIGKILL; zero selects 5s.
	RetireGrace time.Duration
	// LogDir receives per-follower stdout+stderr files; empty discards
	// follower output.
	LogDir string
	// Logf receives operational messages; nil selects log.Printf.
	Logf func(format string, args ...any)
	// Reg receives the actuator's action counters and fleet gauge; nil
	// disables instrumentation.
	Reg *metrics.Registry
}

// followerProc is one managed oreoserve -follow process.
type followerProc struct {
	slot int
	url  string
	cmd  *exec.Cmd
	done chan struct{} // closed when the process exits
	out  *os.File
}

// ProcessActuator turns target follower counts into oreoserve -follow
// OS processes: Ensure spawns or retires at most one process per call,
// respecting [Min, Max] and a cool-down between actions, and every
// action is logged and counted. Dead followers (crashed, OOM-killed)
// are reaped on the next Ensure and their slots reused.
type ProcessActuator struct {
	cfg  ProcessActuatorConfig
	logf func(format string, args ...any)

	mu         sync.Mutex
	procs      []*followerProc
	released   []*followerProc
	retiring   []*followerProc // being stopped outside the lock; slots still reserved
	lastAction time.Time

	spawns  *metrics.Counter
	retires *metrics.Counter
	reaps   *metrics.Counter
}

// NewProcessActuator builds a process actuator. It spawns nothing
// until the first Ensure call.
func NewProcessActuator(cfg ProcessActuatorConfig) (*ProcessActuator, error) {
	if cfg.Binary == "" {
		return nil, fmt.Errorf("cluster: actuator needs a binary")
	}
	if cfg.PortBase <= 0 {
		return nil, fmt.Errorf("cluster: actuator needs a port base")
	}
	if cfg.Host == "" {
		cfg.Host = "127.0.0.1"
	}
	if cfg.Max <= 0 {
		cfg.Max = 8
	}
	if cfg.Min < 0 {
		cfg.Min = 0
	}
	if cfg.Min > cfg.Max {
		return nil, fmt.Errorf("cluster: actuator min %d exceeds max %d", cfg.Min, cfg.Max)
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 10 * time.Second
	}
	if cfg.RetireGrace <= 0 {
		cfg.RetireGrace = 5 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	a := &ProcessActuator{cfg: cfg, logf: cfg.Logf}
	if cfg.Reg != nil {
		a.spawns = cfg.Reg.Counter("oreo_cluster_spawns_total",
			"Follower processes the actuator has started.", nil)
		a.retires = cfg.Reg.Counter("oreo_cluster_retires_total",
			"Follower processes the actuator has deliberately stopped.", nil)
		a.reaps = cfg.Reg.Counter("oreo_cluster_reaps_total",
			"Follower processes found dead and reaped (crashes, kills).", nil)
		cfg.Reg.GaugeFunc("oreo_cluster_followers",
			"Live follower processes under actuator management.", nil,
			func() float64 {
				a.mu.Lock()
				defer a.mu.Unlock()
				return float64(len(a.procs))
			})
	}
	return a, nil
}

// Ensure implements Actuator.
func (a *ProcessActuator) Ensure(target int, leader string) (int, error) {
	a.mu.Lock()
	a.reapLocked()
	if target < a.cfg.Min {
		target = a.cfg.Min
	}
	if target > a.cfg.Max {
		target = a.cfg.Max
	}
	n := len(a.procs)
	if n == target {
		a.mu.Unlock()
		return n, nil
	}
	if !a.lastAction.IsZero() && time.Since(a.lastAction) < a.cfg.Cooldown {
		a.mu.Unlock()
		return n, nil // in cool-down; the next tick gets another chance
	}
	var victim *followerProc
	var err error
	if n < target {
		err = a.spawnLocked(leader)
	} else {
		victim = a.retireLocked()
	}
	if err != nil {
		n = len(a.procs)
		a.mu.Unlock()
		return n, err
	}
	a.lastAction = time.Now()
	n = len(a.procs)
	a.mu.Unlock()
	if victim != nil {
		a.stopRetiring(victim)
	}
	return n, nil
}

// Followers implements Actuator.
func (a *ProcessActuator) Followers() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	urls := make([]string, len(a.procs))
	for i, p := range a.procs {
		urls[i] = p.url
	}
	return urls
}

// Release implements Actuator.
func (a *ProcessActuator) Release(url string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, p := range a.procs {
		if p.url == url {
			a.procs = append(a.procs[:i], a.procs[i+1:]...)
			a.released = append(a.released, p)
			a.logf("cluster: released %s (pid %d) from management", url, p.cmd.Process.Pid)
			return true
		}
	}
	return false
}

// Retarget implements Actuator: a rolling replacement of the whole
// managed fleet onto a new leader. oreoserve followers learn their
// upstream from the -follow boot flag, so after a promotion the
// survivors cannot be re-pointed in place — left alone they would
// retry the dead leader's address forever while their lag gauges
// freeze at the last pre-failure reading. Retarget drains every
// managed process, stops them concurrently (each stop is bounded by
// RetireGrace, and none of it holds a.mu), then respawns the same
// count against the new leader. It deliberately ignores the cool-down:
// a stranded follower serves stale data and converges to nothing, so
// replacing it immediately beats damping; lastAction is stamped
// afterward so ordinary scaling resumes damped.
func (a *ProcessActuator) Retarget(leader string) int {
	a.mu.Lock()
	a.reapLocked()
	drained := append([]*followerProc(nil), a.procs...)
	a.procs = nil
	a.retiring = append(a.retiring, drained...)
	if a.retires != nil {
		a.retires.Add(uint64(len(drained)))
	}
	for _, p := range drained {
		a.logf("cluster: retiring follower %s (pid %d) for retarget onto %s", p.url, p.cmd.Process.Pid, leader)
	}
	a.mu.Unlock()
	var wg sync.WaitGroup
	for _, p := range drained {
		wg.Add(1)
		go func(p *followerProc) {
			defer wg.Done()
			a.stopRetiring(p)
		}(p)
	}
	wg.Wait()
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for range drained {
		if err := a.spawnLocked(leader); err != nil {
			a.logf("cluster: retarget spawn: %v", err)
			break
		}
		n++
	}
	if len(drained) > 0 {
		a.lastAction = time.Now()
	}
	return n
}

// StopAll stops every managed process — followers and released ones —
// for a clean shutdown. Best effort: errors are logged, not returned.
func (a *ProcessActuator) StopAll() {
	a.mu.Lock()
	procs := append(append([]*followerProc(nil), a.procs...), a.released...)
	a.procs, a.released = nil, nil
	a.mu.Unlock()
	for _, p := range procs {
		a.stop(p)
	}
}

// reapLocked drops processes that have exited on their own.
func (a *ProcessActuator) reapLocked() {
	live := a.procs[:0]
	for _, p := range a.procs {
		select {
		case <-p.done:
			a.logf("cluster: follower %s (pid %d) exited; reaping slot %d", p.url, p.cmd.Process.Pid, p.slot)
			if a.reaps != nil {
				a.reaps.Add(1)
			}
		default:
			live = append(live, p)
		}
	}
	a.procs = live
}

// spawnLocked starts one follower in the lowest free slot.
func (a *ProcessActuator) spawnLocked(leader string) error {
	used := make(map[int]bool)
	for _, p := range a.procs {
		used[p.slot] = true
	}
	for _, p := range a.released {
		used[p.slot] = true
	}
	for _, p := range a.retiring {
		used[p.slot] = true
	}
	slot := 0
	for used[slot] {
		slot++
	}
	port := a.cfg.PortBase + slot
	addr := fmt.Sprintf("%s:%d", a.cfg.Host, port)
	// -advertise is the follower's own URL: it is what /healthz reports
	// once a failover promotes it.
	args := append(append([]string(nil), a.cfg.BaseArgs...),
		"-addr", addr, "-follow", leader, "-advertise", "http://"+addr)
	cmd := exec.Command(a.cfg.Binary, args...)
	var out *os.File
	if a.cfg.LogDir != "" {
		var err error
		out, err = os.OpenFile(filepath.Join(a.cfg.LogDir, fmt.Sprintf("follower-%d.log", port)),
			os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("cluster: opening follower log: %w", err)
		}
		cmd.Stdout, cmd.Stderr = out, out
	}
	if err := cmd.Start(); err != nil {
		if out != nil {
			out.Close()
		}
		return fmt.Errorf("cluster: starting follower on %s: %w", addr, err)
	}
	p := &followerProc{slot: slot, url: "http://" + addr, cmd: cmd, done: make(chan struct{}), out: out}
	go func() {
		cmd.Wait()
		if p.out != nil {
			p.out.Close()
		}
		close(p.done)
	}()
	a.procs = append(a.procs, p)
	if a.spawns != nil {
		a.spawns.Add(1)
	}
	a.logf("cluster: spawned follower %s (pid %d, upstream %s)", p.url, cmd.Process.Pid, leader)
	return nil
}

// retireLocked drains the newest follower — the slot that has served
// the least and whose loss disturbs the fleet least — into the
// retiring list and returns it (nil if there is nothing to retire).
// The caller must finish the job with stopRetiring after releasing
// a.mu: the stop can block for the full RetireGrace, and holding the
// lock through it would stall every /metrics scrape and control tick
// behind one slow exit. The retiring entry keeps the slot reserved
// until the process is actually gone.
func (a *ProcessActuator) retireLocked() *followerProc {
	if len(a.procs) == 0 {
		return nil
	}
	p := a.procs[len(a.procs)-1]
	a.procs = a.procs[:len(a.procs)-1]
	a.retiring = append(a.retiring, p)
	if a.retires != nil {
		a.retires.Add(1)
	}
	a.logf("cluster: retiring follower %s (pid %d)", p.url, p.cmd.Process.Pid)
	return p
}

// stopRetiring terminates a follower previously drained by
// retireLocked, then frees its slot. Must be called without a.mu held.
func (a *ProcessActuator) stopRetiring(p *followerProc) {
	a.stop(p)
	a.mu.Lock()
	for i, q := range a.retiring {
		if q == p {
			a.retiring = append(a.retiring[:i], a.retiring[i+1:]...)
			break
		}
	}
	a.mu.Unlock()
}

// stop terminates one process: SIGTERM, a bounded grace wait, SIGKILL.
func (a *ProcessActuator) stop(p *followerProc) {
	if p.cmd.Process != nil {
		p.cmd.Process.Signal(syscall.SIGTERM)
	}
	select {
	case <-p.done:
		return
	case <-time.After(a.cfg.RetireGrace):
	}
	if p.cmd.Process != nil {
		p.cmd.Process.Kill()
	}
	<-p.done
}
