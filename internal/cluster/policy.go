package cluster

import (
	"math"
	"time"
)

// Signals is the fleet state one control-loop tick observed — the
// inputs every scaling policy decides from.
type Signals struct {
	// QPS is the fleet's achieved HTTP request rate over the last
	// interval, summed across the leader and every follower.
	QPS float64
	// P99 is the fleet's 99th-percentile HTTP request latency over the
	// last interval (0 when the interval saw no requests).
	P99 time.Duration
	// MaxLagEpochs is the worst follower replication lag observed:
	// the largest oreo_replication_lag_epochs reading across followers
	// and tables. A saturated follower shows up here first — its apply
	// loop falls behind the stream while its read path still answers.
	MaxLagEpochs float64
	// Followers is the current live follower count.
	Followers int
}

// Policy derives a desired follower count from observed signals. The
// controller clamps the answer to the actuator's [min, max] and rate-
// limits changes with a cool-down, so policies are free to be naive
// about bounds and flapping.
type Policy interface {
	// Target returns the desired follower count.
	Target(sig Signals) int
}

// scaleDownFraction guards ThresholdPolicy's shrink decisions: one
// follower is removed only when QPS per node would stay under
// scaleDownFraction × MaxQPSPerNode with one node fewer AND p99 is
// under scaleDownFraction × MaxP99. Keeping the up and down thresholds
// apart is what prevents flapping at a boundary.
const scaleDownFraction = 0.5

// maxUtilization caps QueueingPolicy's per-node utilization ρ = λ/(cμ),
// and maxNodes bounds its search.
const (
	maxUtilization = 0.8
	maxNodes       = 64
)

// ThresholdPolicy is the first-order scaling rule: add a follower when
// any pressure signal crosses its ceiling, remove one when every
// signal is comfortably below what the smaller fleet could absorb
// (scaleDownFraction of its ceiling). Zero-valued thresholds disable
// their signal.
type ThresholdPolicy struct {
	// MaxQPSPerNode scales up when achieved QPS per serving node
	// (followers + the leader) exceeds it.
	MaxQPSPerNode float64
	// MaxP99 scales up when the fleet p99 exceeds it.
	MaxP99 time.Duration
	// MaxLagEpochs scales up when any follower's replication lag
	// exceeds it — an overloaded follower lags before it errors.
	MaxLagEpochs float64
}

// Target implements Policy.
func (p ThresholdPolicy) Target(sig Signals) int {
	nodes := float64(sig.Followers + 1)
	if p.MaxQPSPerNode > 0 && sig.QPS/nodes > p.MaxQPSPerNode {
		return sig.Followers + 1
	}
	if p.MaxP99 > 0 && sig.P99 > p.MaxP99 {
		return sig.Followers + 1
	}
	if p.MaxLagEpochs > 0 && sig.MaxLagEpochs > p.MaxLagEpochs {
		return sig.Followers + 1
	}
	if sig.Followers > 0 {
		downOK := true
		if p.MaxQPSPerNode > 0 && sig.QPS/(nodes-1) > scaleDownFraction*p.MaxQPSPerNode {
			downOK = false
		}
		if p.MaxP99 > 0 && float64(sig.P99) > scaleDownFraction*float64(p.MaxP99) {
			downOK = false
		}
		if p.MaxLagEpochs > 0 && sig.MaxLagEpochs > scaleDownFraction*p.MaxLagEpochs {
			downOK = false
		}
		if downOK {
			return sig.Followers - 1
		}
	}
	return sig.Followers
}

// QueueingPolicy sizes the fleet with an M/M/c queueing estimate: the
// fleet is modeled as c identical servers (followers plus the leader),
// each sustaining ServiceRate queries per second, fed by one Poisson
// stream at the observed QPS. The policy picks the smallest c whose
// Erlang-C mean queueing delay is at or under TargetWait and whose
// utilization stays under maxUtilization, then asks for c−1 followers
// (at most maxNodes−1).
// It is deliberately a planning estimate, not a controller on its own:
// the observed QPS is the *achieved* rate, which under saturation
// understates offered load, so QueueingPolicy is best combined with a
// latency ceiling (see ThresholdPolicy) or used where load is known to
// be below capacity.
type QueueingPolicy struct {
	// ServiceRate is μ: the queries/second one node sustains. Required.
	ServiceRate float64
	// TargetWait is the acceptable mean queueing delay; zero selects
	// 10ms.
	TargetWait time.Duration
}

// Target implements Policy.
func (p QueueingPolicy) Target(sig Signals) int {
	if p.ServiceRate <= 0 {
		return sig.Followers
	}
	wait := p.TargetWait
	if wait <= 0 {
		wait = 10 * time.Millisecond
	}
	lambda := sig.QPS
	if lambda <= 0 {
		return 0
	}
	for c := 1; c <= maxNodes; c++ {
		rho := lambda / (float64(c) * p.ServiceRate)
		if rho >= maxUtilization {
			continue
		}
		wq := erlangCWait(lambda, p.ServiceRate, c)
		if wq <= wait.Seconds() {
			return c - 1
		}
	}
	return maxNodes - 1
}

// erlangCWait returns the M/M/c mean queueing delay Wq in seconds for
// arrival rate λ, per-server service rate μ, and c servers. The
// blocking probability is computed with the numerically stable
// iterative Erlang-B recurrence, then converted to Erlang-C.
func erlangCWait(lambda, mu float64, c int) float64 {
	a := lambda / mu // offered load in Erlangs
	rho := a / float64(c)
	if rho >= 1 {
		return math.Inf(1)
	}
	// Erlang-B recurrence: B(0) = 1, B(k) = a·B(k−1) / (k + a·B(k−1)).
	b := 1.0
	for k := 1; k <= c; k++ {
		b = a * b / (float64(k) + float64(a*b))
	}
	// Erlang-C from Erlang-B.
	pw := b / (1 - float64(rho*(1-b)))
	return pw / (float64(float64(c)*mu) - lambda)
}
