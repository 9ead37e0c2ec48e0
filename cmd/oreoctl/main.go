// Command oreoctl runs the cluster control loop against a live
// oreoserve fleet: it polls the leader and every managed follower
// through their public /healthz and /metrics surfaces, derives a
// follower target from achieved QPS, p99 latency, and replication lag,
// and spawns or retires `oreoserve -follow` processes to meet it.
// When the leader stops answering health checks it promotes the most
// caught-up follower and repoints the fleet, fencing the old leader
// out with the replication generation term.
//
// Scale a local fleet behind one leader:
//
//	oreoctl -leader http://localhost:8080 -binary ./oreoserve \
//	    -follower-args "-rows 20000 -archive data" \
//	    -port-base 8100 -min 1 -max 4
//
// The controller's own decisions are observable the same way the fleet
// is: -metrics serves its registry (target, achieved signals, spawn /
// retire / promotion counters, and a leader-identity gauge) over HTTP.
//
// Policy selection: the default threshold policy scales on ceilings
// (-max-qps-per-node, -max-p99, -max-lag); -policy queueing switches
// to an M/M/c sizing estimate driven by -service-rate and
// -target-wait.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"oreo/internal/cluster"
	"oreo/internal/metrics"
)

func main() {
	var (
		leader      = flag.String("leader", "", "base URL of the current leader (required)")
		binary      = flag.String("binary", "", "oreoserve executable followers are spawned from (required)")
		fargs       = flag.String("follower-args", "", "space-separated flags every follower shares (-rows, -tables, ...); -addr and -follow are appended per process")
		host        = flag.String("host", "127.0.0.1", "address followers bind and are reached at")
		ports       = flag.Int("port-base", 8100, "first follower port; slot i listens on port-base+i")
		minF        = flag.Int("min", 0, "minimum follower count")
		maxF        = flag.Int("max", 4, "maximum follower count")
		logDir      = flag.String("log-dir", "", "directory for per-follower stdout+stderr logs (empty discards)")
		metricsAddr = flag.String("metrics", "", "listen address for the controller's own /metrics (empty disables)")

		interval = flag.Duration("interval", 2*time.Second, "control-loop period")
		cooldown = flag.Duration("cooldown", 10*time.Second, "minimum time between fleet actions")
		grace    = flag.Duration("retire-grace", 5*time.Second, "SIGTERM-to-SIGKILL grace for retiring followers")
		failN    = flag.Int("fail-threshold", 3, "consecutive leader health failures before promotion")

		policyName = flag.String("policy", "threshold", "scaling policy: threshold|queueing")
		maxQPS     = flag.Float64("max-qps-per-node", 0, "threshold: scale up past this achieved QPS per node (0 disables)")
		maxP99     = flag.Duration("max-p99", 5*time.Millisecond, "threshold: scale up past this fleet p99 (0 disables)")
		maxLag     = flag.Float64("max-lag", 200, "threshold: scale up past this replication lag in epochs (0 disables)")
		svcRate    = flag.Float64("service-rate", 0, "queueing: queries/second one node sustains (required for -policy queueing)")
		targetWait = flag.Duration("target-wait", 10*time.Millisecond, "queueing: acceptable mean queueing delay")

		keep = flag.Bool("keep-followers", false, "leave spawned followers running on exit instead of stopping them")
	)
	flag.Parse()

	if *leader == "" || *binary == "" {
		fmt.Fprintln(os.Stderr, "oreoctl: -leader and -binary are required")
		flag.Usage()
		os.Exit(2)
	}

	var policy cluster.Policy
	switch *policyName {
	case "threshold":
		policy = cluster.ThresholdPolicy{
			MaxQPSPerNode: *maxQPS,
			MaxP99:        *maxP99,
			MaxLagEpochs:  *maxLag,
		}
	case "queueing":
		if *svcRate <= 0 {
			log.Fatalf("oreoctl: -policy queueing requires -service-rate > 0")
		}
		policy = cluster.QueueingPolicy{
			ServiceRate: *svcRate,
			TargetWait:  *targetWait,
		}
	default:
		log.Fatalf("oreoctl: unknown policy %q (want threshold or queueing)", *policyName)
	}

	reg := metrics.NewRegistry()

	actuator, err := cluster.NewProcessActuator(cluster.ProcessActuatorConfig{
		Binary:      *binary,
		BaseArgs:    strings.Fields(*fargs),
		Host:        *host,
		PortBase:    *ports,
		Min:         *minF,
		Max:         *maxF,
		Cooldown:    *cooldown,
		RetireGrace: *grace,
		LogDir:      *logDir,
		Reg:         reg,
	})
	if err != nil {
		log.Fatalf("oreoctl: %v", err)
	}

	ctl, err := cluster.NewController(cluster.ControllerConfig{
		Leader:        *leader,
		Policy:        policy,
		Actuator:      actuator,
		Interval:      *interval,
		FailThreshold: *failN,
		Reg:           reg,
	})
	if err != nil {
		log.Fatalf("oreoctl: %v", err)
	}

	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("GET /metrics", reg.Handler())
		hs := &http.Server{Addr: *metricsAddr, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
		go func() {
			log.Printf("oreoctl: serving controller metrics on %s", *metricsAddr)
			if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Fatalf("oreoctl: metrics server: %v", err)
			}
		}()
		defer hs.Close()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	log.Printf("oreoctl: controlling %s (policy %s, followers %d..%d on %s:%d+, every %v)",
		*leader, *policyName, *minF, *maxF, *host, *ports, *interval)
	ctl.Run(ctx)

	if *keep {
		log.Printf("oreoctl: exiting; followers left running (current leader %s)", ctl.Leader())
		return
	}
	log.Printf("oreoctl: stopping managed followers")
	actuator.StopAll()
}
