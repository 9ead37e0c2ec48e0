// Command bench is the repository's one benchmark: four named workloads
// measured end to end with tracing off, and a separate traced run that
// times each layer from outside through its public functions. See
// README.md in this directory and BENCHMARK.json at the repository root.
//
//	go run -C bench .                      # whole suite, each workload in a fresh child process
//	go run -C bench . -repeat 5            # repeatability check against the declared bounds
//	go run -C bench . --workload serve-scan --seed 3 --seconds 10 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"
)

// sizes are the input sizes of the four workloads. The benchmark runs at
// fullSizes; bench_test.go runs the same code at toy scale.
type sizes struct {
	decideRows    int
	decideQueries int

	serveRows     int
	costPool      int
	scanPool      int
	oracleQueries int // scan-pool queries checked against a full scan

	writeBootRows    int
	writeSrcRows     int // second seeded table the appended rows come from
	appendBatch      int
	compactThreshold int // delta rows that trigger a fold; 0 keeps the program's default
	readerQPS        float64
	followerProbe    int // queries compared leader vs follower after the write window

	setupReps int           // set-ups per run; setup_s is their median
	warmOps   int           // queries per client in the timed warm-up pass of every set-up
	settle    time.Duration // untimed run-in on the kept instance before the window
	ladderOps int           // operations per ladder rung in the traced run
	probeOps  int           // operations per micro-probe in the traced run
}

var fullSizes = sizes{
	decideRows:    100_000,
	decideQueries: 16_000,

	serveRows:     400_000,
	costPool:      1_024,
	scanPool:      8_192,
	oracleQueries: 512,

	writeBootRows: 100_000,
	writeSrcRows:  50_000,
	appendBatch:   64,
	readerQPS:     500,
	followerProbe: 64,

	setupReps: 3,
	warmOps:   1_024,
	settle:    2 * time.Second,
	ladderOps: 2_048,
	probeOps:  4_096,
}

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
	size     sizes
}

// outcome is what one run of one workload measured.
type outcome struct {
	attempted int64
	failed    int64
	values    map[string]float64
	samples   map[string]int
	notes     []string
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, samples: map[string]int{}}
}

func (o *outcome) set(name string, v float64, samples int) {
	o.values[name] = v
	o.samples[name] = samples
}

// setEndToEnd fills the five end-to-end metrics from one definition, so
// that they mean the same on every workload: ops operations took wall;
// lat (sorted) holds the latencies the workload reports, tail names its
// tail percentile; setups holds one duration per set-up, in seconds.
func (o *outcome) setEndToEnd(ops int, wall time.Duration, lat []time.Duration, tail, rssMB float64, setups []float64) {
	o.set("ops_per_s", float64(ops)/wall.Seconds(), ops)
	o.set("op_p50_us", us(percentile(lat, 0.50)), len(lat))
	o.set("op_tail_us", us(percentile(lat, tail)), len(lat))
	o.set("rss_peak_mb", rssMB, 1)
	o.set("setup_s", medianFloat(setups), len(setups))
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// runWorkload measures one workload in this process.
func runWorkload(cfg runConfig) (*outcome, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var (
		out *outcome
		err error
	)
	switch cfg.workload {
	case decideDrift:
		out, err = runDecide(cfg, tr)
	case serveCost, serveScan:
		out, err = runServeRead(cfg, tr)
	case serveWrite:
		out, err = runServeWrite(cfg, tr)
	default:
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if tr != nil {
		path, err := tr.write(cfg.outDir, cfg.workload)
		if err != nil {
			return nil, err
		}
		out.notef("%d spans in %s", len(tr.spans), path)
	}
	return out, nil
}

// metricsFor is the declared metric list a run must report.
func metricsFor(trace bool) []metricSpec {
	if trace {
		return perLayer
	}
	return endToEnd
}

// resultLine renders the run's result as the one JSON object the
// benchmark contract asks for, metrics in declared order.
func resultLine(o *outcome, specs []metricSpec) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`, o.failed == 0, o.attempted, o.failed)
	for i, m := range specs {
		if i > 0 {
			b.WriteString(", ")
		}
		unit, _ := json.Marshal(m.Unit) // a string always marshals
		fmt.Fprintf(&b, `%q: {"value": %s, "unit": %s}`, m.Name, strconv.FormatFloat(o.values[m.Name], 'g', -1, 64), unit)
	}
	b.WriteString("}}")
	return b.String()
}

// ladderRungs is the read path from the bottom up: each rung's median
// and the rung it stands on. The increment between the two is what the
// upper rung adds. exec.scan_us is a rung only where queries execute.
var ladderRungs = []struct{ name, below string }{
	{"prune.survivors_us", ""},
	{"exec.scan_us", "prune.survivors_us"},
	{"serve.core_answer_us", "exec.scan_us"},
	{"serve.handler_us", "serve.core_answer_us"},
	{"client.unary_us", "serve.handler_us"},
	{"client.stream_us", "serve.core_answer_us"},
	{"replica.follower_stream_us", "client.stream_us"},
}

// ladderLines renders the read ladder of one serving workload from its
// traced metrics.
func ladderLines(workload string, value func(name string) float64) []string {
	var lines []string
	for _, r := range ladderRungs {
		below := r.below
		if workload != serveScan {
			if r.name == "exec.scan_us" {
				continue
			}
			if below == "exec.scan_us" {
				below = "prune.survivors_us"
			}
		}
		line := fmt.Sprintf("%-13s ladder %-28s %12.3f us", workload, r.name, value(r.name))
		if below != "" {
			line += fmt.Sprintf("  %+12.3f over %s", value(r.name)-value(below), below)
		}
		lines = append(lines, line)
	}
	return lines
}

// report prints the human-readable rows of a run: every metric by name
// with its unit and sample count (a layer the workload does not exercise
// is left out).
func report(w *os.File, cfg runConfig, o *outcome) {
	for _, m := range metricsFor(cfg.trace) {
		if cfg.trace && o.samples[m.Name] == 0 {
			continue
		}
		fmt.Fprintf(w, "%-13s %-30s %14.4f %-6s n=%d\n", cfg.workload, m.Name, o.values[m.Name], m.Unit, o.samples[m.Name])
	}
	if cfg.trace && (cfg.workload == serveCost || cfg.workload == serveScan) {
		for _, line := range ladderLines(cfg.workload, func(name string) float64 { return o.values[name] }) {
			fmt.Fprintln(w, line)
		}
	}
	fmt.Fprintf(w, "%-13s %-30s %14.6f %-6s failed=%d attempted=%d\n", cfg.workload, "fail_ratio",
		ratio(float64(o.failed), float64(o.attempted)), "ratio", o.failed, o.attempted)
	for _, n := range o.notes {
		fmt.Fprintf(w, "%-13s # %s\n", cfg.workload, n)
	}
}

func main() {
	var cfg runConfig
	var trace int
	var repeat int
	flag.StringVar(&cfg.workload, "workload", "", "run only this workload, in this process, and print its result as one JSON line")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics, 0 = timed run reporting the end-to-end metrics")
	flag.StringVar(&cfg.outDir, "out", ".bench_out", "directory the traced run writes its span files to")
	flag.IntVar(&repeat, "repeat", 1, "without -workload: run the whole suite this many times and check the spread against the bounds")
	flag.Parse()
	cfg.trace = trace != 0
	cfg.size = fullSizes

	if cfg.workload == "" {
		os.Exit(runSuite(cfg, repeat))
	}
	out, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	report(os.Stderr, cfg, out)
	fmt.Println(resultLine(out, metricsFor(cfg.trace)))
}
