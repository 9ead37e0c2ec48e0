package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// childResult is the result line of a child run, parsed back.
type childResult struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// environment describes where the numbers were taken; it heads every
// report because none of them mean anything without it.
func environment(seed int64) string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("num_cpu=%d GOMAXPROCS=%d go=%s commit=%s seed=%d",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, seed)
}

// runChild re-executes this binary for one workload, so heap, GC state
// and the resident-set high-water mark are not inherited from the
// previous workload. The child's report goes straight to our stderr.
func runChild(cfg runConfig, workload string, seed int64, trace bool) (*childResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating own binary: %w", err)
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(self,
		"--workload", workload,
		"--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"--trace", t,
		"--out", cfg.outDir)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s (trace %s): %w", workload, t, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res childResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s (trace %s): parsing result line: %w", workload, t, err)
	}
	return &res, nil
}

// runSuite runs every workload timed, then traced, each in a child
// process; with repeat > 1 the timed runs are repeated on consecutive
// seeds (the traced run is not: its metrics carry no bound) and every
// end-to-end metric's spread is held against its bound. It returns the
// process exit code.
func runSuite(cfg runConfig, repeat int) int {
	if repeat < 1 {
		repeat = 1
	}
	fmt.Fprintln(os.Stderr, "#", environment(cfg.seed))
	failed := false
	timed := map[string][]*childResult{}
	traced := map[string]*childResult{}
	for rep := 0; rep < repeat; rep++ {
		for _, w := range workloads {
			res, err := runChild(cfg, w.Name, cfg.seed+int64(rep), false)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			failed = failed || !res.Correct
			timed[w.Name] = append(timed[w.Name], res)
		}
	}
	for _, w := range workloads {
		res, err := runChild(cfg, w.Name, cfg.seed, true)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		failed = failed || !res.Correct
		traced[w.Name] = res
	}

	fmt.Println("#", environment(cfg.seed))
	fmt.Printf("# end to end, tracing off, %d run(s) per workload on seeds %d..%d\n", repeat, cfg.seed, cfg.seed+int64(repeat)-1)
	fmt.Printf("%-13s %-14s %-5s %14s %14s %14s %8s %6s  %s\n", "workload", "metric", "unit", "median", "q1", "q3", "spread", "bound", "verdict")
	overBound := false
	for _, w := range workloads {
		for _, m := range endToEnd {
			vals := make([]float64, 0, repeat)
			for _, r := range timed[w.Name] {
				vals = append(vals, r.Metrics[m.Name].Value)
			}
			med := medianFloat(vals)
			if len(vals) < 2 {
				fmt.Printf("%-13s %-14s %-5s %14.4f\n", w.Name, m.Name, m.Unit, med)
				continue
			}
			q1, q3 := quartiles(vals)
			spread := ratio(q3-q1, med)
			verdict := "ok"
			// setup_s is judged on its median only, as the acceptance
			// rule does; everything else must keep its spread in bound.
			if spread > m.Bound && m.Name != "setup_s" {
				verdict = "over-bound"
				overBound = true
			}
			fmt.Printf("%-13s %-14s %-5s %14.4f %14.4f %14.4f %7.1f%% %5.0f%%  %s\n",
				w.Name, m.Name, m.Unit, med, q1, q3, 100*spread, 100*m.Bound, verdict)
		}
		var attempted, bad int64
		for _, r := range timed[w.Name] {
			attempted += r.Attempted
			bad += r.Failed
		}
		fmt.Printf("%-13s %-14s %-5s %14.6f  (%d failed of %d attempted)\n", w.Name, "fail_ratio", "ratio",
			ratio(float64(bad), float64(attempted)), bad, attempted)
	}
	fmt.Printf("# per layer, traced run, seed %d (0 = layer not exercised by that workload)\n", cfg.seed)
	fmt.Printf("%-30s %-6s", "metric", "unit")
	for _, w := range workloads {
		fmt.Printf(" %14s", w.Name)
	}
	fmt.Println()
	for _, m := range perLayer {
		fmt.Printf("%-30s %-6s", m.Name, m.Unit)
		for _, w := range workloads {
			fmt.Printf(" %14.4f", traced[w.Name].Metrics[m.Name].Value)
		}
		fmt.Println()
	}
	fmt.Println("# read ladder: median per rung, one client, and what each rung adds")
	for _, w := range []string{serveCost, serveScan} {
		res := traced[w]
		for _, line := range ladderLines(w, func(name string) float64 { return res.Metrics[name].Value }) {
			fmt.Println(line)
		}
	}
	if err := writeResults(cfg, timed, traced); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	switch {
	case failed:
		fmt.Println("# FAILED: the correctness gate counted failures (see fail_ratio)")
		return 1
	case overBound:
		fmt.Println("# FAILED: at least one end-to-end metric spread beyond its bound")
		return 1
	}
	return 0
}

// writeResults keeps the raw runs under -out for later comparison; they
// are never committed.
func writeResults(cfg runConfig, timed map[string][]*childResult, traced map[string]*childResult) error {
	type doc struct {
		Environment string                    `json:"environment"`
		Workloads   []string                  `json:"workloads"`
		Timed       map[string][]*childResult `json:"timed"`
		Traced      map[string]*childResult   `json:"traced"`
	}
	d := doc{Environment: environment(cfg.seed), Timed: timed, Traced: traced}
	for _, w := range workloads {
		d.Workloads = append(d.Workloads, w.Name)
	}
	buf, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding results: %w", err)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return fmt.Errorf("creating output directory: %w", err)
	}
	path := filepath.Join(cfg.outDir, "results.json")
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing results: %w", err)
	}
	fmt.Println("# raw results:", path)
	return nil
}
