package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// toySizes runs the same code as the benchmark in well under a second
// per workload, so the smoke test stays cheap under -race.
var toySizes = sizes{
	decideRows:    1_000,
	decideQueries: 400,

	serveRows:     4_000,
	costPool:      64,
	scanPool:      128,
	oracleQueries: 32,

	writeBootRows:    3_000,
	writeSrcRows:     1_000,
	appendBatch:      16,
	compactThreshold: 64,
	readerQPS:        200,
	followerProbe:    4,

	setupReps: 2,
	warmOps:   16,
	settle:    20 * time.Millisecond,
	ladderOps: 16,
	probeOps:  32,
}

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestSpecMatchesBenchmarkJSON keeps the declared names in spec.go and
// BENCHMARK.json from drifting apart.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, spec.go %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.Name || f.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), spec.go %q (%q)", i, f.Workloads[i].Name, f.Workloads[i].Why, w.Name, w.Why)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, spec.go %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		got := f.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, spec.go %+v", i, got, m)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, spec.go %d", len(f.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		got := f.PerLayer[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, spec.go %+v", i, got, m)
		}
	}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if m.Unit == "" {
			t.Errorf("metric %s has no unit", m.Name)
		}
	}
}

// TestWorkloadsSmoke runs all four workloads, timed and traced, at toy
// scale: nothing may fail, every end-to-end metric must be measured on
// every workload, every per-layer metric by at least one, and no run may
// report a name that is not declared.
func TestWorkloadsSmoke(t *testing.T) {
	outDir := t.TempDir()
	declared := map[bool]map[string]bool{false: {}, true: {}}
	for _, trace := range []bool{false, true} {
		for _, m := range metricsFor(trace) {
			declared[trace][m.Name] = true
		}
	}
	layerSeen := map[string]bool{}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w.Name + "/timed"
			if trace {
				name = w.Name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				cfg := runConfig{workload: w.Name, seed: 1, seconds: 0.2, trace: trace, outDir: outDir, size: toySizes}
				out, err := runWorkload(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if out.failed != 0 || out.attempted < 1 {
					t.Errorf("%d failed of %d attempted: %v", out.failed, out.attempted, out.notes)
				}
				for name, v := range out.values {
					if !declared[trace][name] {
						t.Errorf("undeclared metric %q", name)
					}
					if trace && out.samples[name] > 0 {
						layerSeen[name] = true
					}
					if !trace && v <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", name, v)
					}
				}
				if !trace && len(out.values) != len(endToEnd) {
					t.Errorf("%d end-to-end metrics reported, want %d", len(out.values), len(endToEnd))
				}
				var parsed childResult
				if err := json.Unmarshal([]byte(resultLine(out, metricsFor(trace))), &parsed); err != nil {
					t.Errorf("result line is not JSON: %v", err)
				}
				if len(parsed.Metrics) != len(metricsFor(trace)) {
					t.Errorf("result line has %d metrics, want %d", len(parsed.Metrics), len(metricsFor(trace)))
				}
				if trace {
					if _, err := os.Stat(filepath.Join(outDir, "spans-"+w.Name+".ndjson")); err != nil {
						t.Errorf("traced run wrote no span file: %v", err)
					}
				}
			})
		}
	}
	for _, m := range perLayer {
		if !layerSeen[m.Name] {
			t.Errorf("no workload measures per-layer metric %s", m.Name)
		}
	}
}
