package exec

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"oreo/internal/prune"
	"oreo/internal/query"
)

// TestWriteBenchExecJSON is the repeatable harness step behind the
// checked-in BENCH_exec.json trajectory artifact. It is inert unless
// OREO_BENCH_OUT names an output path:
//
//	OREO_BENCH_OUT=BENCH_exec.json go test ./internal/exec -run TestWriteBenchExecJSON -v
//
// "before" is the interpreted row-at-a-time engine (the pre-kernel
// Scan), "after" is the vectorized kernel engine; both run the
// BenchmarkScanBySurvivorCount and BenchmarkScanByPartitionCount
// shapes, plus the parallel scaling curve and the store-rebuild /
// dictionary-build costs, through testing.Benchmark.
func TestWriteBenchExecJSON(t *testing.T) {
	out := os.Getenv("OREO_BENCH_OUT")
	if out == "" {
		t.Skip("set OREO_BENCH_OUT=<path> to write the bench artifact")
	}

	type shape struct {
		Survivors  int     `json:"survivors,omitempty"`
		Partitions int     `json:"partitions,omitempty"`
		Workers    int     `json:"workers,omitempty"`
		BeforeNs   float64 `json:"before_ns_per_op,omitempty"`
		AfterNs    float64 `json:"after_ns_per_op,omitempty"`
		Ns         float64 `json:"ns_per_op,omitempty"`
		Speedup    float64 `json:"speedup,omitempty"`
	}
	report := struct {
		Benchmark        string  `json:"benchmark"`
		Date             string  `json:"date"`
		GOOS             string  `json:"goos"`
		GOARCH           string  `json:"goarch"`
		NumCPU           int     `json:"num_cpu"`
		Rows             int     `json:"rows"`
		Note             string  `json:"note"`
		BySurvivorCount  []shape `json:"scan_by_survivor_count"`
		ByPartitionCount []shape `json:"scan_by_partition_count"`
		ParallelScaling  []shape `json:"parallel_scaling"`
		StringIn         shape   `json:"scan_string_in"`
		StoreRebuildNs   float64 `json:"store_rebuild_ns_per_op"`
		TaggedRebuildNs  float64 `json:"store_rebuild_tagged_ns_per_op"`
	}{
		Benchmark: "internal/exec scan kernels",
		Date:      os.Getenv("OREO_BENCH_DATE"),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Rows:      131072,
		Note: "before = interpreted row-at-a-time engine (pre-kernel Scan); " +
			"after = vectorized selection-vector kernels, single-threaded unless workers set",
	}

	const rows, k = 131072, 64
	ds, store := benchStore(rows, k)
	per := int64(rows / k)
	aggs := []AggSpec{{Op: AggCount}, {Op: AggSum, Col: "val"}}

	scanNs := func(q query.Query, ids []int, ag []AggSpec, opts Options, want int, interpreted bool) float64 {
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var res Result
				var err error
				if interpreted {
					res, err = store.ScanInterpreted(q, ids, ag, opts)
				} else {
					res, err = store.Scan(q, ids, ag, opts)
				}
				if err != nil || res.Matched != want {
					b.Fatalf("scan: %v (matched %d)", err, res.Matched)
				}
			}
		})
		return float64(r.T.Nanoseconds()) / float64(r.N)
	}

	for _, nsurv := range []int{1, 4, 16, 64} {
		q := query.Query{Preds: []query.Predicate{
			query.IntRange("ts", 0, per*int64(nsurv)-1),
		}}
		ids, _ := prune.Compile(ds.Schema(), q).Survivors(store.Partitioning())
		want := int(per) * nsurv
		before := scanNs(q, ids, aggs, Options{}, want, true)
		after := scanNs(q, ids, aggs, Options{Parallelism: 1}, want, false)
		report.BySurvivorCount = append(report.BySurvivorCount, shape{
			Survivors: nsurv, BeforeNs: before, AfterNs: after, Speedup: before / after,
		})
		t.Logf("survivors=%d: before %.0f ns/op, after %.0f ns/op (%.2fx)", nsurv, before, after, before/after)
	}

	for _, parts := range []int{64, 256, 1024} {
		pds, pstore := benchStore(rows, parts)
		q := query.Query{Preds: []query.Predicate{query.IntRange("ts", 0, rows/16-1)}}
		ids, _ := prune.Compile(pds.Schema(), q).Survivors(pstore.Partitioning())
		bench := func(interpreted bool) float64 {
			r := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					var res Result
					var err error
					if interpreted {
						res, err = pstore.ScanInterpreted(q, ids, nil, Options{})
					} else {
						res, err = pstore.Scan(q, ids, nil, Options{})
					}
					if err != nil || res.Matched != rows/16 {
						b.Fatalf("scan: %v (matched %d)", err, res.Matched)
					}
				}
			})
			return float64(r.T.Nanoseconds()) / float64(r.N)
		}
		before, after := bench(true), bench(false)
		report.ByPartitionCount = append(report.ByPartitionCount, shape{
			Partitions: parts, BeforeNs: before, AfterNs: after, Speedup: before / after,
		})
		t.Logf("partitions=%d: before %.0f ns/op, after %.0f ns/op (%.2fx)", parts, before, after, before/after)
	}

	{
		q := query.Query{Preds: []query.Predicate{query.IntRange("ts", 0, rows-1)}}
		ids, _ := prune.Compile(ds.Schema(), q).Survivors(store.Partitioning())
		var seq float64
		for _, workers := range []int{1, 2, 4, 8} {
			ns := scanNs(q, ids, aggs, Options{Parallelism: workers}, rows, false)
			sh := shape{Workers: workers, Ns: ns}
			if workers == 1 {
				seq = ns
			} else {
				sh.Speedup = seq / ns
			}
			report.ParallelScaling = append(report.ParallelScaling, sh)
			t.Logf("workers=%d: %.0f ns/op", workers, ns)
		}
	}

	{
		tds, tstore := benchStoreTagged(rows, k)
		q := query.Query{Preds: []query.Predicate{query.StrIn("tag", "t00", "t03", "t07", "t11")}}
		ids := tstore.AllPartitions()
		inNs := func(interpreted bool) float64 {
			r := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					var res Result
					var err error
					if interpreted {
						res, err = tstore.ScanInterpreted(q, ids, nil, Options{})
					} else {
						res, err = tstore.Scan(q, ids, nil, Options{})
					}
					if err != nil || res.Matched != rows/4 {
						b.Fatalf("scan: %v (matched %d)", err, res.Matched)
					}
				}
			})
			return float64(r.T.Nanoseconds()) / float64(r.N)
		}
		before, after := inNs(true), inNs(false)
		report.StringIn = shape{BeforeNs: before, AfterNs: after, Speedup: before / after}
		t.Logf("string IN: before %.0f ns/op, after %.0f ns/op (%.2fx)", before, after, before/after)

		part := tstore.Partitioning()
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := NewStore(tds, part); err != nil {
					b.Fatal(err)
				}
			}
		})
		report.TaggedRebuildNs = float64(r.T.Nanoseconds()) / float64(r.N)
	}

	{
		part := store.Partitioning()
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := NewStore(ds, part); err != nil {
					b.Fatal(err)
				}
			}
		})
		report.StoreRebuildNs = float64(r.T.Nanoseconds()) / float64(r.N)
	}

	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(out, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", out)
}
