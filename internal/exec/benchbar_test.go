package exec

import (
	"runtime"
	"testing"

	"oreo/internal/prune"
	"oreo/internal/query"
)

// The in-repo bench bars. Both guards self-skip when the machine can't
// give a trustworthy reading: under -short, under the race detector
// (instrumented timings), or with fewer than 4 CPUs (a loaded or tiny
// runner makes wall-clock ratios noise). On a real machine they enforce
// the PR's two performance claims:
//
//   - TestScanSpeedupBar: the vectorized kernels are >= 4x faster than
//     the interpreted row-at-a-time engine, single-threaded, on the
//     BenchmarkScanBySurvivorCount shapes plus a float predicate, which
//     metadata never covers, so the bar times kernels, not summaries.
//   - TestParallelScalingBar: the worker pool scales near-linearly —
//     W workers must deliver at least W/2 of the sequential time.

func benchBarSkip(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("bench bar skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("bench bar skipped under the race detector")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("bench bar needs >= 4 CPUs, have %d", runtime.NumCPU())
	}
}

// timeScan reports ns/op for one engine over one shape, via the
// testing.Benchmark driver so iteration counts self-calibrate.
func timeScan(b func(*testing.B)) float64 {
	r := testing.Benchmark(b)
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

func TestScanSpeedupBar(t *testing.T) {
	benchBarSkip(t)
	const rows, k = 131072, 64
	ds, store := benchStore(rows, k)
	per := int64(rows / k)
	aggs := []AggSpec{{Op: AggCount}, {Op: AggSum, Col: "val"}}
	for _, nsurv := range []int{4, 64} {
		q := query.Query{Preds: []query.Predicate{
			query.IntRange("ts", 0, per*int64(nsurv)-1),
			query.FloatGE("val", 0),
		}}
		ids, _ := prune.Compile(ds.Schema(), q).Survivors(store.Partitioning())
		want := int(per) * nsurv
		before := timeScan(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := store.ScanInterpreted(q, ids, aggs, Options{})
				if err != nil || res.Matched != want {
					b.Fatalf("scan: %v (matched %d)", err, res.Matched)
				}
			}
		})
		after := timeScan(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := store.Scan(q, ids, aggs, Options{Parallelism: 1})
				if err != nil || res.Matched != want {
					b.Fatalf("scan: %v (matched %d)", err, res.Matched)
				}
			}
		})
		speedup := before / after
		t.Logf("survivors=%d: interpreted %.0f ns/op, kernel %.0f ns/op, speedup %.2fx",
			nsurv, before, after, speedup)
		if speedup < 4.0 {
			t.Errorf("survivors=%d: kernel speedup %.2fx below the 4x bar (interpreted %.0f ns/op, kernel %.0f ns/op)",
				nsurv, speedup, before, after)
		}
	}
}

func TestParallelScalingBar(t *testing.T) {
	benchBarSkip(t)
	const rows, k = 131072, 64
	ds, store := benchStore(rows, k)
	q := query.Query{Preds: []query.Predicate{query.IntRange("ts", 0, rows-1)}}
	ids, _ := prune.Compile(ds.Schema(), q).Survivors(store.Partitioning())
	aggs := []AggSpec{{Op: AggCount}, {Op: AggSum, Col: "val"}}
	workers := runtime.NumCPU()
	if workers > 8 {
		workers = 8
	}
	run := func(par int) float64 {
		return timeScan(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := store.Scan(q, ids, aggs, Options{Parallelism: par})
				if err != nil || res.Matched != rows {
					b.Fatalf("scan: %v (matched %d)", err, res.Matched)
				}
			}
		})
	}
	seq := run(1)
	par := run(workers)
	speedup := seq / par
	bar := float64(workers) / 2
	t.Logf("workers=%d: sequential %.0f ns/op, parallel %.0f ns/op, speedup %.2fx (bar %.1fx)",
		workers, seq, par, speedup, bar)
	if speedup < bar {
		t.Errorf("parallel speedup %.2fx at %d workers below the %.1fx bar (seq %.0f ns/op, par %.0f ns/op)",
			speedup, workers, bar, seq, par)
	}
}
