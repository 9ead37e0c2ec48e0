package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"oreo/internal/prune"
	"oreo/internal/query"
	"oreo/internal/table"
)

// benchStore builds a ts-sorted store: `rows` rows over (ts int64,
// val float64) range-partitioned into k equal partitions, so a ts range
// of width w/k of the domain survives exactly w partitions.
func benchStore(rows, k int) (*table.Dataset, *Store) {
	schema := table.NewSchema(
		table.Column{Name: "ts", Type: table.Int64},
		table.Column{Name: "val", Type: table.Float64},
	)
	b := table.NewBuilder(schema, rows)
	for i := 0; i < rows; i++ {
		b.AppendRow(table.Int(int64(i)), table.Float(float64(i%997)))
	}
	ds := b.Build()
	assign := make([]int, rows)
	per := rows / k
	for i := range assign {
		pid := i / per
		if pid >= k {
			pid = k - 1
		}
		assign[i] = pid
	}
	return ds, MustNewStore(ds, table.MustBuildPartitioning(ds, assign, k))
}

// BenchmarkScanBySurvivorCount is the execution layer's scaling
// contract: with the table and partition count fixed, executed-scan
// time is proportional to the *survivor* count the skip-list names, not
// to the total partition count. Each sub-benchmark executes a ts range
// spanning the given number of partitions out of 64.
func BenchmarkScanBySurvivorCount(b *testing.B) {
	const rows, k = 131072, 64
	ds, store := benchStore(rows, k)
	per := int64(rows / k)
	for _, nsurv := range []int{1, 4, 16, 64} {
		q := query.Query{Preds: []query.Predicate{
			query.IntRange("ts", 0, per*int64(nsurv)-1),
		}}
		ids, _ := prune.Compile(ds.Schema(), q).Survivors(store.Partitioning())
		if len(ids) != nsurv {
			b.Fatalf("expected %d survivors, got %d", nsurv, len(ids))
		}
		aggs := []AggSpec{{Op: AggCount}, {Op: AggSum, Col: "val"}}
		b.Run(fmt.Sprintf("survivors=%d", nsurv), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := store.Scan(q, ids, aggs, Options{})
				if err != nil || res.Matched != int(per)*nsurv {
					b.Fatalf("scan: %v (matched %d)", err, res.Matched)
				}
			}
		})
	}
}

// BenchmarkScanByPartitionCount fixes the survivor row mass (1/16 of
// the table) while the total partition count grows 64 → 1024: executed
// time must stay flat, pinning that cost follows data read, not
// partitions that exist.
func BenchmarkScanByPartitionCount(b *testing.B) {
	const rows = 131072
	for _, k := range []int{64, 256, 1024} {
		ds, store := benchStore(rows, k)
		q := query.Query{Preds: []query.Predicate{
			query.IntRange("ts", 0, rows/16-1),
		}}
		ids, _ := prune.Compile(ds.Schema(), q).Survivors(store.Partitioning())
		b.Run(fmt.Sprintf("partitions=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := store.Scan(q, ids, nil, Options{})
				if err != nil || res.Matched != rows/16 {
					b.Fatalf("scan: %v (matched %d)", err, res.Matched)
				}
			}
		})
	}
}

// BenchmarkScanInterpretedBySurvivorCount is the "before" side of the
// bench trajectory: the same shapes as BenchmarkScanBySurvivorCount
// run through the row-at-a-time reference engine the vectorized
// kernels replaced. The ratio between the two is the kernel speedup
// the CI bench bar enforces (TestScanSpeedupBar).
func BenchmarkScanInterpretedBySurvivorCount(b *testing.B) {
	const rows, k = 131072, 64
	ds, store := benchStore(rows, k)
	per := int64(rows / k)
	for _, nsurv := range []int{1, 4, 16, 64} {
		q := query.Query{Preds: []query.Predicate{
			query.IntRange("ts", 0, per*int64(nsurv)-1),
		}}
		ids, _ := prune.Compile(ds.Schema(), q).Survivors(store.Partitioning())
		aggs := []AggSpec{{Op: AggCount}, {Op: AggSum, Col: "val"}}
		b.Run(fmt.Sprintf("survivors=%d", nsurv), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := store.ScanInterpreted(q, ids, aggs, Options{})
				if err != nil || res.Matched != int(per)*nsurv {
					b.Fatalf("scan: %v (matched %d)", err, res.Matched)
				}
			}
		})
	}
}

// BenchmarkScanParallel is the scaling curve: the survivors=64 shape
// at increasing worker counts. Only worker counts up to NumCPU can
// show wall-clock gains; the results are bit-identical at every count.
func BenchmarkScanParallel(b *testing.B) {
	const rows, k = 131072, 64
	ds, store := benchStore(rows, k)
	q := query.Query{Preds: []query.Predicate{query.IntRange("ts", 0, rows-1)}}
	ids, _ := prune.Compile(ds.Schema(), q).Survivors(store.Partitioning())
	aggs := []AggSpec{{Op: AggCount}, {Op: AggSum, Col: "val"}}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := store.Scan(q, ids, aggs, Options{Parallelism: workers})
				if err != nil || res.Matched != rows {
					b.Fatalf("scan: %v (matched %d)", err, res.Matched)
				}
			}
		})
	}
}

// benchStoreTagged is benchStore plus a 16-value string tag column, so
// string-kernel and dictionary-build costs are measurable.
func benchStoreTagged(rows, k int) (*table.Dataset, *Store) {
	schema := table.NewSchema(
		table.Column{Name: "ts", Type: table.Int64},
		table.Column{Name: "val", Type: table.Float64},
		table.Column{Name: "tag", Type: table.String},
	)
	tags := make([]string, 16)
	for i := range tags {
		tags[i] = fmt.Sprintf("t%02d", i)
	}
	b := table.NewBuilder(schema, rows)
	for i := 0; i < rows; i++ {
		b.AppendRow(table.Int(int64(i)), table.Float(float64(i%997)), table.Str(tags[i%len(tags)]))
	}
	ds := b.Build()
	assign := make([]int, rows)
	per := rows / k
	for i := range assign {
		pid := i / per
		if pid >= k {
			pid = k - 1
		}
		assign[i] = pid
	}
	return ds, MustNewStore(ds, table.MustBuildPartitioning(ds, assign, k))
}

// BenchmarkScanStringIn compares the dictionary code-probe kernel with
// the interpreted per-row map lookup on a full-table IN scan.
func BenchmarkScanStringIn(b *testing.B) {
	const rows, k = 131072, 64
	_, store := benchStoreTagged(rows, k)
	q := query.Query{Preds: []query.Predicate{query.StrIn("tag", "t00", "t03", "t07", "t11")}}
	ids := store.allIDs
	const want = rows / 4
	b.Run("engine=kernel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := store.Scan(q, ids, nil, Options{})
			if err != nil || res.Matched != want {
				b.Fatalf("scan: %v (matched %d)", err, res.Matched)
			}
		}
	})
	b.Run("engine=interpreted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := store.ScanInterpreted(q, ids, nil, Options{})
			if err != nil || res.Matched != want {
				b.Fatalf("scan: %v (matched %d)", err, res.Matched)
			}
		}
	})
}

// BenchmarkStoreRebuild measures what a reorganization costs the
// decision consumer: a full per-partition rematerialization (which now
// includes rebuilding the per-column string dictionaries — see the
// tagged variant for that cost over a string-bearing table).
func BenchmarkStoreRebuild(b *testing.B) {
	const rows, k = 131072, 64
	ds, store := benchStore(rows, k)
	part := store.Partitioning()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewStore(ds, part); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreRebuildTagged is BenchmarkStoreRebuild over the
// string-bearing table: the dictionary build is on this path.
func BenchmarkStoreRebuildTagged(b *testing.B) {
	const rows, k = 131072, 64
	ds, store := benchStoreTagged(rows, k)
	part := store.Partitioning()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewStore(ds, part); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScanBySelectivity is the selection kernels' cost per examined
// row as the matched share moves from 1 % to 100 %, per predicate type,
// over a table whose three columns all carry the same key in [0, 100).
// With layout=clustered the partitioning follows the key, so pruning
// keeps few blocks and the metadata covers the Int64 predicate on the
// fully matched ones (those cost nothing per row); with layout=shuffled
// every block holds every key, nothing is pruned or covered, and the
// number is the kernel alone. A kernel with a data-dependent branch
// peaks near 50 % on the shuffled layout; a branch-free one reads flat.
func BenchmarkScanBySelectivity(b *testing.B) {
	const rows, k, keys = 131072, 64, 100
	schema := table.NewSchema(
		table.Column{Name: "i", Type: table.Int64},
		table.Column{Name: "f", Type: table.Float64},
		table.Column{Name: "s", Type: table.String},
	)
	names := make([]string, keys)
	for key := range names {
		names[key] = fmt.Sprintf("v%02d", key)
	}
	// rank is a random permutation: row r holds the key of rank[r], so
	// keys arrive in no order a branch predictor could learn.
	rank := rand.New(rand.NewSource(1)).Perm(rows)
	bld := table.NewBuilder(schema, rows)
	clustered, shuffled := make([]int, rows), make([]int, rows)
	for r, rk := range rank {
		key := rk * keys / rows
		bld.AppendRow(table.Int(int64(key)), table.Float(float64(key)), table.Str(names[key]))
		clustered[r] = rk * k / rows
		shuffled[r] = r * k / rows
	}
	ds := bld.Build()
	for _, lay := range []struct {
		name   string
		assign []int
	}{{"clustered", clustered}, {"shuffled", shuffled}} {
		part := table.MustBuildPartitioning(ds, lay.assign, k)
		store := MustNewStore(ds, part)
		for _, share := range []int{1, 10, 50, 90, 100} {
			preds := []struct {
				typ  string
				pred query.Predicate
			}{
				{"int64", query.IntRange("i", 0, int64(share-1))},
				{"float64", query.FloatRange("f", 0, float64(share-1))},
				{"string", query.StrIn("s", names[:share]...)},
			}
			for _, p := range preds {
				q := query.Query{Preds: []query.Predicate{p.pred}}
				ids, _ := prune.Compile(schema, q).Survivors(part)
				b.Run(fmt.Sprintf("type=%s/layout=%s/matched=%d%%", p.typ, lay.name, share), func(b *testing.B) {
					examined := 0
					for i := 0; i < b.N; i++ {
						res, err := store.Scan(q, ids, nil, Options{})
						if err != nil || res.Matched == 0 {
							b.Fatalf("scan: %v (matched %d)", err, res.Matched)
						}
						examined += res.RowsExamined
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(examined), "ns/row")
				})
			}
		}
	}
}
