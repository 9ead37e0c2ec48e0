package layout

import (
	"fmt"
	"math/rand"
	"testing"

	"oreo/internal/datagen"
	"oreo/internal/prune"
	"oreo/internal/query"
)

func BenchmarkQdTreeGenerate(b *testing.B) {
	d := testDataset(b, 20000, 99)
	qs := qdWorkload(200, 100)
	g := NewQdTreeGenerator()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Generate(d, qs, 32)
	}
}

// BenchmarkQdTreeGenerateTPCH is one candidate build at the shape of
// the benchmark's decide-drift workload: 100 000 TPC-H rows, a 200-query
// window drifting between two templates, k = 66 (the default partition
// count at that size). Every column's statistics are built, so the
// figure counts the whole candidate, not only what Generate does before
// its first read (BenchmarkCandidateAdmission in internal/manager times
// what a candidate really costs).
func BenchmarkQdTreeGenerateTPCH(b *testing.B) {
	d := datagen.GenerateTPCH(100000, rand.New(rand.NewSource(1)))
	qs := tpchDriftWindow(200, 2)
	g := NewQdTreeGenerator()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Generate(d, qs, 66).Part.Meta()
	}
}

// BenchmarkQdTreeGenerateTPCHWithoutMeta is BenchmarkQdTreeGenerateTPCH
// on the same inputs without the Meta() call: Generate alone (harvest,
// masks, split, routing and the eager part of BuildPartitioning), so a
// change to the sample phase is not read under the column statistics'
// spread.
func BenchmarkQdTreeGenerateTPCHWithoutMeta(b *testing.B) {
	d := datagen.GenerateTPCH(100000, rand.New(rand.NewSource(1)))
	qs := tpchDriftWindow(200, 2)
	g := NewQdTreeGenerator()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Generate(d, qs, 66)
	}
}

// BenchmarkSortGenerateTPCH is the layout every optimizer boots with at
// the benchmark's sizes: TPC-H rows sorted by o_orderdate (the default
// initial sort) into k = 66 partitions. Statistics are built on first
// read, so the figure is the sort, the chop and the partition count.
func BenchmarkSortGenerateTPCH(b *testing.B) {
	for _, rows := range []int{100000, 400000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			d := datagen.GenerateTPCH(rows, rand.New(rand.NewSource(1)))
			g := NewSortGenerator("o_orderdate")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Generate(d, nil, 66)
			}
		})
	}
}

func BenchmarkZOrderGenerate(b *testing.B) {
	d := testDataset(b, 20000, 99)
	qs := qdWorkload(200, 100)
	g := NewZOrderGenerator(3, "ts")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Generate(d, qs, 32)
	}
}

func BenchmarkBottomUpGenerate(b *testing.B) {
	d := testDataset(b, 20000, 99)
	qs := qdWorkload(200, 100)
	g := NewBottomUpGenerator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Generate(d, qs, 32)
	}
}

func BenchmarkLayoutCost(b *testing.B) {
	d := testDataset(b, 20000, 99)
	qs := qdWorkload(64, 100)
	l := NewQdTreeGenerator().Generate(d, qs, 64)
	q := query.Query{Preds: []query.Predicate{query.IntRange("ts", 100, 5000)}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = l.Cost(q)
	}
}

func BenchmarkCostVectorDistance(b *testing.B) {
	d := testDataset(b, 10000, 99)
	qs := qdWorkload(100, 100)
	l1 := NewQdTreeGenerator().Generate(d, qs, 32)
	l2 := NewSortGenerator("ts").Generate(d, nil, 32)
	cqs := l1.CompileWorkload(qs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Distance(l1.CostVectorCompiled(cqs), l2.CostVectorCompiled(cqs))
	}
}

// The FractionScanned benchmarks compare the two cost paths on a single
// range query: the interpreted reference (map lookup per partition per
// predicate, pointer-chased metadata) versus one compiled evaluation
// over the column-major statistics block.
func BenchmarkFractionScannedInterpreted(b *testing.B) {
	d := testDataset(b, 20000, 99)
	l := NewQdTreeGenerator().Generate(d, qdWorkload(64, 100), 64)
	q := query.Query{Preds: []query.Predicate{query.IntRange("ts", 100, 5000)}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = query.FractionScanned(l.Schema(), l.Part, q)
	}
}

func BenchmarkFractionScannedCompiled(b *testing.B) {
	d := testDataset(b, 20000, 99)
	l := NewQdTreeGenerator().Generate(d, qdWorkload(64, 100), 64)
	cq := l.Compile(query.Query{Preds: []query.Predicate{query.IntRange("ts", 100, 5000)}})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cq.FractionScanned(l.Part)
	}
}

// The window-recost benchmarks reproduce the manager's hot loop — one
// layout costed against the full sliding window — in three flavors:
// interpreted, compiled without memoization (every window evaluated
// from scratch through the engine), and the production memoized path.
const benchWindow = 200

func benchRecostFixture(b *testing.B) (*Layout, []query.Query) {
	b.Helper()
	d := testDataset(b, 20000, 99)
	qs := qdWorkload(benchWindow, 100)
	return NewQdTreeGenerator().Generate(d, qs, 64), qs
}

func BenchmarkWindowRecostInterpreted(b *testing.B) {
	l, qs := benchRecostFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = query.AvgFractionScanned(l.Schema(), l.Part, qs)
	}
}

func BenchmarkWindowRecostCompiled(b *testing.B) {
	l, qs := benchRecostFixture(b)
	cqs := l.CompileWorkload(qs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum := 0.0
		for _, cq := range cqs {
			sum += cq.FractionScanned(l.Part)
		}
		_ = sum / float64(len(cqs))
	}
}

func BenchmarkWindowRecostMemoized(b *testing.B) {
	l, qs := benchRecostFixture(b)
	l.AvgCost(qs) // warm the memo, as a steady-state manager would have
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = l.AvgCost(qs)
	}
}

// BenchmarkAdmissionCheck measures Algorithm 5's ε-admission test — a
// candidate's cost vector against several incumbents on the reservoir
// sample — which now compiles the sample once for all vectors.
func BenchmarkAdmissionCheck(b *testing.B) {
	d := testDataset(b, 20000, 99)
	qs := qdWorkload(100, 100)
	cand := NewQdTreeGenerator().Generate(d, qs, 64)
	incumbents := []*Layout{
		NewSortGenerator("ts").Generate(d, nil, 64),
		NewZOrderGenerator(2, "ts").Generate(d, qs, 64),
	}
	cqs := prune.CompileAll(cand.Schema(), qs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cv := cand.CostVectorCompiled(cqs)
		for _, inc := range incumbents {
			_ = Distance(cv, inc.CostVectorCompiled(cqs))
		}
	}
}
