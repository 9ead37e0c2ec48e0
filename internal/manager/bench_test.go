package manager

import (
	"math/rand"
	"testing"

	"oreo/internal/datagen"
	"oreo/internal/layout"
	"oreo/internal/query"
	"oreo/internal/workload"
)

// BenchmarkCandidateAdmission is one period-boundary candidate at the
// shape of the benchmark's decide-drift workload: a Qd-tree generated
// over 100 000 TPC-H rows from a 200-query drift window at k = 66, then
// judged by AdmitCompiled against three incumbents on a 100-query
// reservoir. The incumbents' costs are memoized before timing, as a
// serving state's are, so the loop pays for the candidate alone: its
// construction and the partition statistics its costs read.
func BenchmarkCandidateAdmission(b *testing.B) {
	d := datagen.GenerateTPCH(100000, rand.New(rand.NewSource(1)))
	templates := workload.TPCHTemplates()
	rng := rand.New(rand.NewSource(2))
	drift := func(n, from, to int) []query.Query {
		qs := make([]query.Query, n)
		for i := range qs {
			t := from
			if i >= n/2 {
				t = to
			}
			qs[i] = query.Query{ID: i, Template: t, Preds: templates[t].Make(rng)}
		}
		return qs
	}
	g := layout.NewQdTreeGenerator()
	incumbents := []*layout.Layout{
		layout.NewSortGenerator("o_orderdate").Generate(d, nil, 66),
		g.Generate(d, drift(200, 0, 5), 66),
		g.Generate(d, drift(200, 5, 9), 66),
	}
	window := drift(200, 9, 2)
	cqs := incumbents[0].CompileWorkload(window[100:])
	for _, inc := range incumbents {
		inc.CostVectorCompiled(cqs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AdmitCompiled(g.Generate(d, window, 66), incumbents, cqs, 0.08)
	}
}
