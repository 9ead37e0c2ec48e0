package layout

import (
	"fmt"
	"sort"
	"strings"

	"oreo/internal/query"
	"oreo/internal/table"
	"oreo/internal/zorder"
)

// ZOrderGenerator produces workload-aware Z-order layouts: it picks the
// top-NumColumns most queried columns in the workload (the paper's
// recipe for making Z-ordering workload-aware), buckets each by sample
// quantiles, interleaves the bucket ranks into Morton codes, sorts by
// code, and chops into k equal partitions.
type ZOrderGenerator struct {
	// NumColumns is how many columns to interleave (the paper uses the
	// top three most queried).
	NumColumns int
	// FallbackColumns are used when the workload is empty or references
	// fewer columns than NumColumns (e.g. at cold start).
	FallbackColumns []string
}

// NewZOrderGenerator returns a Z-order generator over the top-n queried
// columns, falling back to the given columns on a cold start.
func NewZOrderGenerator(n int, fallback ...string) *ZOrderGenerator {
	if n <= 0 || n > zorder.MaxDims {
		panic(fmt.Sprintf("layout: zorder columns must be in [1,%d]", zorder.MaxDims))
	}
	return &ZOrderGenerator{NumColumns: n, FallbackColumns: fallback}
}

// Name implements Generator.
func (g *ZOrderGenerator) Name() string { return "zorder" }

// TopQueriedColumns returns up to n column names ordered by how many
// workload queries filter on them (ties broken by name for
// determinism), considering only columns present in the schema.
func TopQueriedColumns(schema *table.Schema, qs []query.Query, n int) []string {
	counts := make(map[string]int)
	for _, q := range qs {
		for _, col := range q.Columns() {
			if _, ok := schema.Index(col); ok {
				counts[col]++
			}
		}
	}
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if counts[names[i]] != counts[names[j]] {
			return counts[names[i]] > counts[names[j]]
		}
		return names[i] < names[j]
	})
	if len(names) > n {
		names = names[:n]
	}
	return names
}

// Key returns a cache key identifying the layout Generate would build:
// Z-order output depends only on the chosen column set (plus k), so two
// windows with the same top columns produce identical layouts. This
// lets callers reuse the materialized layout instead of re-sorting.
func (g *ZOrderGenerator) Key(schema *table.Schema, qs []query.Query, k int) string {
	cols := g.chooseColumns(schema, qs)
	if len(cols) == 0 {
		return ""
	}
	return fmt.Sprintf("zorder(%s)/k=%d", strings.Join(cols, ","), k)
}

// chooseColumns resolves the column set: top queried, padded with
// fallbacks.
func (g *ZOrderGenerator) chooseColumns(schema *table.Schema, qs []query.Query) []string {
	cols := TopQueriedColumns(schema, qs, g.NumColumns)
	for _, fb := range g.FallbackColumns {
		if len(cols) >= g.NumColumns {
			break
		}
		if _, ok := schema.Index(fb); !ok {
			continue
		}
		dup := false
		for _, c := range cols {
			if c == fb {
				dup = true
				break
			}
		}
		if !dup {
			cols = append(cols, fb)
		}
	}
	return cols
}

// Generate implements Generator.
func (g *ZOrderGenerator) Generate(d *table.Dataset, qs []query.Query, k int) *Layout {
	cols := g.chooseColumns(d.Schema(), qs)
	if len(cols) == 0 {
		panic("layout: zorder has no columns (empty workload and no fallback)")
	}

	bits := zorder.BitsPerDim(len(cols))
	if bits > 16 {
		bits = 16 // 65536 buckets per dimension is plenty for layout work
	}

	// Build per-column bucketizers from the full column (the dataset
	// here is already the working sample).
	type ranker func(row int) uint64
	rankers := make([]ranker, len(cols))
	for i, name := range cols {
		ci := d.Schema().MustIndex(name)
		switch d.Schema().Col(ci).Type {
		case table.Int64:
			b := zorder.NewIntBucketizer(d.Int64Col(ci), bits)
			col := ci
			rankers[i] = func(row int) uint64 { return b.RankInt(d.Int64At(col, row)) }
		case table.Float64:
			b := zorder.NewFloatBucketizer(d.Float64Col(ci), bits)
			col := ci
			rankers[i] = func(row int) uint64 { return b.RankFloat(d.Float64At(col, row)) }
		case table.String:
			col := ci
			vals := make([]string, d.NumRows())
			for r := range vals {
				vals[r] = d.StringAt(col, r)
			}
			b := zorder.NewStringBucketizer(vals, bits)
			rankers[i] = func(row int) uint64 { return b.RankString(d.StringAt(col, row)) }
		}
	}

	codes := make([]uint64, d.NumRows())
	ranks := make([]uint64, len(cols))
	for r := 0; r < d.NumRows(); r++ {
		for i := range rankers {
			ranks[i] = rankers[i](r)
		}
		codes[r] = zorder.Interleave(ranks)
	}

	order := make([]int, d.NumRows())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return codes[order[a]] < codes[order[b]] })

	assign := chopSorted(order, d.NumRows(), k)
	part := table.MustBuildPartitioning(d, assign, k)
	return New(fmt.Sprintf("zorder(%s)", strings.Join(cols, ",")), d.Schema(), part)
}
