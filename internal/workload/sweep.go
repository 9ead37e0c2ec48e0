package workload

import (
	"math/rand"

	"oreo/internal/query"
	"oreo/internal/table"
)

// ColumnSweepTemplates builds the workload the paper uses to explain
// why sliding-window candidates beat reservoir-sample candidates
// (§V-A): "a workload that iterates through each column of the dataset
// and generates 100 random range queries per column". Each template
// filters exactly one column, so the optimal layout per segment
// partitions by that single column; a reservoir sample mixes columns
// from past segments and can only produce compromise layouts.
//
// One template is emitted per eligible column (numeric columns get
// range predicates; string columns get equality predicates on values
// sampled from the data).
func ColumnSweepTemplates(d *table.Dataset) []Template {
	var templates []Template
	schema := d.Schema()
	for ci := 0; ci < schema.NumCols(); ci++ {
		ci := ci
		col := schema.Col(ci)
		switch col.Type {
		case table.Int64:
			vals := d.Int64Col(ci)
			if len(vals) == 0 {
				continue
			}
			lo, hi := minMaxInt(vals)
			if hi <= lo {
				continue
			}
			span := hi - lo
			width := span / 10
			if width < 1 {
				width = 1
			}
			templates = append(templates, Template{
				Name: "sweep-" + col.Name,
				Make: func(rng *rand.Rand) []query.Predicate {
					start := lo + rng.Int63n(span-width+1)
					return []query.Predicate{query.IntRange(col.Name, start, start+width)}
				},
			})
		case table.Float64:
			vals := d.Float64Col(ci)
			if len(vals) == 0 {
				continue
			}
			lo, hi := minMaxFloat(vals)
			if hi <= lo {
				continue
			}
			span := hi - lo
			width := span / 10
			templates = append(templates, Template{
				Name: "sweep-" + col.Name,
				Make: func(rng *rand.Rand) []query.Predicate {
					// float64(...) rounds the product before the add: arm64 would
					// otherwise fuse the two, and the result would differ from amd64's.
					start := lo + float64(rng.Float64()*(span-width))
					return []query.Predicate{query.FloatRange(col.Name, start, start+width)}
				},
			})
		case table.String:
			if d.NumRows() == 0 {
				continue
			}
			templates = append(templates, Template{
				Name: "sweep-" + col.Name,
				Make: func(rng *rand.Rand) []query.Predicate {
					return []query.Predicate{query.StrEq(col.Name, d.StringAt(ci, rng.Intn(d.NumRows())))}
				},
			})
		}
	}
	return templates
}

// GenerateColumnSweep materializes the §V-A workload itself: the
// templates are visited in column order (not randomly), queriesPerCol
// instances each — "iterates through each column" — so the segment
// structure is deterministic.
func GenerateColumnSweep(d *table.Dataset, queriesPerCol int, rng *rand.Rand) *Stream {
	templates := ColumnSweepTemplates(d)
	s := &Stream{Templates: templates}
	pos := 0
	for ti, tmpl := range templates {
		s.Segments = append(s.Segments, Segment{Template: ti, Start: pos, Length: queriesPerCol})
		for j := 0; j < queriesPerCol; j++ {
			s.Queries = append(s.Queries, query.Query{
				ID:       pos,
				Template: ti,
				Preds:    tmpl.Make(rng),
			})
			pos++
		}
	}
	return s
}

func minMaxInt(vals []int64) (lo, hi int64) {
	lo, hi = vals[0], vals[0]
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

func minMaxFloat(vals []float64) (lo, hi float64) {
	lo, hi = vals[0], vals[0]
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}
