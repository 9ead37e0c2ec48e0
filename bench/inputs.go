package main

import (
	"math/rand"

	"oreo/client"
	"oreo/internal/datagen"
	"oreo/internal/query"
	"oreo/internal/serve"
	"oreo/internal/table"
	"oreo/internal/workload"
)

// Everything the program sees is generated here from -seed; each input
// gets its own stream so that changing one size leaves the others alone.
const (
	saltData = iota
	saltQueries
	saltAppendRows
)

func seeded(seed int64, salt int) *rand.Rand {
	return rand.New(rand.NewSource(seed*16 + int64(salt)))
}

const (
	tableName = "lineitem"
	// timeColumn is the arrival-ordered column the boot layout sorts on
	// (experiments.TimeColumnFor(datagen.TPCH)).
	timeColumn = "o_orderdate"
)

func genTable(rows int, seed int64, salt int) *table.Dataset {
	return datagen.GenerateTPCH(rows, seeded(seed, salt))
}

// genMix draws n queries as a stationary mix of the 13 TPC-H templates:
// every query picks a fresh template (NumSegments = NumQueries).
func genMix(n int, seed int64) []query.Query {
	s := workload.MustGenerate(workload.TPCHTemplates(), workload.Config{
		NumQueries:  n,
		NumSegments: n,
	}, seeded(seed, saltQueries))
	return s.Queries
}

// genDrift draws n queries as 13 equal template runs, one per TPC-H
// template, in a seeded order with seeded constants. workload.Generate
// would pick the templates of its runs at random; candidate generation
// costs a different amount per template, and a benchmark whose work
// depends on which templates a seed happens to draw cannot be compared
// across seeds.
func genDrift(n int, seed int64) []query.Query {
	templates := workload.TPCHTemplates()
	rng := seeded(seed, saltQueries)
	order := rng.Perm(len(templates))
	qs := make([]query.Query, 0, n)
	for run, t := range order {
		for end := n * (run + 1) / len(order); len(qs) < end; {
			qs = append(qs, query.Query{ID: len(qs), Template: t, Preds: templates[t].Make(rng)})
		}
	}
	return qs
}

func wirePreds(q query.Query) []client.Predicate {
	preds := make([]client.Predicate, len(q.Preds))
	for i, p := range q.Preds {
		preds[i] = client.Predicate{
			Col: p.Col, HasLo: p.HasLo, HasHi: p.HasHi,
			LoI: p.LoI, HiI: p.HiI, LoF: p.LoF, HiF: p.HiF, In: p.In,
		}
	}
	return preds
}

// clientPool turns generated queries into SDK requests against the
// served table. IDs number from 1 (wire ID 0 means "no ID").
func clientPool(qs []query.Query, execute bool) []client.Query {
	pool := make([]client.Query, len(qs))
	for i, q := range qs {
		pool[i] = client.Query{Table: tableName, ID: i + 1, Preds: wirePreds(q), Execute: execute}
		if execute {
			pool[i].Aggs = []client.Aggregate{client.Count(), client.Sum("l_extendedprice")}
		}
	}
	return pool
}

// coreRequest is the same request in serve.Core's own types, for the
// in-process rung of the ladder.
func coreRequest(cq client.Query) serve.QueryRequest {
	req := serve.QueryRequest{Table: cq.Table, ID: cq.ID, Execute: cq.Execute}
	for _, p := range cq.Preds {
		req.Preds = append(req.Preds, serve.PredicateJSON(p))
	}
	for _, a := range cq.Aggs {
		req.Aggs = append(req.Aggs, serve.AggregateJSON(a))
	}
	return req
}

// appendBatch builds the wire rows [start, start+n) of src, wrapping
// around its end.
func appendBatch(src *table.Dataset, start, n int) []client.Row {
	schema := src.Schema()
	cols := schema.Cols()
	rows := make([]client.Row, n)
	for i := range rows {
		r := (start + i) % src.NumRows()
		row := make(client.Row, len(cols))
		for c, col := range cols {
			v := src.ValueAt(c, r)
			switch col.Type {
			case table.Int64:
				row[col.Name] = v.I
			case table.Float64:
				row[col.Name] = v.F
			default:
				row[col.Name] = v.S
			}
		}
		rows[i] = row
	}
	return rows
}
