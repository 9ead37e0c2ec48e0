package load

import (
	"fmt"
	"math/rand"

	"oreo/client"
	"oreo/internal/query"
	"oreo/internal/workload"
)

// BuildPool materializes a query pool from a workload template library:
// n queries over the given number of template segments, pinned to one
// served table, deterministically from the seed; execute is set as
// Pin sets it.
func BuildPool(templates []workload.Template, table string, n, segments int, execute bool, seed int64) ([]client.Query, error) {
	if len(templates) == 0 {
		return nil, fmt.Errorf("load: empty template library")
	}
	if segments <= 0 {
		segments = 1
	}
	stream, err := workload.Generate(templates, workload.Config{
		NumQueries:  n,
		NumSegments: segments,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	pool := make([]client.Query, len(stream.Queries))
	for i, q := range stream.Queries {
		pool[i] = client.Query{Preds: query.ToWire(q.Preds)}
	}
	Pin(pool, table, execute)
	return pool, nil
}

// Pin addresses every query of a pool to table (an empty table keeps
// each query's own addressing) and sets whether it executes: with
// execute set, each query asks the server to scan its survivors and
// count matched rows — the full read path rather than costing alone.
func Pin(pool []client.Query, table string, execute bool) {
	for i := range pool {
		if table != "" {
			pool[i].Table = table
		}
		pool[i].Execute = execute
		if execute {
			pool[i].Aggs = []client.Aggregate{client.Count()}
		}
	}
}
