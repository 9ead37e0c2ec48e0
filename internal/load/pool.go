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
// served table, deterministically from the seed. With execute set each
// query asks the server to scan its survivors and count matched rows —
// the full read path rather than costing alone.
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
		cq := client.Query{Table: table, Preds: query.ToWire(q.Preds), Execute: execute}
		if execute {
			cq.Aggs = []client.Aggregate{client.Count()}
		}
		pool[i] = cq
	}
	return pool, nil
}
