package persist

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"oreo/internal/query"
	"oreo/internal/wire"
)

// Query logs are JSON-lines files: one query per line, a
// wire.LoggedQuery. This is the interchange format for replaying
// production workloads through the harness (cmd/oreoreplay) and for
// capturing synthetic streams so that an experiment is exactly
// re-runnable elsewhere; client.LoadTrace reads the same lines.
//
// Predicates are wire.PredicateJSON, the serving API's own: numeric
// predicates carry both the int64 and float64 bound families (the
// evaluator selects by the column's schema type, as query.MatchRow
// does), so the round trip is lossless for every constructible
// predicate, and both directions hold each predicate to
// wire.PredicateJSON.Check — the rule /v1/query enforces.

// SaveQueries writes the queries as JSON lines.
func SaveQueries(w io.Writer, qs []query.Query) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i, q := range qs {
		rec := wire.LoggedQuery{ID: q.ID, Template: q.Template, Preds: query.ToWire(q.Preds)}
		if err := wire.CheckPreds(rec.Preds); err != nil {
			return fmt.Errorf("persist: query %d: %w", i, err)
		}
		if err := enc.Encode(&rec); err != nil {
			return fmt.Errorf("persist: encoding query %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// LoadQueries reads a JSON-lines query log. A malformed line fails the
// whole log, naming the line (counted from 1).
func LoadQueries(r io.Reader) ([]query.Query, error) {
	log, err := wire.ReadQueryLog(r)
	if err != nil {
		return nil, fmt.Errorf("persist: query log %w", err)
	}
	out := make([]query.Query, len(log))
	for i, rec := range log {
		out[i] = query.Query{ID: rec.ID, Template: rec.Template, Preds: query.FromWire(rec.Preds)}
	}
	return out, nil
}
