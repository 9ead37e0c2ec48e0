package wire

import (
	"encoding/json"
	"fmt"
	"io"
)

// LoggedQuery is one line of a query log: the JSON-lines interchange
// format internal/persist writes and reads and client.LoadTrace replays,
// so a captured log is a valid request stream as-is. Template is the
// workload template the query was drawn from (omitted when 0); Table,
// when set, pins the query to one served table — the SDK honours it,
// internal/persist neither writes nor reads it.
type LoggedQuery struct {
	ID       int             `json:"id"`
	Template int             `json:"template,omitempty"`
	Table    string          `json:"table,omitempty"`
	Preds    []PredicateJSON `json:"preds"`
}

// ReadQueryLog decodes a whole query log, holding every predicate to
// Check. White space between values is skipped; the first malformed
// query fails the log, named as "line N" by its position counted from
// 1 (its line number in a log without blank lines) — dropping a
// captured query silently would bias a replay.
func ReadQueryLog(r io.Reader) ([]LoggedQuery, error) {
	dec := json.NewDecoder(r)
	var out []LoggedQuery
	for line := 1; ; line++ {
		var q LoggedQuery
		if err := dec.Decode(&q); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		if err := CheckPreds(q.Preds); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		out = append(out, q)
	}
}
