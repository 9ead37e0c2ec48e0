package serve

import (
	"fmt"
	"math"

	"oreo"
	"oreo/internal/exec"
	"oreo/internal/query"
	"oreo/internal/wire"
)

// The wire types are declared once, in internal/wire, with their
// codec; these are their names in this package.
type (
	PredicateJSON       = wire.PredicateJSON
	QueryRequest        = wire.QueryRequest
	AggregateJSON       = wire.AggregateJSON
	AggregateResultJSON = wire.AggregateResultJSON
	ExecutionJSON       = wire.ExecutionJSON
	BatchRequest        = wire.BatchRequest
	TableResult         = wire.TableResult
	QueryResponse       = wire.QueryResponse
	BatchItem           = wire.BatchItem
	BatchResponse       = wire.BatchResponse
	LayoutResponse      = wire.LayoutResponse
	StatsResponse       = wire.StatsResponse
	TraceEventJSON      = wire.TraceEventJSON
	TraceResponse       = wire.TraceResponse
	ErrorResponse       = wire.ErrorResponse
	HealthResponse      = wire.HealthResponse
	AppendRequest       = wire.AppendRequest
	AppendResponse      = wire.AppendResponse
	CompactResponse     = wire.CompactResponse
)

// decodeAggs validates and converts the wire aggregates. Column
// existence is checked later, against each answering table's schema.
func decodeAggs(aggs []AggregateJSON) ([]exec.AggSpec, error) {
	out := make([]exec.AggSpec, 0, len(aggs))
	for i, a := range aggs {
		op, err := exec.ParseAggOp(a.Op)
		if err != nil {
			return nil, fmt.Errorf("agg %d: %w", i, err)
		}
		if op != exec.AggCount && a.Col == "" {
			return nil, fmt.Errorf("agg %d: %s requires a column", i, op)
		}
		out = append(out, exec.AggSpec{Op: op, Col: a.Col})
	}
	return out, nil
}

// encodeAggs converts computed aggregates to their wire form. Non-
// finite float results are moved into value_s (encoding/json cannot
// represent them as numbers, and a failed encode after the status line
// would hand the client an empty 200).
func encodeAggs(vals []exec.AggValue) []AggregateResultJSON {
	if len(vals) == 0 {
		return nil
	}
	out := make([]AggregateResultJSON, len(vals))
	for i, v := range vals {
		a := AggregateResultJSON{
			Op: v.Op.String(), Col: v.Col, Type: v.Type.String(),
			Valid: v.Valid, ValueI: v.I, ValueF: v.F, ValueS: v.S,
		}
		if math.IsNaN(a.ValueF) || math.IsInf(a.ValueF, 0) {
			a.ValueS = fmt.Sprintf("%+g", a.ValueF)
			if math.IsNaN(a.ValueF) {
				a.ValueS = "NaN"
			}
			a.ValueF = 0
		}
		out[i] = a
	}
	return out
}

// decodeQuery converts a request into an oreo.Query, holding every
// predicate to the wire's shape rule. The schema check (does the column
// exist on the target table?) happens at routing time.
func decodeQuery(req QueryRequest) (oreo.Query, error) {
	if err := wire.CheckPreds(req.Preds); err != nil {
		return oreo.Query{}, err
	}
	return oreo.Query{ID: req.ID, Template: -1, Preds: query.FromWire(req.Preds)}, nil
}
