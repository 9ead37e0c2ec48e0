package serve

import (
	"strconv"

	"oreo/internal/wire"
)

// The purpose-built codec of the query wire: requests are decoded and
// answers encoded here, without reflection, for the shapes every /v1
// and /v2 query carries — QueryRequest (with PredicateJSON and
// AggregateJSON) and BatchRequest coming in, TableResult (with
// ExecutionJSON and AggregateResultJSON), QueryResponse, BatchItem and
// BatchResponse going out.
//
// The struct tags in types.go stay the definition of the wire; this
// file is held to them from outside. Encoding writes the bytes
// json.Marshal writes (TestAppendMatchesMarshal, the /v1 goldens).
// Decoding accepts only the canonical spelling and declines the rest to
// the handler's encoding/json call, so accepted inputs, decoded values
// and error messages are encoding/json's (FuzzQueryRequestCodec,
// TestDeclinedBodiesAnswerAsGeneral); oreo_wire_fallback_total counts
// what was declined.

// decodeQueryRequest decodes a canonical request body into req and
// reports whether it did; on false req is untouched and the caller
// decodes the same bytes with encoding/json.
func decodeQueryRequest(body []byte, req *QueryRequest) bool {
	s := wire.Scan(body)
	var out QueryRequest
	scanQueryRequest(&s, &out)
	if !s.Done() {
		return false
	}
	*req = out
	return true
}

// decodeBatchRequest is decodeQueryRequest for a batch body.
func decodeBatchRequest(body []byte, req *BatchRequest) bool {
	s := wire.Scan(body)
	var out BatchRequest
	s.Begin('{')
	for n := 0; s.Elem('}', n); n++ {
		if string(s.Key()) != "queries" || out.Queries != nil {
			s.Decline()
			break
		}
		out.Queries = []QueryRequest{}
		s.Begin('[')
		for n := 0; s.Elem(']', n); n++ {
			out.Queries = append(out.Queries, QueryRequest{})
			scanQueryRequest(&s, &out.Queries[n])
		}
	}
	if !s.Done() {
		return false
	}
	*req = out
	return true
}

func scanQueryRequest(s *wire.Scanner, req *QueryRequest) {
	var seen uint
	s.Begin('{')
	for n := 0; s.Elem('}', n); n++ {
		switch string(s.Key()) {
		case "table":
			s.Once(&seen, 1<<0)
			req.Table = s.String()
		case "id":
			s.Once(&seen, 1<<1)
			req.ID = s.Int()
		case "preds":
			s.Once(&seen, 1<<2)
			req.Preds = make([]PredicateJSON, 0, 4)
			s.Begin('[')
			for n := 0; s.Elem(']', n); n++ {
				req.Preds = append(req.Preds, PredicateJSON{})
				scanPredicate(s, &req.Preds[n])
			}
		case "execute":
			s.Once(&seen, 1<<3)
			req.Execute = s.Bool()
		case "aggs":
			s.Once(&seen, 1<<4)
			req.Aggs = []AggregateJSON{}
			s.Begin('[')
			for n := 0; s.Elem(']', n); n++ {
				req.Aggs = append(req.Aggs, AggregateJSON{})
				scanAggregate(s, &req.Aggs[n])
			}
		default:
			s.Decline()
		}
	}
}

func scanPredicate(s *wire.Scanner, p *PredicateJSON) {
	var seen uint
	s.Begin('{')
	for n := 0; s.Elem('}', n); n++ {
		switch string(s.Key()) {
		case "col":
			s.Once(&seen, 1<<0)
			p.Col = s.String()
		case "has_lo":
			s.Once(&seen, 1<<1)
			p.HasLo = s.Bool()
		case "has_hi":
			s.Once(&seen, 1<<2)
			p.HasHi = s.Bool()
		case "lo_i":
			s.Once(&seen, 1<<3)
			p.LoI = s.Int64()
		case "hi_i":
			s.Once(&seen, 1<<4)
			p.HiI = s.Int64()
		case "lo_f":
			s.Once(&seen, 1<<5)
			p.LoF = s.Float64()
		case "hi_f":
			s.Once(&seen, 1<<6)
			p.HiF = s.Float64()
		case "in":
			s.Once(&seen, 1<<7)
			p.In = []string{}
			s.Begin('[')
			for n := 0; s.Elem(']', n); n++ {
				p.In = append(p.In, s.String())
			}
		default:
			s.Decline()
		}
	}
}

func scanAggregate(s *wire.Scanner, a *AggregateJSON) {
	var seen uint
	s.Begin('{')
	for n := 0; s.Elem('}', n); n++ {
		switch string(s.Key()) {
		case "op":
			s.Once(&seen, 1<<0)
			a.Op = s.String()
		case "col":
			s.Once(&seen, 1<<1)
			a.Col = s.String()
		default:
			s.Decline()
		}
	}
}

// appendQueryResponse appends the body of a successful unary answer,
// QueryResponse{Results: results}. The only error is a non-finite
// float, which JSON cannot spell.
func appendQueryResponse(dst []byte, results []TableResult) ([]byte, error) {
	dst = append(dst, `{"results":`...)
	dst, err := appendTableResults(dst, results)
	return append(dst, '}'), err
}

// appendBatchResponse appends a BatchResponse.
func appendBatchResponse(dst []byte, resp *BatchResponse) ([]byte, error) {
	dst = append(dst, `{"results":`...)
	if resp.Results == nil {
		return append(dst, "null}"...), nil
	}
	dst = append(dst, '[')
	for i := range resp.Results {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = appendBatchItem(dst, &resp.Results[i]); err != nil {
			return dst, err
		}
	}
	return append(dst, "]}"...), nil
}

// appendBatchItem appends one batch or stream answer.
func appendBatchItem(dst []byte, it *BatchItem) ([]byte, error) {
	dst = strconv.AppendInt(append(dst, `{"index":`...), int64(it.Index), 10)
	if it.ID != 0 {
		dst = strconv.AppendInt(append(dst, `,"id":`...), int64(it.ID), 10)
	}
	if len(it.Results) > 0 {
		var err error
		if dst, err = appendTableResults(append(dst, `,"results":`...), it.Results); err != nil {
			return dst, err
		}
	}
	if it.Error != "" {
		dst = wire.AppendString(append(dst, `,"error":`...), it.Error)
	}
	return append(dst, '}'), nil
}

func appendTableResults(dst []byte, results []TableResult) ([]byte, error) {
	if results == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	for i := range results {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = appendTableResult(dst, &results[i]); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}

func appendTableResult(dst []byte, r *TableResult) ([]byte, error) {
	dst = wire.AppendString(append(dst, `{"table":`...), r.Table)
	dst, err := wire.AppendFloat(append(dst, `,"cost":`...), r.Cost)
	if err != nil {
		return dst, err
	}
	dst = wire.AppendString(append(dst, `,"layout":`...), r.Layout)
	dst = strconv.AppendInt(append(dst, `,"num_partitions":`...), int64(r.NumPartitions), 10)
	dst = append(dst, `,"survivor_partitions":`...)
	if r.SurvivorPartitions == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, p := range r.SurvivorPartitions {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(p), 10)
		}
		dst = append(dst, ']')
	}
	if r.Reorganizing {
		dst = append(dst, `,"reorganizing":true`...)
	}
	if r.PendingLayout != "" {
		dst = wire.AppendString(append(dst, `,"pending_layout":`...), r.PendingLayout)
	}
	if r.DeltaRows != 0 {
		dst = strconv.AppendInt(append(dst, `,"delta_rows":`...), int64(r.DeltaRows), 10)
	}
	dst = wire.AppendBool(append(dst, `,"observed":`...), r.Observed)
	if r.QueryID != 0 {
		dst = strconv.AppendInt(append(dst, `,"query_id":`...), int64(r.QueryID), 10)
	}
	if r.Execution != nil {
		if dst, err = appendExecution(append(dst, `,"execution":`...), r.Execution); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

func appendExecution(dst []byte, e *ExecutionJSON) ([]byte, error) {
	dst = strconv.AppendInt(append(dst, `{"matched_rows":`...), int64(e.MatchedRows), 10)
	dst = strconv.AppendInt(append(dst, `,"partitions_read":`...), int64(e.PartitionsRead), 10)
	dst = strconv.AppendInt(append(dst, `,"partitions_total":`...), int64(e.PartitionsTotal), 10)
	dst = strconv.AppendInt(append(dst, `,"rows_examined":`...), int64(e.RowsExamined), 10)
	dst = strconv.AppendInt(append(dst, `,"rows_total":`...), int64(e.RowsTotal), 10)
	if e.DeltaRows != 0 {
		dst = strconv.AppendInt(append(dst, `,"delta_rows":`...), int64(e.DeltaRows), 10)
	}
	if len(e.Aggregates) > 0 {
		dst = append(dst, `,"aggregates":[`...)
		for i := range e.Aggregates {
			if i > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = appendAggregateResult(dst, &e.Aggregates[i]); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), nil
}

func appendAggregateResult(dst []byte, a *AggregateResultJSON) ([]byte, error) {
	dst = wire.AppendString(append(dst, `{"op":`...), a.Op)
	if a.Col != "" {
		dst = wire.AppendString(append(dst, `,"col":`...), a.Col)
	}
	dst = wire.AppendString(append(dst, `,"type":`...), a.Type)
	dst = wire.AppendBool(append(dst, `,"valid":`...), a.Valid)
	dst = strconv.AppendInt(append(dst, `,"value_i":`...), a.ValueI, 10)
	dst, err := wire.AppendFloat(append(dst, `,"value_f":`...), a.ValueF)
	if err != nil {
		return dst, err
	}
	dst = wire.AppendString(append(dst, `,"value_s":`...), a.ValueS)
	return append(dst, '}'), nil
}
