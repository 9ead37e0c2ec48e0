package client

import (
	"strconv"

	"oreo/internal/wire"
)

// The purpose-built codec of the query wire, client side: Query (with
// Predicate and Aggregate) is encoded and TableResult (with Execution
// and AggregateResult) and BatchItem are decoded here, without
// reflection. The struct tags in types.go stay the definition of the
// wire: encoding writes the bytes json.Marshal writes, and decoding
// accepts only the canonical spelling a server's encoder produces,
// declining anything else — an escape, a null, a key it does not know
// — to the encoding/json call it stands in front of, so the answer a
// caller sees does not depend on which of the two decoded it
// (TestAppendMatchesMarshal, FuzzTableResultCodec).

// appendQuery appends q as json.Marshal encodes it. The only error is a
// non-finite float bound, which JSON cannot spell.
func appendQuery(dst []byte, q *Query) ([]byte, error) {
	dst = append(dst, '{')
	if q.Table != "" {
		dst = append(wire.AppendString(append(dst, `"table":`...), q.Table), ',')
	}
	if q.ID != 0 {
		dst = append(strconv.AppendInt(append(dst, `"id":`...), int64(q.ID), 10), ',')
	}
	dst = append(dst, `"preds":`...)
	if q.Preds == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range q.Preds {
			if i > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = appendPredicate(dst, &q.Preds[i]); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	}
	if q.Execute {
		dst = append(dst, `,"execute":true`...)
	}
	if len(q.Aggs) > 0 {
		dst = append(dst, `,"aggs":[`...)
		for i, a := range q.Aggs {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = wire.AppendString(append(dst, `{"op":`...), a.Op)
			if a.Col != "" {
				dst = wire.AppendString(append(dst, `,"col":`...), a.Col)
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), nil
}

func appendPredicate(dst []byte, p *Predicate) ([]byte, error) {
	dst = wire.AppendString(append(dst, `{"col":`...), p.Col)
	if p.HasLo {
		dst = append(dst, `,"has_lo":true`...)
	}
	if p.HasHi {
		dst = append(dst, `,"has_hi":true`...)
	}
	if p.LoI != 0 {
		dst = strconv.AppendInt(append(dst, `,"lo_i":`...), p.LoI, 10)
	}
	if p.HiI != 0 {
		dst = strconv.AppendInt(append(dst, `,"hi_i":`...), p.HiI, 10)
	}
	var err error
	//oreovet:ignore floatbits omitempty's own test: encoding/json drops a float field when it == 0, -0 included
	if p.LoF != 0 {
		if dst, err = wire.AppendFloat(append(dst, `,"lo_f":`...), p.LoF); err != nil {
			return dst, err
		}
	}
	//oreovet:ignore floatbits omitempty's own test, as for lo_f
	if p.HiF != 0 {
		if dst, err = wire.AppendFloat(append(dst, `,"hi_f":`...), p.HiF); err != nil {
			return dst, err
		}
	}
	if len(p.In) > 0 {
		dst = append(dst, `,"in":[`...)
		for i, v := range p.In {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = wire.AppendString(dst, v)
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), nil
}

// appendBatch appends the body of POST /v1/query/batch.
func appendBatch(dst []byte, queries []Query) ([]byte, error) {
	dst = append(dst, `{"queries":`...)
	if queries == nil {
		return append(dst, "null}"...), nil
	}
	dst = append(dst, '[')
	for i := range queries {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = appendQuery(dst, &queries[i]); err != nil {
			return dst, err
		}
	}
	return append(dst, "]}"...), nil
}

// decodeQueryAnswer decodes the canonical body of a unary answer,
// {"results":[TableResult...]}, into out and reports whether it did; on
// false out is untouched and the caller decodes the same bytes with
// encoding/json.
func decodeQueryAnswer(body []byte, out *[]TableResult) bool {
	s := wire.Scan(body)
	var results []TableResult
	s.Begin('{')
	for n := 0; s.Elem('}', n); n++ {
		if string(s.Key()) != "results" || results != nil {
			s.Decline()
			break
		}
		results = scanTableResults(&s)
	}
	if !s.Done() {
		return false
	}
	*out = results
	return true
}

// decodeBatchAnswer is decodeQueryAnswer for {"results":[BatchItem...]}.
func decodeBatchAnswer(body []byte, out *[]BatchItem) bool {
	s := wire.Scan(body)
	var items []BatchItem
	s.Begin('{')
	for n := 0; s.Elem('}', n); n++ {
		if string(s.Key()) != "results" || items != nil {
			s.Decline()
			break
		}
		items = []BatchItem{}
		s.Begin('[')
		for n := 0; s.Elem(']', n); n++ {
			items = append(items, BatchItem{})
			scanBatchItem(&s, &items[n])
		}
	}
	if !s.Done() {
		return false
	}
	*out = items
	return true
}

// decodeBatchItem is decodeQueryAnswer for one stream answer line.
func decodeBatchItem(line []byte, out *BatchItem) bool {
	s := wire.Scan(line)
	var item BatchItem
	scanBatchItem(&s, &item)
	if !s.Done() {
		return false
	}
	*out = item
	return true
}

func scanBatchItem(s *wire.Scanner, it *BatchItem) {
	var seen uint
	s.Begin('{')
	for n := 0; s.Elem('}', n); n++ {
		switch string(s.Key()) {
		case "index":
			s.Once(&seen, 1<<0)
			it.Index = s.Int()
		case "id":
			s.Once(&seen, 1<<1)
			it.ID = s.Int()
		case "results":
			s.Once(&seen, 1<<2)
			it.Results = scanTableResults(s)
		case "error":
			s.Once(&seen, 1<<3)
			it.Error = s.String()
		default:
			s.Decline()
		}
	}
}

// scanTableResults reads an array of results; never nil, as
// encoding/json decodes [].
func scanTableResults(s *wire.Scanner) []TableResult {
	results := []TableResult{}
	s.Begin('[')
	for n := 0; s.Elem(']', n); n++ {
		results = append(results, TableResult{})
		scanTableResult(s, &results[n])
	}
	return results
}

func scanTableResult(s *wire.Scanner, r *TableResult) {
	var seen uint
	s.Begin('{')
	for n := 0; s.Elem('}', n); n++ {
		switch string(s.Key()) {
		case "table":
			s.Once(&seen, 1<<0)
			r.Table = s.String()
		case "cost":
			s.Once(&seen, 1<<1)
			r.Cost = s.Float64()
		case "layout":
			s.Once(&seen, 1<<2)
			r.Layout = s.String()
		case "num_partitions":
			s.Once(&seen, 1<<3)
			r.NumPartitions = s.Int()
		case "survivor_partitions":
			s.Once(&seen, 1<<4)
			r.SurvivorPartitions = s.Ints()
		case "reorganizing":
			s.Once(&seen, 1<<5)
			r.Reorganizing = s.Bool()
		case "pending_layout":
			s.Once(&seen, 1<<6)
			r.PendingLayout = s.String()
		case "delta_rows":
			s.Once(&seen, 1<<7)
			r.DeltaRows = s.Int()
		case "observed":
			s.Once(&seen, 1<<8)
			r.Observed = s.Bool()
		case "query_id":
			s.Once(&seen, 1<<9)
			r.QueryID = s.Int()
		case "execution":
			s.Once(&seen, 1<<10)
			r.Execution = new(Execution)
			scanExecution(s, r.Execution)
		default:
			s.Decline()
		}
	}
}

func scanExecution(s *wire.Scanner, e *Execution) {
	var seen uint
	s.Begin('{')
	for n := 0; s.Elem('}', n); n++ {
		switch string(s.Key()) {
		case "matched_rows":
			s.Once(&seen, 1<<0)
			e.MatchedRows = s.Int()
		case "partitions_read":
			s.Once(&seen, 1<<1)
			e.PartitionsRead = s.Int()
		case "partitions_total":
			s.Once(&seen, 1<<2)
			e.PartitionsTotal = s.Int()
		case "rows_examined":
			s.Once(&seen, 1<<3)
			e.RowsExamined = s.Int()
		case "rows_total":
			s.Once(&seen, 1<<4)
			e.RowsTotal = s.Int()
		case "delta_rows":
			s.Once(&seen, 1<<5)
			e.DeltaRows = s.Int()
		case "aggregates":
			s.Once(&seen, 1<<6)
			e.Aggregates = []AggregateResult{}
			s.Begin('[')
			for n := 0; s.Elem(']', n); n++ {
				e.Aggregates = append(e.Aggregates, AggregateResult{})
				scanAggregateResult(s, &e.Aggregates[n])
			}
		default:
			s.Decline()
		}
	}
}

func scanAggregateResult(s *wire.Scanner, a *AggregateResult) {
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
		case "type":
			s.Once(&seen, 1<<2)
			a.Type = s.String()
		case "valid":
			s.Once(&seen, 1<<3)
			a.Valid = s.Bool()
		case "value_i":
			s.Once(&seen, 1<<4)
			a.ValueI = s.Int64()
		case "value_f":
			s.Once(&seen, 1<<5)
			a.ValueF = s.Float64()
		case "value_s":
			s.Once(&seen, 1<<6)
			a.ValueS = s.String()
		default:
			s.Decline()
		}
	}
}
