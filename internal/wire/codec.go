package wire

import "strconv"

// The purpose-built codec of the query wire: each shape every /v1 and
// /v2 query carries is appended and scanned here, without reflection,
// its append and its scan side by side. internal/serve decodes requests
// and encodes answers with it; the client SDK encodes requests and
// decodes answers.
//
// The struct tags in types.go stay the definition of the wire; this
// file is held to them from outside. Appending writes the bytes
// json.Marshal writes (the /v1 goldens, TestAppendMatchesMarshal in
// both users, FuzzWireRoundTrip here). Decoding accepts only the
// canonical spelling an encoder here produces and declines the rest —
// an escape, a null, a key it does not know — to the encoding/json call
// it stands in front of, so accepted inputs, decoded values and error
// messages are encoding/json's (FuzzQueryRequestCodec in internal/serve,
// FuzzTableResultCodec in client). FuzzWireRoundTrip feeds every field
// of every shape through one side and back through the other, so a
// field without its line here fails it.

// Every Decode function decodes a canonical body into its out value and
// reports whether it did; on false out is untouched and the caller
// decodes the same bytes with encoding/json. Every Append function's
// only error is a non-finite float, which JSON cannot spell — the error
// json.Marshal returns.

// AppendQueryRequest appends q as json.Marshal encodes it.
func AppendQueryRequest(dst []byte, q *QueryRequest) ([]byte, error) {
	dst = append(dst, '{')
	if q.Table != "" {
		dst = append(AppendString(append(dst, `"table":`...), q.Table), ',')
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
		for i := range q.Aggs {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendAggregate(dst, &q.Aggs[i])
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), nil
}

// DecodeQueryRequest decodes a canonical QueryRequest body.
func DecodeQueryRequest(body []byte, out *QueryRequest) bool {
	s := Scan(body)
	var req QueryRequest
	scanQueryRequest(&s, &req)
	if !s.Done() {
		return false
	}
	*out = req
	return true
}

func scanQueryRequest(s *Scanner, req *QueryRequest) {
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

func appendPredicate(dst []byte, p *PredicateJSON) ([]byte, error) {
	dst = AppendString(append(dst, `{"col":`...), p.Col)
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
		if dst, err = AppendFloat(append(dst, `,"lo_f":`...), p.LoF); err != nil {
			return dst, err
		}
	}
	//oreovet:ignore floatbits omitempty's own test, as for lo_f
	if p.HiF != 0 {
		if dst, err = AppendFloat(append(dst, `,"hi_f":`...), p.HiF); err != nil {
			return dst, err
		}
	}
	if len(p.In) > 0 {
		dst = append(dst, `,"in":[`...)
		for i, v := range p.In {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = AppendString(dst, v)
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), nil
}

func scanPredicate(s *Scanner, p *PredicateJSON) {
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

func appendAggregate(dst []byte, a *AggregateJSON) []byte {
	dst = AppendString(append(dst, `{"op":`...), a.Op)
	if a.Col != "" {
		dst = AppendString(append(dst, `,"col":`...), a.Col)
	}
	return append(dst, '}')
}

func scanAggregate(s *Scanner, a *AggregateJSON) {
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

// AppendBatchRequest appends req as json.Marshal encodes it.
func AppendBatchRequest(dst []byte, req *BatchRequest) ([]byte, error) {
	dst = append(dst, `{"queries":`...)
	if req.Queries == nil {
		return append(dst, "null}"...), nil
	}
	dst = append(dst, '[')
	for i := range req.Queries {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = AppendQueryRequest(dst, &req.Queries[i]); err != nil {
			return dst, err
		}
	}
	return append(dst, "]}"...), nil
}

// DecodeBatchRequest decodes a canonical BatchRequest body.
func DecodeBatchRequest(body []byte, out *BatchRequest) bool {
	s := Scan(body)
	var req BatchRequest
	s.Begin('{')
	for n := 0; s.Elem('}', n); n++ {
		if string(s.Key()) != "queries" || req.Queries != nil {
			s.Decline()
			break
		}
		req.Queries = []QueryRequest{}
		s.Begin('[')
		for n := 0; s.Elem(']', n); n++ {
			req.Queries = append(req.Queries, QueryRequest{})
			scanQueryRequest(&s, &req.Queries[n])
		}
	}
	if !s.Done() {
		return false
	}
	*out = req
	return true
}

// AppendQueryResponse appends resp as json.Marshal encodes it.
func AppendQueryResponse(dst []byte, resp *QueryResponse) ([]byte, error) {
	dst = append(dst, `{"results":`...)
	dst, err := appendTableResults(dst, resp.Results)
	return append(dst, '}'), err
}

// DecodeQueryResponse decodes a canonical QueryResponse body.
func DecodeQueryResponse(body []byte, out *QueryResponse) bool {
	s := Scan(body)
	var resp QueryResponse
	s.Begin('{')
	for n := 0; s.Elem('}', n); n++ {
		if string(s.Key()) != "results" || resp.Results != nil {
			s.Decline()
			break
		}
		resp.Results = scanTableResults(&s)
	}
	if !s.Done() {
		return false
	}
	*out = resp
	return true
}

// AppendBatchResponse appends resp as json.Marshal encodes it.
func AppendBatchResponse(dst []byte, resp *BatchResponse) ([]byte, error) {
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
		if dst, err = AppendBatchItem(dst, &resp.Results[i]); err != nil {
			return dst, err
		}
	}
	return append(dst, "]}"...), nil
}

// DecodeBatchResponse decodes a canonical BatchResponse body.
func DecodeBatchResponse(body []byte, out *BatchResponse) bool {
	s := Scan(body)
	var resp BatchResponse
	s.Begin('{')
	for n := 0; s.Elem('}', n); n++ {
		if string(s.Key()) != "results" || resp.Results != nil {
			s.Decline()
			break
		}
		resp.Results = []BatchItem{}
		s.Begin('[')
		for n := 0; s.Elem(']', n); n++ {
			resp.Results = append(resp.Results, BatchItem{})
			scanBatchItem(&s, &resp.Results[n])
		}
	}
	if !s.Done() {
		return false
	}
	*out = resp
	return true
}

// AppendBatchItem appends one batch or stream answer as json.Marshal
// encodes it.
func AppendBatchItem(dst []byte, it *BatchItem) ([]byte, error) {
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
		dst = AppendString(append(dst, `,"error":`...), it.Error)
	}
	return append(dst, '}'), nil
}

// DecodeBatchItem decodes one canonical stream answer line.
func DecodeBatchItem(line []byte, out *BatchItem) bool {
	s := Scan(line)
	var item BatchItem
	scanBatchItem(&s, &item)
	if !s.Done() {
		return false
	}
	*out = item
	return true
}

func scanBatchItem(s *Scanner, it *BatchItem) {
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

// scanTableResults reads an array of results; never nil, as
// encoding/json decodes [].
func scanTableResults(s *Scanner) []TableResult {
	results := []TableResult{}
	s.Begin('[')
	for n := 0; s.Elem(']', n); n++ {
		results = append(results, TableResult{})
		scanTableResult(s, &results[n])
	}
	return results
}

func appendTableResult(dst []byte, r *TableResult) ([]byte, error) {
	dst = AppendString(append(dst, `{"table":`...), r.Table)
	dst, err := AppendFloat(append(dst, `,"cost":`...), r.Cost)
	if err != nil {
		return dst, err
	}
	dst = AppendString(append(dst, `,"layout":`...), r.Layout)
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
		dst = AppendString(append(dst, `,"pending_layout":`...), r.PendingLayout)
	}
	if r.DeltaRows != 0 {
		dst = strconv.AppendInt(append(dst, `,"delta_rows":`...), int64(r.DeltaRows), 10)
	}
	dst = AppendBool(append(dst, `,"observed":`...), r.Observed)
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

func scanTableResult(s *Scanner, r *TableResult) {
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
			r.Execution = new(ExecutionJSON)
			scanExecution(s, r.Execution)
		default:
			s.Decline()
		}
	}
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

func scanExecution(s *Scanner, e *ExecutionJSON) {
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
			e.Aggregates = []AggregateResultJSON{}
			s.Begin('[')
			for n := 0; s.Elem(']', n); n++ {
				e.Aggregates = append(e.Aggregates, AggregateResultJSON{})
				scanAggregateResult(s, &e.Aggregates[n])
			}
		default:
			s.Decline()
		}
	}
}

func appendAggregateResult(dst []byte, a *AggregateResultJSON) ([]byte, error) {
	dst = AppendString(append(dst, `{"op":`...), a.Op)
	if a.Col != "" {
		dst = AppendString(append(dst, `,"col":`...), a.Col)
	}
	dst = AppendString(append(dst, `,"type":`...), a.Type)
	dst = AppendBool(append(dst, `,"valid":`...), a.Valid)
	dst = strconv.AppendInt(append(dst, `,"value_i":`...), a.ValueI, 10)
	dst, err := AppendFloat(append(dst, `,"value_f":`...), a.ValueF)
	if err != nil {
		return dst, err
	}
	dst = AppendString(append(dst, `,"value_s":`...), a.ValueS)
	return append(dst, '}'), nil
}

func scanAggregateResult(s *Scanner, a *AggregateResultJSON) {
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
