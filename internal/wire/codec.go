package wire

import "strconv"

// The purpose-built codec of the query wire: each shape every /v1 and
// /v2 query carries is declared once, as a field table below, and one
// generic appendObject/scanObject pair frames every table, without
// reflection. internal/serve decodes requests and encodes answers with
// it; the client SDK encodes requests and decodes answers.
//
// The struct tags in types.go stay the definition of the wire; the
// tables are held to them from outside. TestFieldTablesMatchTags checks
// each table against its struct's tags, key for key and omitempty for
// omitempty. Appending writes the bytes json.Marshal writes (the /v1
// goldens, TestAppendMatchesMarshal in both users, FuzzWireRoundTrip
// here). Decoding accepts only the canonical spelling an encoder here
// produces and declines the rest — an escape, a null, a key its table
// does not list or the body repeats — to the encoding/json call it
// stands in front of, so accepted inputs, decoded values and error
// messages are encoding/json's (FuzzQueryRequestCodec in internal/serve,
// FuzzTableResultCodec in client). FuzzWireRoundTrip feeds every field
// of every shape through one side and back through the other, so a
// field whose entry is wrong fails it.
//
// The tables are composite literals of closures that capture nothing,
// so the compiler lays them out as static data and a binary that never
// calls the codec links none of it.

// Every Decode function decodes a canonical body into its out value and
// reports whether it did; on false out is untouched and the caller
// decodes the same bytes with encoding/json. Every Append function's
// only error is a non-finite float, which JSON cannot spell — the error
// json.Marshal returns.

// AppendQueryRequest appends q as json.Marshal encodes it.
func AppendQueryRequest(dst []byte, q *QueryRequest) ([]byte, error) {
	return queryRequestFields.appendObject(dst, q)
}

// DecodeQueryRequest decodes a canonical QueryRequest body.
func DecodeQueryRequest(body []byte, out *QueryRequest) bool {
	return queryRequestFields.decode(body, out)
}

// AppendBatchRequest appends req as json.Marshal encodes it.
func AppendBatchRequest(dst []byte, req *BatchRequest) ([]byte, error) {
	return batchRequestFields.appendObject(dst, req)
}

// DecodeBatchRequest decodes a canonical BatchRequest body.
func DecodeBatchRequest(body []byte, out *BatchRequest) bool {
	return batchRequestFields.decode(body, out)
}

// AppendQueryResponse appends resp as json.Marshal encodes it.
func AppendQueryResponse(dst []byte, resp *QueryResponse) ([]byte, error) {
	return queryResponseFields.appendObject(dst, resp)
}

// DecodeQueryResponse decodes a canonical QueryResponse body.
func DecodeQueryResponse(body []byte, out *QueryResponse) bool {
	return queryResponseFields.decode(body, out)
}

// AppendBatchResponse appends resp as json.Marshal encodes it.
func AppendBatchResponse(dst []byte, resp *BatchResponse) ([]byte, error) {
	return batchResponseFields.appendObject(dst, resp)
}

// DecodeBatchResponse decodes a canonical BatchResponse body.
func DecodeBatchResponse(body []byte, out *BatchResponse) bool {
	return batchResponseFields.decode(body, out)
}

// AppendBatchItem appends one batch or stream answer as json.Marshal
// encodes it.
func AppendBatchItem(dst []byte, it *BatchItem) ([]byte, error) {
	return batchItemFields.appendObject(dst, it)
}

// DecodeBatchItem decodes one canonical stream answer line.
func DecodeBatchItem(line []byte, out *BatchItem) bool {
	return batchItemFields.decode(line, out)
}

// A field is one entry of a shape's table: its JSON key, json.Marshal's
// omitempty test (nil when the field is always written), and how its
// value is appended and scanned.
type field[T any] struct {
	key  string
	omit func(*T) bool
	put  func(dst []byte, v *T) ([]byte, error)
	get  func(s *Scanner, v *T)
}

// fields is a shape's field table, in its struct's field order — the
// order json.Marshal writes.
type fields[T any] []field[T]

var queryRequestFields = fields[QueryRequest]{
	{"table", func(q *QueryRequest) bool { return q.Table == "" },
		func(dst []byte, q *QueryRequest) ([]byte, error) { return AppendString(dst, q.Table), nil },
		func(s *Scanner, q *QueryRequest) { q.Table = s.String() }},
	{"id", func(q *QueryRequest) bool { return q.ID == 0 },
		func(dst []byte, q *QueryRequest) ([]byte, error) { return strconv.AppendInt(dst, int64(q.ID), 10), nil },
		func(s *Scanner, q *QueryRequest) { q.ID = s.Int() }},
	{"preds", nil,
		func(dst []byte, q *QueryRequest) ([]byte, error) {
			return appendArray(dst, q.Preds, predicateFields.appendObject)
		},
		func(s *Scanner, q *QueryRequest) { q.Preds = scanArray(s, 4, predicateFields.scanObject) }},
	{"execute", func(q *QueryRequest) bool { return !q.Execute },
		func(dst []byte, q *QueryRequest) ([]byte, error) { return AppendBool(dst, q.Execute), nil },
		func(s *Scanner, q *QueryRequest) { q.Execute = s.Bool() }},
	{"aggs", func(q *QueryRequest) bool { return len(q.Aggs) == 0 },
		func(dst []byte, q *QueryRequest) ([]byte, error) {
			return appendArray(dst, q.Aggs, aggregateFields.appendObject)
		},
		func(s *Scanner, q *QueryRequest) { q.Aggs = scanArray(s, 0, aggregateFields.scanObject) }},
}

var predicateFields = fields[PredicateJSON]{
	{"col", nil,
		func(dst []byte, p *PredicateJSON) ([]byte, error) { return AppendString(dst, p.Col), nil },
		func(s *Scanner, p *PredicateJSON) { p.Col = s.String() }},
	{"has_lo", func(p *PredicateJSON) bool { return !p.HasLo },
		func(dst []byte, p *PredicateJSON) ([]byte, error) { return AppendBool(dst, p.HasLo), nil },
		func(s *Scanner, p *PredicateJSON) { p.HasLo = s.Bool() }},
	{"has_hi", func(p *PredicateJSON) bool { return !p.HasHi },
		func(dst []byte, p *PredicateJSON) ([]byte, error) { return AppendBool(dst, p.HasHi), nil },
		func(s *Scanner, p *PredicateJSON) { p.HasHi = s.Bool() }},
	{"lo_i", func(p *PredicateJSON) bool { return p.LoI == 0 },
		func(dst []byte, p *PredicateJSON) ([]byte, error) { return strconv.AppendInt(dst, p.LoI, 10), nil },
		func(s *Scanner, p *PredicateJSON) { p.LoI = s.Int64() }},
	{"hi_i", func(p *PredicateJSON) bool { return p.HiI == 0 },
		func(dst []byte, p *PredicateJSON) ([]byte, error) { return strconv.AppendInt(dst, p.HiI, 10), nil },
		func(s *Scanner, p *PredicateJSON) { p.HiI = s.Int64() }},
	//oreovet:ignore floatbits omitempty's own test: encoding/json drops a float field when it == 0, -0 included
	{"lo_f", func(p *PredicateJSON) bool { return p.LoF == 0 },
		func(dst []byte, p *PredicateJSON) ([]byte, error) { return AppendFloat(dst, p.LoF) },
		func(s *Scanner, p *PredicateJSON) { p.LoF = s.Float64() }},
	//oreovet:ignore floatbits omitempty's own test, as for lo_f
	{"hi_f", func(p *PredicateJSON) bool { return p.HiF == 0 },
		func(dst []byte, p *PredicateJSON) ([]byte, error) { return AppendFloat(dst, p.HiF) },
		func(s *Scanner, p *PredicateJSON) { p.HiF = s.Float64() }},
	{"in", func(p *PredicateJSON) bool { return len(p.In) == 0 },
		func(dst []byte, p *PredicateJSON) ([]byte, error) {
			return appendArray(dst, p.In, func(dst []byte, v *string) ([]byte, error) { return AppendString(dst, *v), nil })
		},
		func(s *Scanner, p *PredicateJSON) {
			p.In = scanArray(s, 0, func(s *Scanner, v *string) { *v = s.String() })
		}},
}

var aggregateFields = fields[AggregateJSON]{
	{"op", nil,
		func(dst []byte, a *AggregateJSON) ([]byte, error) { return AppendString(dst, a.Op), nil },
		func(s *Scanner, a *AggregateJSON) { a.Op = s.String() }},
	{"col", func(a *AggregateJSON) bool { return a.Col == "" },
		func(dst []byte, a *AggregateJSON) ([]byte, error) { return AppendString(dst, a.Col), nil },
		func(s *Scanner, a *AggregateJSON) { a.Col = s.String() }},
}

var batchRequestFields = fields[BatchRequest]{
	{"queries", nil,
		func(dst []byte, b *BatchRequest) ([]byte, error) {
			return appendArray(dst, b.Queries, queryRequestFields.appendObject)
		},
		func(s *Scanner, b *BatchRequest) { b.Queries = scanArray(s, 0, queryRequestFields.scanObject) }},
}

var queryResponseFields = fields[QueryResponse]{
	{"results", nil,
		func(dst []byte, r *QueryResponse) ([]byte, error) {
			return appendArray(dst, r.Results, tableResultFields.appendObject)
		},
		func(s *Scanner, r *QueryResponse) { r.Results = scanArray(s, 0, tableResultFields.scanObject) }},
}

var batchResponseFields = fields[BatchResponse]{
	{"results", nil,
		func(dst []byte, r *BatchResponse) ([]byte, error) {
			return appendArray(dst, r.Results, batchItemFields.appendObject)
		},
		func(s *Scanner, r *BatchResponse) { r.Results = scanArray(s, 0, batchItemFields.scanObject) }},
}

var batchItemFields = fields[BatchItem]{
	{"index", nil,
		func(dst []byte, it *BatchItem) ([]byte, error) {
			return strconv.AppendInt(dst, int64(it.Index), 10), nil
		},
		func(s *Scanner, it *BatchItem) { it.Index = s.Int() }},
	{"id", func(it *BatchItem) bool { return it.ID == 0 },
		func(dst []byte, it *BatchItem) ([]byte, error) { return strconv.AppendInt(dst, int64(it.ID), 10), nil },
		func(s *Scanner, it *BatchItem) { it.ID = s.Int() }},
	{"results", func(it *BatchItem) bool { return len(it.Results) == 0 },
		func(dst []byte, it *BatchItem) ([]byte, error) {
			return appendArray(dst, it.Results, tableResultFields.appendObject)
		},
		func(s *Scanner, it *BatchItem) { it.Results = scanArray(s, 0, tableResultFields.scanObject) }},
	{"error", func(it *BatchItem) bool { return it.Error == "" },
		func(dst []byte, it *BatchItem) ([]byte, error) { return AppendString(dst, it.Error), nil },
		func(s *Scanner, it *BatchItem) { it.Error = s.String() }},
}

var tableResultFields = fields[TableResult]{
	{"table", nil,
		func(dst []byte, r *TableResult) ([]byte, error) { return AppendString(dst, r.Table), nil },
		func(s *Scanner, r *TableResult) { r.Table = s.String() }},
	{"cost", nil,
		func(dst []byte, r *TableResult) ([]byte, error) { return AppendFloat(dst, r.Cost) },
		func(s *Scanner, r *TableResult) { r.Cost = s.Float64() }},
	{"layout", nil,
		func(dst []byte, r *TableResult) ([]byte, error) { return AppendString(dst, r.Layout), nil },
		func(s *Scanner, r *TableResult) { r.Layout = s.String() }},
	{"num_partitions", nil,
		func(dst []byte, r *TableResult) ([]byte, error) {
			return strconv.AppendInt(dst, int64(r.NumPartitions), 10), nil
		},
		func(s *Scanner, r *TableResult) { r.NumPartitions = s.Int() }},
	{"survivor_partitions", nil,
		func(dst []byte, r *TableResult) ([]byte, error) {
			return appendArray(dst, r.SurvivorPartitions, func(dst []byte, p *int) ([]byte, error) { return strconv.AppendInt(dst, int64(*p), 10), nil })
		},
		func(s *Scanner, r *TableResult) { r.SurvivorPartitions = s.Ints() }},
	{"reorganizing", func(r *TableResult) bool { return !r.Reorganizing },
		func(dst []byte, r *TableResult) ([]byte, error) { return AppendBool(dst, r.Reorganizing), nil },
		func(s *Scanner, r *TableResult) { r.Reorganizing = s.Bool() }},
	{"pending_layout", func(r *TableResult) bool { return r.PendingLayout == "" },
		func(dst []byte, r *TableResult) ([]byte, error) { return AppendString(dst, r.PendingLayout), nil },
		func(s *Scanner, r *TableResult) { r.PendingLayout = s.String() }},
	{"delta_rows", func(r *TableResult) bool { return r.DeltaRows == 0 },
		func(dst []byte, r *TableResult) ([]byte, error) {
			return strconv.AppendInt(dst, int64(r.DeltaRows), 10), nil
		},
		func(s *Scanner, r *TableResult) { r.DeltaRows = s.Int() }},
	{"observed", nil,
		func(dst []byte, r *TableResult) ([]byte, error) { return AppendBool(dst, r.Observed), nil },
		func(s *Scanner, r *TableResult) { r.Observed = s.Bool() }},
	{"query_id", func(r *TableResult) bool { return r.QueryID == 0 },
		func(dst []byte, r *TableResult) ([]byte, error) {
			return strconv.AppendInt(dst, int64(r.QueryID), 10), nil
		},
		func(s *Scanner, r *TableResult) { r.QueryID = s.Int() }},
	{"execution", func(r *TableResult) bool { return r.Execution == nil },
		func(dst []byte, r *TableResult) ([]byte, error) {
			return executionFields.appendObject(dst, r.Execution)
		},
		func(s *Scanner, r *TableResult) {
			r.Execution = new(ExecutionJSON)
			executionFields.scanObject(s, r.Execution)
		}},
}

var executionFields = fields[ExecutionJSON]{
	{"matched_rows", nil,
		func(dst []byte, e *ExecutionJSON) ([]byte, error) {
			return strconv.AppendInt(dst, int64(e.MatchedRows), 10), nil
		},
		func(s *Scanner, e *ExecutionJSON) { e.MatchedRows = s.Int() }},
	{"partitions_read", nil,
		func(dst []byte, e *ExecutionJSON) ([]byte, error) {
			return strconv.AppendInt(dst, int64(e.PartitionsRead), 10), nil
		},
		func(s *Scanner, e *ExecutionJSON) { e.PartitionsRead = s.Int() }},
	{"partitions_total", nil,
		func(dst []byte, e *ExecutionJSON) ([]byte, error) {
			return strconv.AppendInt(dst, int64(e.PartitionsTotal), 10), nil
		},
		func(s *Scanner, e *ExecutionJSON) { e.PartitionsTotal = s.Int() }},
	{"rows_examined", nil,
		func(dst []byte, e *ExecutionJSON) ([]byte, error) {
			return strconv.AppendInt(dst, int64(e.RowsExamined), 10), nil
		},
		func(s *Scanner, e *ExecutionJSON) { e.RowsExamined = s.Int() }},
	{"rows_total", nil,
		func(dst []byte, e *ExecutionJSON) ([]byte, error) {
			return strconv.AppendInt(dst, int64(e.RowsTotal), 10), nil
		},
		func(s *Scanner, e *ExecutionJSON) { e.RowsTotal = s.Int() }},
	{"delta_rows", func(e *ExecutionJSON) bool { return e.DeltaRows == 0 },
		func(dst []byte, e *ExecutionJSON) ([]byte, error) {
			return strconv.AppendInt(dst, int64(e.DeltaRows), 10), nil
		},
		func(s *Scanner, e *ExecutionJSON) { e.DeltaRows = s.Int() }},
	{"aggregates", func(e *ExecutionJSON) bool { return len(e.Aggregates) == 0 },
		func(dst []byte, e *ExecutionJSON) ([]byte, error) {
			return appendArray(dst, e.Aggregates, aggregateResultFields.appendObject)
		},
		func(s *Scanner, e *ExecutionJSON) { e.Aggregates = scanArray(s, 0, aggregateResultFields.scanObject) }},
}

var aggregateResultFields = fields[AggregateResultJSON]{
	{"op", nil,
		func(dst []byte, a *AggregateResultJSON) ([]byte, error) { return AppendString(dst, a.Op), nil },
		func(s *Scanner, a *AggregateResultJSON) { a.Op = s.String() }},
	{"col", func(a *AggregateResultJSON) bool { return a.Col == "" },
		func(dst []byte, a *AggregateResultJSON) ([]byte, error) { return AppendString(dst, a.Col), nil },
		func(s *Scanner, a *AggregateResultJSON) { a.Col = s.String() }},
	{"type", nil,
		func(dst []byte, a *AggregateResultJSON) ([]byte, error) { return AppendString(dst, a.Type), nil },
		func(s *Scanner, a *AggregateResultJSON) { a.Type = s.String() }},
	{"valid", nil,
		func(dst []byte, a *AggregateResultJSON) ([]byte, error) { return AppendBool(dst, a.Valid), nil },
		func(s *Scanner, a *AggregateResultJSON) { a.Valid = s.Bool() }},
	{"value_i", nil,
		func(dst []byte, a *AggregateResultJSON) ([]byte, error) {
			return strconv.AppendInt(dst, a.ValueI, 10), nil
		},
		func(s *Scanner, a *AggregateResultJSON) { a.ValueI = s.Int64() }},
	{"value_f", nil,
		func(dst []byte, a *AggregateResultJSON) ([]byte, error) { return AppendFloat(dst, a.ValueF) },
		func(s *Scanner, a *AggregateResultJSON) { a.ValueF = s.Float64() }},
	{"value_s", nil,
		func(dst []byte, a *AggregateResultJSON) ([]byte, error) { return AppendString(dst, a.ValueS), nil },
		func(s *Scanner, a *AggregateResultJSON) { a.ValueS = s.String() }},
}

// appendObject appends v as json.Marshal encodes a struct: every field
// of the table in order, less those its omitempty test leaves out.
func (fs fields[T]) appendObject(dst []byte, v *T) ([]byte, error) {
	dst = append(dst, '{')
	start := len(dst)
	for i := range fs {
		f := &fs[i]
		if f.omit != nil && f.omit(v) {
			continue
		}
		if len(dst) > start {
			dst = append(dst, ',')
		}
		dst = append(append(append(dst, '"'), f.key...), '"', ':')
		var err error
		if dst, err = f.put(dst, v); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

// scanObject reads an object into v. A key the table does not list
// declines, and so does one it has read already — encoding/json lets
// the last occurrence win, and merges into slices, which is not worth
// matching; a key's seen-bit is its index in the table.
func (fs fields[T]) scanObject(s *Scanner, v *T) {
	var seen uint64
	s.Begin('{')
	for n := 0; s.Elem('}', n); n++ {
		i := fs.find(s.Key())
		if i < 0 || seen&(1<<i) != 0 {
			s.Decline()
			return
		}
		seen |= 1 << i
		fs[i].get(s, v)
	}
}

// find returns the index of key in the table, or -1.
func (fs fields[T]) find(key []byte) int {
	for i := range fs {
		if fs[i].key == string(key) {
			return i
		}
	}
	return -1
}

// decode scans a whole body into out. It scans in place, so it keeps
// out's old value to put back when the body is not canonical.
func (fs fields[T]) decode(body []byte, out *T) bool {
	s := Scan(body)
	old := *out
	*out = *new(T)
	fs.scanObject(&s, out)
	if !s.Done() {
		*out = old
		return false
	}
	return true
}

// appendArray appends es as json.Marshal encodes a slice, each element
// by put: null when es is nil.
func appendArray[E any](dst []byte, es []E, put func([]byte, *E) ([]byte, error)) ([]byte, error) {
	if es == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	for i := range es {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = put(dst, &es[i]); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}

// scanArray reads an array into a slice of capacity size, each element
// by get. The result is never nil: encoding/json decodes [] to an empty
// slice.
func scanArray[E any](s *Scanner, size int, get func(*Scanner, *E)) []E {
	es := make([]E, 0, size)
	s.Begin('[')
	for n := 0; s.Elem(']', n); n++ {
		es = append(es, *new(E))
		get(s, &es[n])
	}
	return es
}
