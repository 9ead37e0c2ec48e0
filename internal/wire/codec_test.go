package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// A shape is one value the codec carries whole: the encoder of the side
// that sends it and the decoder of the side that receives it.
type shape struct {
	typ    reflect.Type
	append func(dst []byte, v any) ([]byte, error)
	decode func(b []byte) (any, bool)
}

func shapeOf[T any](enc func([]byte, *T) ([]byte, error), dec func([]byte, *T) bool) shape {
	return shape{
		typ: reflect.TypeOf((*T)(nil)).Elem(),
		append: func(dst []byte, v any) ([]byte, error) {
			x := v.(T)
			return enc(dst, &x)
		},
		decode: func(b []byte) (any, bool) {
			var x T
			ok := dec(b, &x)
			return x, ok
		},
	}
}

// shapes are the codec's five whole values: requests the SDK encodes
// and the server decodes, answers the server encodes and the SDK
// decodes.
var shapes = []shape{
	shapeOf(AppendQueryRequest, DecodeQueryRequest),
	shapeOf(AppendBatchRequest, DecodeBatchRequest),
	shapeOf(AppendQueryResponse, DecodeQueryResponse),
	shapeOf(AppendBatchResponse, DecodeBatchResponse),
	shapeOf(AppendBatchItem, DecodeBatchItem),
}

// filler builds a value of any shape by reflection, numbering its
// scalar fields depth first (one element per slice, pointers followed).
// With leaf >= 0 only scalar number leaf is non-zero: every slice and
// pointer on the way to it holds one element, and everything else is
// the least value the canonical wire carries — a required slice empty
// (nil is written null, which the scanner declines), an omitempty one
// nil (an empty one is not written at all, and reads back nil). With
// leaf < 0 every field is drawn from rng, non-finite floats included.
type filler struct {
	rng  *rand.Rand
	leaf int
	n    int // scalars numbered so far
}

// under reports whether the leaf is among the scalars numbered since
// from.
func (f *filler) under(from int) bool { return from <= f.leaf && f.leaf < f.n }

func (f *filler) fill(v reflect.Value, omitempty bool) {
	from := f.n
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f.fill(v.Field(i), strings.HasSuffix(v.Type().Field(i).Tag.Get("json"), ",omitempty"))
		}
	case reflect.Pointer:
		e := reflect.New(v.Type().Elem())
		f.fill(e.Elem(), false)
		if f.under(from) || f.leaf < 0 && f.rng.Intn(2) == 0 {
			v.Set(e)
		}
	case reflect.Slice:
		n := 1
		if f.leaf < 0 {
			n = f.rng.Intn(4)
		}
		s := reflect.MakeSlice(v.Type(), n, n)
		for i := 0; i < n; i++ {
			f.fill(s.Index(i), false)
		}
		if f.leaf >= 0 && !f.under(from) {
			s = s.Slice(0, 0)
		}
		if s.Len() > 0 || !omitempty {
			v.Set(s)
		}
	default:
		if f.leaf < 0 || f.leaf == f.n {
			f.scalar(v, f.leaf >= 0)
		}
		f.n++
	}
}

// scalar sets v to a random value, non-zero when nonZero. Strings are
// canonical — printable ASCII that neither side escapes — so the value
// must come back through the purpose-built decoder, not around it.
func (f *filler) scalar(v reflect.Value, nonZero bool) {
	r := f.rng
	switch v.Kind() {
	case reflect.String:
		const alphabet = " !#$%'()*+,-./0123456789:;=?@ABCXYZ[]^_`abcxyz{|}~\x7f"
		n := r.Intn(9)
		if nonZero && n == 0 {
			n = 1
		}
		b := make([]byte, n)
		for i := range b {
			b[i] = alphabet[r.Intn(len(alphabet))]
		}
		v.SetString(string(b))
	case reflect.Bool:
		v.SetBool(nonZero || r.Intn(2) == 0)
	case reflect.Int, reflect.Int64:
		pool := []int64{0, 1, -1, 7, 4211, math.MaxInt64, math.MinInt64, r.Int63(), -r.Int63()}
		x := pool[r.Intn(len(pool))]
		if nonZero && x == 0 {
			x = 9131
		}
		v.SetInt(x)
	case reflect.Float64:
		pool := []float64{0, math.Copysign(0, -1), 0.21875, -24, 1e-6, 9.5e-7, 1e20, 1e21, -1e21,
			math.SmallestNonzeroFloat64, math.MaxFloat64, 0.1 + 0.2, r.NormFloat64()}
		if !nonZero && r.Intn(8) == 0 {
			pool = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Float64frombits(r.Uint64())}
		}
		x := pool[r.Intn(len(pool))]
		if nonZero && x == 0 {
			x = 0.0625
		}
		v.SetFloat(x)
	default:
		panic("filler: no rule for " + v.Type().String())
	}
}

// leaves counts the scalar fields of a shape, as filler numbers them.
func leaves(typ reflect.Type) int {
	f := filler{leaf: math.MaxInt}
	f.fill(reflect.New(typ).Elem(), false)
	return f.n
}

// checkRoundTrip builds one value of a shape, appends it with the
// sending side's encoder — which must write json.Marshal's bytes, or
// its error — and reads those bytes with the receiving side's decoder,
// which must take them and return the value it was given.
func checkRoundTrip(t *testing.T, sh shape, leaf int, seed int64) {
	t.Helper()
	v := reflect.New(sh.typ).Elem()
	f := filler{rng: rand.New(rand.NewSource(seed)), leaf: leaf}
	f.fill(v, false)
	in := v.Interface()

	want, wantErr := json.Marshal(in)
	got, err := sh.append([]byte("prefix"), in)
	if (err != nil) != (wantErr != nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("%s %+v: error %v, json.Marshal's %v", sh.typ.Name(), in, err, wantErr)
	}
	if err != nil {
		return
	}
	if got, ok := bytes.CutPrefix(got, []byte("prefix")); !ok || !bytes.Equal(got, want) {
		t.Fatalf("%s:\n got %s\nwant prefix%s", sh.typ.Name(), got, want)
	}
	out, ok := sh.decode(want)
	if !ok {
		t.Fatalf("%s: the decoder declined the encoder's own bytes %s", sh.typ.Name(), want)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("%s %s:\n got %#v\nwant %#v", sh.typ.Name(), want, out, in)
	}
}

// wireSeeds are, for every shape, each scalar field non-zero in turn,
// then a few all-random values (leaf -1).
func wireSeeds() (out [][3]int64) {
	for i, sh := range shapes {
		for leaf := -1; leaf < leaves(sh.typ); leaf++ {
			out = append(out, [3]int64{int64(i), int64(leaf), int64(leaf + 2)})
		}
	}
	return out
}

func FuzzWireRoundTrip(f *testing.F) {
	for _, s := range wireSeeds() {
		f.Add(uint8(s[0]), int16(s[1]), s[2])
	}
	f.Fuzz(func(t *testing.T, shape uint8, leaf int16, seed int64) {
		checkRoundTrip(t, shapes[int(shape)%len(shapes)], int(leaf), seed)
	})
}

// TestWireRoundTripSeeds runs the seed corpus as a plain test, then a
// thousand random values of every shape.
func TestWireRoundTripSeeds(t *testing.T) {
	for _, s := range wireSeeds() {
		checkRoundTrip(t, shapes[s[0]], int(s[1]), s[2])
	}
	for _, sh := range shapes {
		for seed := int64(0); seed < 1000; seed++ {
			checkRoundTrip(t, sh, -1, seed)
		}
	}
}

// A table is one shape's field table as the tests see it: its keys and
// omitempty marks, and its decoder.
type table struct {
	typ   reflect.Type
	keys  []string
	omits []bool
	// decode decodes b into a value that holds a sentinel beforehand,
	// and reports whether it took b and whether a declined b left the
	// sentinel whole.
	decode func(b []byte) (ok, untouched bool)
}

// tableOf wraps one shape's table; dec is the shape's exported decoder,
// or nil for a nested shape, which has only the table's own decode.
func tableOf[T any](fs fields[T], dec func([]byte, *T) bool) table {
	if dec == nil {
		dec = fs.decode
	}
	t := table{typ: reflect.TypeOf((*T)(nil)).Elem()}
	for _, f := range fs {
		t.keys = append(t.keys, f.key)
		t.omits = append(t.omits, f.omit != nil)
	}
	t.decode = func(b []byte) (bool, bool) {
		var out, sentinel T
		full(reflect.ValueOf(&out).Elem(), 8)
		full(reflect.ValueOf(&sentinel).Elem(), 8)
		ok := dec(b, &out)
		return ok, ok || reflect.DeepEqual(out, sentinel)
	}
	return t
}

// tables are the codec's ten shapes: the five whole values and the five
// objects nested in them.
var tables = []table{
	tableOf(queryRequestFields, DecodeQueryRequest),
	tableOf(batchRequestFields, DecodeBatchRequest),
	tableOf(queryResponseFields, DecodeQueryResponse),
	tableOf(batchResponseFields, DecodeBatchResponse),
	tableOf(batchItemFields, DecodeBatchItem),
	tableOf(predicateFields, nil),
	tableOf(aggregateFields, nil),
	tableOf(tableResultFields, nil),
	tableOf(executionFields, nil),
	tableOf(aggregateResultFields, nil),
}

// full sets every field of v from n > 0: scalars non-zero and finite,
// one element in every slice, pointers followed. Marshalled, it writes
// every key.
func full(v reflect.Value, n int) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			full(v.Field(i), n)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		full(v.Elem(), n)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		full(v.Index(0), n)
	case reflect.String:
		v.SetString(fmt.Sprint("s", n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(n))
	case reflect.Float64:
		v.SetFloat(float64(n) / 4)
	default:
		panic("full: no rule for " + v.Type().String())
	}
}

// TestFieldTablesMatchTags holds every field table to its struct: the
// exported fields' json keys in struct order, omitempty exactly where
// the tag has it. It then takes the shape's canonical body with every
// key written, and checks that the decoder takes it, and declines it —
// leaving its out value untouched — with any one key repeated or with a
// key the table does not list.
func TestFieldTablesMatchTags(t *testing.T) {
	for _, tb := range tables {
		var keys []string
		var omits []bool
		for i := 0; i < tb.typ.NumField(); i++ {
			sf := tb.typ.Field(i)
			if !sf.IsExported() {
				continue
			}
			name, opts, _ := strings.Cut(sf.Tag.Get("json"), ",")
			keys = append(keys, name)
			omits = append(omits, opts == "omitempty")
		}
		if !slices.Equal(tb.keys, keys) || !slices.Equal(tb.omits, omits) {
			t.Errorf("%s: table keys %q omitempty %v; struct tags %q omitempty %v", tb.typ.Name(), tb.keys, tb.omits, keys, omits)
			continue
		}

		v := reflect.New(tb.typ)
		full(v.Elem(), 7)
		body, err := json.Marshal(v.Interface())
		if err != nil {
			t.Fatal(err)
		}
		if ok, _ := tb.decode(body); !ok {
			t.Errorf("%s: declined its canonical body %s", tb.typ.Name(), body)
			continue
		}
		var raw map[string]json.RawMessage
		if err := json.Unmarshal(body, &raw); err != nil {
			t.Fatal(err)
		}
		open := body[:len(body)-1]
		for _, k := range keys {
			repeated := fmt.Appendf(bytes.Clone(open), `,%q:%s}`, k, raw[k])
			if ok, untouched := tb.decode(repeated); ok || !untouched {
				t.Errorf("%s: %s decoded %v, out untouched %v; want declined and untouched", tb.typ.Name(), repeated, ok, untouched)
			}
		}
		unknown := append(bytes.Clone(open), `,"unknown":1}`...)
		if ok, untouched := tb.decode(unknown); ok || !untouched {
			t.Errorf("%s: %s decoded %v, out untouched %v; want declined and untouched", tb.typ.Name(), unknown, ok, untouched)
		}
	}
}

// TestEncodeAllocations pins the encoders the server answers with, and
// the SDK's request encoder, at zero allocations into a warmed buffer.
func TestEncodeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	survivors := make([]int, 28)
	for i := range survivors {
		survivors[i] = 3 * i
	}
	results := []TableResult{{Table: "lineitem", Cost: 0.21875, Layout: "sort(l_shipdate)", NumPartitions: 128,
		SurvivorPartitions: survivors, Reorganizing: true, PendingLayout: "zorder(l_shipdate)", DeltaRows: 64, Observed: true, QueryID: 4211,
		Execution: &ExecutionJSON{MatchedRows: 90, PartitionsRead: 28, PartitionsTotal: 128, RowsExamined: 2000, RowsTotal: 9000, DeltaRows: 64,
			Aggregates: []AggregateResultJSON{{Op: "count", Type: "int64", Valid: true, ValueI: 90}, {Op: "sum", Col: "l_discount", Type: "float64", Valid: true, ValueF: 4.5}}}}}
	answer := QueryResponse{Results: results}
	item := BatchItem{Index: 3, ID: 4211, Results: results, Error: "none"}
	request := QueryRequest{Table: "lineitem", ID: 4211, Execute: true,
		Preds: []PredicateJSON{{Col: "l_shipdate", HasLo: true, HasHi: true, LoI: 9131, HiI: 9496}, {Col: "l_discount", HasLo: true, HasHi: true, LoF: 0.05, HiF: 0.07},
			{Col: "l_returnflag", In: []string{"A", "R"}}},
		Aggs: []AggregateJSON{{Op: "count"}, {Op: "sum", Col: "l_discount"}}}

	buf := make([]byte, 0, 4096)
	for name, enc := range map[string]func([]byte) ([]byte, error){
		"AppendQueryResponse": func(dst []byte) ([]byte, error) { return AppendQueryResponse(dst, &answer) },
		"AppendBatchItem":     func(dst []byte) ([]byte, error) { return AppendBatchItem(dst, &item) },
		"AppendQueryRequest":  func(dst []byte) ([]byte, error) { return AppendQueryRequest(dst, &request) },
	} {
		allocs := testing.AllocsPerRun(100, func() {
			var err error
			if buf, err = enc(buf[:0]); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s allocates %.0f times into a warmed buffer, want 0", name, allocs)
		}
	}
}
