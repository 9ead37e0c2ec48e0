// Package wire is the serving API's JSON wire, declared once: its types
// (types.go — the frozen /v1 shapes, pinned by testdata/wire.manifest,
// plus /healthz and the /v2 write bodies), the one predicate shape rule
// (PredicateJSON.Check), the query-log line (querylog.go), and the
// purpose-built codec of the hot query shapes (codec.go) over the JSON
// primitives in this file. internal/serve decodes requests and encodes
// answers with it, the client SDK does the reverse, and both name the
// types by alias; internal/persist's query log and a follower's
// forwarded observation carry the same PredicateJSON.
//
// The contract with encoding/json is one-sided on purpose. Appending
// produces exactly the bytes json.Marshal would. Scanning accepts only
// the canonical spelling of a value — plain ASCII strings without
// escapes, numbers in the JSON grammar that the target type holds, no
// null — and declines everything else, so that a caller can hand the
// same bytes to encoding/json and keep its results and its error
// messages: whatever the Scanner accepts decodes to the value
// encoding/json would have produced, and what it declines is not judged
// here at all. The differential fuzz targets in internal/serve and
// client hold both halves against encoding/json, and FuzzWireRoundTrip
// here holds them against each other: every field of every shape, sent
// by one side's encoder, comes back whole through the other's decoder.
//
// The package imports only the standard library (the client SDK's
// promise is transitive; the stdlibonly analyzer checks it).
package wire

import (
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strconv"
	"sync"
)

// A Scanner makes one forward pass over a JSON document. Declining is
// sticky: after the first byte outside the canonical shape every method
// returns a zero value and Done reports false, so the codec reads
// straight through and checks once at the end.
type Scanner struct {
	b   []byte
	i   int
	bad bool
}

// Scan returns a Scanner over b. The Scanner never writes to b and keeps
// no reference to it beyond its own lifetime: String copies.
func Scan(b []byte) Scanner { return Scanner{b: b} }

// Decline marks the document as outside the canonical shape. The codec's
// scanObject calls it for what only a field table can see: an unknown
// or repeated key.
func (s *Scanner) Decline() { s.bad = true }

// Done reports whether the document was canonical and is exhausted:
// nothing was declined and only white space follows the value read.
func (s *Scanner) Done() bool {
	s.space()
	return !s.bad && s.i == len(s.b)
}

func (s *Scanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\r', '\n':
			s.i++
		default:
			return
		}
	}
}

// byteIs consumes c after any white space, or declines.
func (s *Scanner) byteIs(c byte) {
	s.space()
	if s.bad || s.i >= len(s.b) || s.b[s.i] != c {
		s.bad = true
		return
	}
	s.i++
}

// Begin consumes the opening byte of an object ('{') or array ('[').
func (s *Scanner) Begin(open byte) { s.byteIs(open) }

// Elem advances to element n of the object or array opened by Begin and
// reports whether there is one; at the closing byte it consumes it and
// reports false. The codec's two loops, scanObject's and scanArray's,
// have the shape
//
//	for n := 0; s.Elem('}', n); n++ { key := s.Key(); /* the key's value */ }
//	for n := 0; s.Elem(']', n); n++ { /* element n */ }
func (s *Scanner) Elem(closer byte, n int) bool {
	s.space()
	if s.bad || s.i >= len(s.b) {
		s.bad = true
		return false
	}
	switch c := s.b[s.i]; {
	case c == closer:
		s.i++
		return false
	case n == 0:
		return true
	case c == ',':
		s.i++
		return true
	}
	s.bad = true
	return false
}

// Key reads an object key and its colon. The result aliases the
// document; switch on string(key), which does not allocate.
func (s *Scanner) Key() []byte {
	k := s.plain()
	s.byteIs(':')
	return k
}

// plain reads a string of printable ASCII with no escape and returns
// its contents, aliasing the document.
func (s *Scanner) plain() []byte {
	s.byteIs('"')
	if s.bad {
		return nil
	}
	start := s.i
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1]
		case c < 0x20 || c >= 0x80 || c == '\\':
			s.bad = true
			return nil
		}
	}
	s.bad = true
	return nil
}

// String reads a plain string value into a string of its own.
func (s *Scanner) String() string { return string(s.plain()) }

// Bool reads true or false.
func (s *Scanner) Bool() bool {
	s.space()
	switch {
	case s.bad:
	case s.literal("true"):
		return true
	case s.literal("false"):
	default:
		s.bad = true
	}
	return false
}

func (s *Scanner) literal(lit string) bool {
	if len(s.b)-s.i < len(lit) || string(s.b[s.i:s.i+len(lit)]) != lit {
		return false
	}
	s.i += len(lit)
	return true
}

// number returns the span of one number in the JSON grammar —
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? — and whether it has a
// fraction or exponent. strconv accepts more (hex, underscores, "Inf",
// a leading '+', "01"), so the grammar is settled here, before it runs.
func (s *Scanner) number() (span []byte, integral bool) {
	s.space()
	if s.bad {
		return nil, false
	}
	b, i := s.b, s.i
	digits := func() bool {
		from := i
		for i < len(b) && b[i]-'0' <= 9 {
			i++
		}
		return i > from
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case !digits():
		s.bad = true
		return nil, false
	}
	integral = true
	if i < len(b) && b[i] == '.' {
		i++
		integral = false
		if !digits() {
			s.bad = true
			return nil, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		integral = false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			s.bad = true
			return nil, false
		}
	}
	span = b[s.i:i]
	s.i = i
	return span, integral
}

// Int64 reads an integer. A fraction, an exponent or a value outside
// int64 declines: encoding/json refuses those for an integer field, and
// the refusal is its to word.
func (s *Scanner) Int64() int64 {
	span, integral := s.number()
	if s.bad || !integral {
		s.bad = true
		return 0
	}
	v, err := strconv.ParseInt(string(span), 10, 64)
	if err != nil {
		s.bad = true
		return 0
	}
	return v
}

// Int reads an integer that fits an int.
func (s *Scanner) Int() int {
	v := s.Int64()
	if int64(int(v)) != v {
		s.bad = true
		return 0
	}
	return int(v)
}

// Float64 reads a number as encoding/json does for a float64 field; one
// that overflows float64 declines.
func (s *Scanner) Float64() float64 {
	span, _ := s.number()
	if s.bad {
		return 0
	}
	v, err := strconv.ParseFloat(string(span), 64)
	if err != nil {
		s.bad = true
		return 0
	}
	return v
}

// Ints reads a flat array of integers. The result is never nil: like
// encoding/json, [] decodes to an empty slice.
func (s *Scanner) Ints() []int {
	s.Begin('[')
	if s.bad {
		return nil
	}
	// One allocation of the right size: in a flat array the commas
	// before the first ']' count the elements.
	size := 1
	for _, c := range s.b[s.i:] {
		if c == ']' {
			break
		}
		if c == ',' {
			size++
		}
	}
	out := make([]int, 0, size)
	for n := 0; s.Elem(']', n); n++ {
		out = append(out, s.Int())
	}
	return out
}

// AppendString appends s as a JSON string, byte for byte what
// json.Marshal writes. Strings of printable ASCII without a character
// json.Marshal escapes (quote, backslash, and '<' '>' '&' under its
// default HTML escaping) are copied; any other string is handed to
// json.Marshal itself.
func AppendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c >= 0x80, c == '"', c == '\\', c == '<', c == '>', c == '&':
			// A string cannot fail to marshal: invalid UTF-8 is replaced.
			quoted, _ := json.Marshal(s)
			return append(dst, quoted...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// AppendFloat appends f as encoding/json formats a float64: the
// shortest 'f' form, or 'e' with the exponent's leading zero dropped
// when f is below 1e-6 or at least 1e21 in magnitude. NaN and ±Inf have
// no JSON spelling and return the error json.Marshal returns.
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	//oreovet:ignore floatbits encoding/json's own rule for choosing the exponent form, copied so the bytes match
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9, as encoding/json cleans it up.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// AppendBool appends true or false.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, "true"...)
	}
	return append(dst, "false"...)
}

// maxPooled is the largest buffer PutBuffer keeps: room for a batch of
// a few thousand answers, small enough that one giant body does not pin
// its memory in the pool for the life of the process.
const maxPooled = 1 << 20

var buffers = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// GetBuffer returns an empty buffer from the pool. Append through the
// pointer (*bp = append(*bp, ...)) so that growth is kept when the
// buffer goes back.
func GetBuffer() *[]byte {
	bp := buffers.Get().(*[]byte)
	*bp = (*bp)[:0]
	return bp
}

// PutBuffer returns a buffer to the pool. Nothing may still reference
// its bytes: copy out what outlives the call (Scanner.String does).
func PutBuffer(bp *[]byte) {
	if cap(*bp) <= maxPooled {
		buffers.Put(bp)
	}
}

// ReadAll appends r to dst until EOF and returns the grown slice. size
// is the expected length (a Content-Length), or negative when unknown;
// it sizes the buffer once instead of by doubling, and is only a hint —
// a body that is longer or shorter is read all the same. On a read
// error the bytes read so far are returned with it.
func ReadAll(dst []byte, r io.Reader, size int64) ([]byte, error) {
	// One byte more than the body, so that the read that finds EOF
	// does not have to grow the buffer first.
	if want := int(min(size, maxPooled)) + 1; want > cap(dst)-len(dst) {
		grown := make([]byte, len(dst), len(dst)+want)
		copy(grown, dst)
		dst = grown
	}
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// Replay is the reader a caller hands to encoding/json after ReadAll:
// the bytes that were read, then the error that ended the read (io.EOF
// after a whole body). A json.Decoder over it sees the stream it would
// have seen over the original reader.
type Replay struct {
	Data []byte
	Err  error
}

func (r *Replay) Read(p []byte) (int, error) {
	if len(r.Data) == 0 {
		if r.Err != nil {
			return 0, r.Err
		}
		return 0, io.EOF
	}
	n := copy(p, r.Data)
	r.Data = r.Data[n:]
	return n, nil
}
