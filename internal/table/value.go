package table

import (
	"fmt"
	"strings"
)

// Value is a dynamically typed cell value. It is a small variant record
// rather than an interface so that slices of values do not allocate per
// element and comparisons stay branch-cheap.
type Value struct {
	Type ColType
	I    int64
	F    float64
	S    string
}

// Int returns an Int64-typed value.
func Int(v int64) Value { return Value{Type: Int64, I: v} }

// Float returns a Float64-typed value.
func Float(v float64) Value { return Value{Type: Float64, F: v} }

// Str returns a String-typed value.
func Str(v string) Value { return Value{Type: String, S: v} }

// Compare returns -1, 0, or +1 according to the order of v relative to o.
// Comparing values of different types panics: mixed-type comparisons
// indicate a schema mismatch upstream, which should fail loudly.
func (v Value) Compare(o Value) int {
	if v.Type != o.Type {
		panic(fmt.Sprintf("table: comparing %s with %s", v.Type, o.Type))
	}
	switch v.Type {
	case Int64:
		switch {
		case v.I < o.I:
			return -1
		case v.I > o.I:
			return 1
		}
		return 0
	case Float64:
		switch {
		case v.F < o.F:
			return -1
		case v.F > o.F:
			return 1
		}
		return 0
	case String:
		return strings.Compare(v.S, o.S)
	default:
		panic(fmt.Sprintf("table: compare on unknown type %v", v.Type))
	}
}

// Equal reports whether v and o are the same typed value.
func (v Value) Equal(o Value) bool { return v.Type == o.Type && v.Compare(o) == 0 }

// String renders the value for diagnostics.
func (v Value) String() string {
	switch v.Type {
	case Int64:
		return fmt.Sprintf("%d", v.I)
	case Float64:
		return fmt.Sprintf("%g", v.F)
	case String:
		return v.S
	default:
		return "<invalid>"
	}
}
