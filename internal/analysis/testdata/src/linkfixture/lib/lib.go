// Package lib holds the library half of the link-reachability
// fixture: one function of each shape whose linker symbol differs from
// its declaration, and one function nothing calls.
package lib

import "encoding/json"

// Decode is generic; its instantiation over a tagged struct prints with
// spaces inside the brackets.
func Decode[T any](b []byte) (T, error) {
	var v T
	err := json.Unmarshal(b, &v)
	return v, err
}

// Set is a generic type with a pointer and a value method.
type Set[T comparable] struct{ m map[T]bool }

func (s *Set[T]) Add(v T) {
	if s.m == nil {
		s.m = map[T]bool{}
	}
	s.m[v] = true
}

func (s Set[T]) Len() int { return len(s.m) }

// Named has a value method the binary reaches only through an
// interface holding a *Named.
type Named struct{ N string }

func (n Named) Name() string { return n.N }

func unused() int { return 42 }
