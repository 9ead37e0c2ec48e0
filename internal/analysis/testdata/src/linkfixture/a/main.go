// Command a links every library shape and its own shared.
package main

import (
	"fmt"

	"oreo/internal/analysis/testdata/src/linkfixture/lib"
)

func shared() string { return "a" }

func main() {
	v, err := lib.Decode[struct {
		Name string `json:"name"`
	}]([]byte(`{"name":"x"}`))
	var s lib.Set[int]
	s.Add(1)
	var n fmt.Stringer = stringer{&lib.Named{N: v.Name}}
	fmt.Println(err, s.Len(), n, shared())
}

type stringer struct{ named interface{ Name() string } }

func (s stringer) String() string { return s.named.Name() }
