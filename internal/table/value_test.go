package table

import (
	"testing"
	"testing/quick"
)

func TestValueConstructors(t *testing.T) {
	if v := Int(42); v.Type != Int64 || v.I != 42 {
		t.Errorf("Int(42) = %+v", v)
	}
	if v := Float(2.5); v.Type != Float64 || v.F != 2.5 {
		t.Errorf("Float(2.5) = %+v", v)
	}
	if v := Str("x"); v.Type != String || v.S != "x" {
		t.Errorf("Str(x) = %+v", v)
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Float(1.5), Float(2.5), -1},
		{Float(2.5), Float(2.5), 0},
		{Float(3.5), Float(2.5), 1},
		{Str("a"), Str("b"), -1},
		{Str("b"), Str("b"), 0},
		{Str("c"), Str("b"), 1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestValueCompareMixedTypesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mixed-type compare did not panic")
		}
	}()
	Int(1).Compare(Str("1"))
}

func TestValueLessEqual(t *testing.T) {
	if !Str("a").Equal(Str("a")) || Str("a").Equal(Str("b")) {
		t.Error("Equal on strings wrong")
	}
	if Int(1).Equal(Float(1)) {
		t.Error("Equal across types should be false")
	}
}

func TestValueString(t *testing.T) {
	if got := Int(7).String(); got != "7" {
		t.Errorf("Int(7).String() = %q", got)
	}
	if got := Float(1.5).String(); got != "1.5" {
		t.Errorf("Float(1.5).String() = %q", got)
	}
	if got := Str("hi").String(); got != "hi" {
		t.Errorf("Str(hi).String() = %q", got)
	}
}

// Property: Compare is antisymmetric and reflexive for int64 values.
func TestValueCompareProperties(t *testing.T) {
	anti := func(a, b int64) bool {
		return Int(a).Compare(Int(b)) == -Int(b).Compare(Int(a))
	}
	if err := quick.Check(anti, nil); err != nil {
		t.Errorf("antisymmetry: %v", err)
	}
	refl := func(a int64) bool { return Int(a).Compare(Int(a)) == 0 }
	if err := quick.Check(refl, nil); err != nil {
		t.Errorf("reflexivity: %v", err)
	}
	transStr := func(a, b, c string) bool {
		x, y, z := Str(a), Str(b), Str(c)
		// sort three values pairwise-consistently: if x<=y and y<=z then x<=z
		if x.Compare(y) <= 0 && y.Compare(z) <= 0 {
			return x.Compare(z) <= 0
		}
		return true
	}
	if err := quick.Check(transStr, nil); err != nil {
		t.Errorf("transitivity: %v", err)
	}
}
