package table

import (
	"math/rand"
	"testing"
)

func testSchema() *Schema {
	return NewSchema(
		Column{Name: "id", Type: Int64},
		Column{Name: "score", Type: Float64},
		Column{Name: "tag", Type: String},
	)
}

func buildTestDataset(t *testing.T, n int) *Dataset {
	t.Helper()
	b := NewBuilder(testSchema(), n)
	for i := 0; i < n; i++ {
		b.AppendRow(Int(int64(i)), Float(float64(i)/2), Str(string(rune('a'+i%5))))
	}
	return b.Build()
}

func TestBuilderAndAccessors(t *testing.T) {
	d := buildTestDataset(t, 10)
	if d.NumRows() != 10 {
		t.Fatalf("NumRows = %d, want 10", d.NumRows())
	}
	if got := d.Int64At(0, 3); got != 3 {
		t.Errorf("Int64At(0,3) = %d, want 3", got)
	}
	if got := d.Float64At(1, 4); got != 2 {
		t.Errorf("Float64At(1,4) = %g, want 2", got)
	}
	if got := d.StringAt(2, 6); got != "b" {
		t.Errorf("StringAt(2,6) = %q, want b", got)
	}
}

func TestValueAt(t *testing.T) {
	d := buildTestDataset(t, 5)
	if v := d.ValueAt(0, 2); !v.Equal(Int(2)) {
		t.Errorf("ValueAt(0,2) = %v", v)
	}
	if v := d.ValueAt(1, 2); !v.Equal(Float(1)) {
		t.Errorf("ValueAt(1,2) = %v", v)
	}
	if v := d.ValueAt(2, 2); !v.Equal(Str("c")) {
		t.Errorf("ValueAt(2,2) = %v", v)
	}
}

func TestColumnSlices(t *testing.T) {
	d := buildTestDataset(t, 4)
	if got := d.Int64Col(0); len(got) != 4 || got[3] != 3 {
		t.Errorf("Int64Col = %v", got)
	}
	if got := d.Float64Col(1); len(got) != 4 || got[2] != 1 {
		t.Errorf("Float64Col = %v", got)
	}
	codes, dict := d.StringCodes(2), d.Dict(2)
	if len(codes) != 4 || dict.Value(codes[1]) != "b" {
		t.Errorf("StringCodes = %v over %d values", codes, dict.Len())
	}
	if d.Dict(0) != nil || d.Dict(1) != nil {
		t.Error("numeric column has a dictionary")
	}
}

func TestAppendRowArityPanics(t *testing.T) {
	b := NewBuilder(testSchema(), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong arity did not panic")
		}
	}()
	b.AppendRow(Int(1), Float(2))
}

func TestAppendRowTypePanics(t *testing.T) {
	b := NewBuilder(testSchema(), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong type did not panic")
		}
	}()
	b.AppendRow(Str("oops"), Float(2), Str("x"))
}

func TestBuildTwicePanics(t *testing.T) {
	b := NewBuilder(testSchema(), 1)
	b.Build()
	defer func() {
		if recover() == nil {
			t.Fatal("second Build did not panic")
		}
	}()
	b.Build()
}

func TestLargeRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 1000
	b := NewBuilder(testSchema(), n)
	ints := make([]int64, n)
	floats := make([]float64, n)
	strs := make([]string, n)
	for i := 0; i < n; i++ {
		ints[i] = rng.Int63()
		floats[i] = rng.NormFloat64()
		strs[i] = string(rune('A' + rng.Intn(26)))
		b.AppendRow(Int(ints[i]), Float(floats[i]), Str(strs[i]))
	}
	d := b.Build()
	for i := 0; i < n; i++ {
		if d.Int64At(0, i) != ints[i] || d.Float64At(1, i) != floats[i] || d.StringAt(2, i) != strs[i] {
			t.Fatalf("row %d does not round-trip", i)
		}
	}
}

func TestAppendRowsBulkCopy(t *testing.T) {
	d := buildTestDataset(t, 10)
	b := NewBuilder(d.Schema(), 4)
	b.AppendRow(Int(100), Float(50), Str("z"))
	b.AppendRows(d, []int{7, 2, 2, 9})
	out := b.Build()
	if out.NumRows() != 5 {
		t.Fatalf("NumRows = %d, want 5", out.NumRows())
	}
	// Bulk-copied cells match the source rows, in index order, mixed
	// freely with AppendRow rows.
	wantIDs := []int64{100, 7, 2, 2, 9}
	for r, want := range wantIDs {
		if got := out.Int64At(0, r); got != want {
			t.Errorf("row %d id = %d, want %d", r, got, want)
		}
	}
	if out.Float64At(1, 1) != 3.5 {
		t.Errorf("copied float cell = %v, want 3.5", out.Float64At(1, 1))
	}
	// String column: each copied row matches its source row (b row r
	// came from d row wantIDs[r]).
	for r, src := range []int{7, 2, 2, 9} {
		if got, want := out.StringAt(2, r+1), d.StringAt(2, src); got != want {
			t.Errorf("string cell row %d = %q, want %q", r+1, got, want)
		}
	}

	// A dataset over a different (even identically shaped) schema must
	// be rejected: bulk copy trusts the schema pointer.
	other := NewBuilder(testSchema(), 1)
	other.AppendRow(Int(1), Float(1), Str("x"))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AppendRows across schemas did not panic")
			}
		}()
		b2 := NewBuilder(d.Schema(), 1)
		b2.AppendRows(other.Build(), []int{0})
	}()
}
