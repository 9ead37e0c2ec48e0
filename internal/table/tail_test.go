package table

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func deltaTestSchema() *Schema {
	return NewSchema(
		Column{Name: "ts", Type: Int64},
		Column{Name: "amount", Type: Float64},
		Column{Name: "status", Type: String},
	)
}

func deltaBatch(s *Schema, rng *rand.Rand, n int) *Dataset {
	b := NewBuilder(s, n)
	statuses := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for i := 0; i < n; i++ {
		f := rng.Float64() * 100
		if rng.Intn(20) == 0 {
			f = math.NaN()
		}
		b.AppendRow(Int(rng.Int63n(1000)), Float(f),
			Str(statuses[rng.Intn(len(statuses))]+fmt.Sprint(rng.Intn(16))))
	}
	return b.Build()
}

// TestDeltaViewImmutable pins the write tail's snapshot contract: a
// view taken before further appends keeps its row count and cells.
func TestDeltaViewImmutable(t *testing.T) {
	s := deltaTestSchema()
	rng := rand.New(rand.NewSource(11))
	d := NewBuilder(s, 0)
	d.AppendDataset(deltaBatch(s, rng, 40))

	v1 := d.View()
	if v2 := d.View(); v2 != v1 {
		t.Fatal("View() not cached across quiet calls")
	}
	wantRows := v1.NumRows()
	wantCell := v1.Int64At(0, 0)
	wantStr := v1.StringAt(2, 39)

	d.AppendDataset(deltaBatch(s, rng, 500)) // large enough to force reallocation
	if v1.NumRows() != wantRows || len(v1.Int64Col(0)) != wantRows {
		t.Fatalf("view rows changed after append: %d -> %d", wantRows, v1.NumRows())
	}
	if v1.Int64At(0, 0) != wantCell || v1.StringAt(2, 39) != wantStr {
		t.Fatal("view cell changed after append")
	}
	if v2 := d.View(); v2 == v1 || v2.NumRows() != 540 {
		t.Fatalf("fresh view wrong: same=%v rows=%d", v2 == v1, v2.NumRows())
	}
	// The builder stays open: Build after View hands over every row.
	if got := d.Build(); got.NumRows() != 540 || got.Int64At(0, 0) != wantCell {
		t.Fatalf("Build after View: %d rows", got.NumRows())
	}
}

// TestConcat checks row order and independence of the concatenated
// dataset.
func TestConcat(t *testing.T) {
	s := deltaTestSchema()
	rng := rand.New(rand.NewSource(5))
	base := deltaBatch(s, rng, 30)
	tail := deltaBatch(s, rng, 12)

	got := Concat(base, tail)
	if got.NumRows() != 42 {
		t.Fatalf("NumRows = %d, want 42", got.NumRows())
	}
	if got.Schema() != s {
		t.Fatal("Concat changed schema pointer")
	}
	for r := 0; r < base.NumRows(); r++ {
		if got.Int64At(0, r) != base.Int64At(0, r) ||
			math.Float64bits(got.Float64At(1, r)) != math.Float64bits(base.Float64At(1, r)) ||
			got.StringAt(2, r) != base.StringAt(2, r) {
			t.Fatalf("base row %d differs", r)
		}
	}
	for r := 0; r < tail.NumRows(); r++ {
		if got.Int64At(0, base.NumRows()+r) != tail.Int64At(0, r) {
			t.Fatalf("tail row %d differs", r)
		}
	}
}
