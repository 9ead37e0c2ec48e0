package table

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// strSchema is a one-string-column schema: the dictionary tests care
// about nothing else.
func strSchema() *Schema { return NewSchema(Column{Name: "s", Type: String}) }

func strDataset(s *Schema, vals ...string) *Dataset {
	b := NewBuilder(s, len(vals))
	for _, v := range vals {
		b.AppendRow(Str(v))
	}
	return b.Build()
}

// column reads string column 0 back cell by cell.
func column(d *Dataset) []string {
	out := make([]string, d.NumRows())
	for r := range out {
		out[r] = d.StringAt(0, r)
	}
	return out
}

// dictValues lists a dictionary's values in code order.
func dictValues(d *StringDict) []string {
	out := make([]string, d.Len())
	for c := range out {
		out[c] = d.Value(uint32(c))
	}
	return out
}

// checkCoded holds a dataset's string column to the expected cells and
// the expected dictionary, and its codes to the dictionary.
func checkCoded(t *testing.T, d *Dataset, wantCells, wantDict []string) {
	t.Helper()
	if got := column(d); !reflect.DeepEqual(got, append([]string{}, wantCells...)) {
		t.Fatalf("cells = %q, want %q", got, wantCells)
	}
	dict := d.Dict(0)
	if got := dictValues(dict); !reflect.DeepEqual(got, append([]string{}, wantDict...)) {
		t.Fatalf("dictionary = %q, want %q (first-appearance order)", got, wantDict)
	}
	for c, v := range wantDict {
		if got, ok := dict.Code(v); !ok || got != uint32(c) {
			t.Fatalf("Code(%q) = %d,%v want %d", v, got, ok, c)
		}
	}
	if len(d.StringCodes(0)) != d.NumRows() {
		t.Fatalf("%d codes for %d rows", len(d.StringCodes(0)), d.NumRows())
	}
}

func TestBuilderCodesFirstAppearance(t *testing.T) {
	s := strSchema()
	d := strDataset(s, "b", "a", "b", "", "c", "a")
	checkCoded(t, d, []string{"b", "a", "b", "", "c", "a"}, []string{"b", "a", "", "c"})
	if _, ok := d.Dict(0).Code("unseen"); ok {
		t.Error("unseen value reported present")
	}

	empty := NewBuilder(s, 0).Build()
	if empty.Dict(0) == nil || empty.Dict(0).Len() != 0 {
		t.Fatal("empty string column has no (empty) dictionary")
	}
	if _, ok := empty.Dict(0).Code("x"); ok {
		t.Error("empty dictionary reported a value present")
	}
}

// TestDictionaryAcrossAppends pins how Concat, Builder.AppendRows and
// a write tail's Builder.AppendDataset + View treat a tail's strings:
// cells always read back
// equal; a tail introducing no value leaves the dictionary shared by
// pointer; a tail introducing values extends a copy in first-appearance
// order without renumbering what was there.
func TestDictionaryAcrossAppends(t *testing.T) {
	s := strSchema()
	cases := []struct {
		name       string
		base, tail []string
		wantDict   []string
		shared     bool // result keeps the base's dictionary pointer
	}{
		{"tail adds nothing", []string{"x", "y", "x"}, []string{"y", "y", "x"}, []string{"x", "y"}, true},
		{"tail in another order adds nothing", []string{"x", "y", "z"}, []string{"z", "x"}, []string{"x", "y", "z"}, true},
		{"empty tail", []string{"x", "y"}, nil, []string{"x", "y"}, true},
		{"tail adds values", []string{"x", "y"}, []string{"q", "y", "p", "q"}, []string{"x", "y", "q", "p"}, false},
		{"tail adds the empty string", []string{"x"}, []string{"", "x"}, []string{"x", ""}, false},
		{"empty base adopts the tail's", nil, []string{"b", "a", "b"}, []string{"b", "a"}, false},
	}
	for _, tc := range cases {
		base, tail := strDataset(s, tc.base...), strDataset(s, tc.tail...)
		wantCells := append(append([]string{}, tc.base...), tc.tail...)

		t.Run("Concat/"+tc.name, func(t *testing.T) {
			got := Concat(base, tail)
			checkCoded(t, got, wantCells, tc.wantDict)
			if shared := got.Dict(0) == base.Dict(0); shared != tc.shared {
				t.Fatalf("dictionary shared with base = %v, want %v", shared, tc.shared)
			}
			if len(tc.base) == 0 && got.Dict(0) != tail.Dict(0) {
				t.Fatal("empty base: result should share the tail's dictionary")
			}
			// Base codes are never renumbered.
			if !reflect.DeepEqual(got.StringCodes(0)[:base.NumRows()], base.StringCodes(0)) {
				t.Fatal("base codes changed")
			}
			// The inputs are untouched.
			checkCoded(t, base, tc.base, dictValues(base.Dict(0)))
			checkCoded(t, tail, tc.tail, dictValues(tail.Dict(0)))
		})

		t.Run("AppendRows/"+tc.name, func(t *testing.T) {
			b := NewBuilder(s, 0)
			b.AppendRows(base, allRows(base))
			b.AppendRows(tail, allRows(tail))
			got := b.Build()
			checkCoded(t, got, wantCells, tc.wantDict)
			if shared := got.Dict(0) == base.Dict(0); shared != tc.shared {
				t.Fatalf("dictionary shared with base = %v, want %v", shared, tc.shared)
			}
		})

		t.Run("Delta/"+tc.name, func(t *testing.T) {
			d := NewBuilder(s, 0)
			d.AppendDataset(base)
			v1 := d.View()
			d.AppendDataset(tail)
			v2 := d.View()
			// A view snapshots the open builder's dictionary, so its code
			// order is first appearance over everything appended.
			checkCoded(t, v2, wantCells, tc.wantDict)
			checkCoded(t, v1, tc.base, tc.wantDict[:v1.Dict(0).Len()])
			if reused := v2.Dict(0) == v1.Dict(0); reused != tc.shared {
				t.Fatalf("view dictionary reused = %v, want %v", reused, tc.shared)
			}
		})
	}
}

func allRows(d *Dataset) []int {
	rows := make([]int, d.NumRows())
	for i := range rows {
		rows[i] = i
	}
	return rows
}

// TestAppendRowsMixedDictionaries feeds one builder from datasets coded
// three different ways; codes must come out as if every cell had gone
// through AppendRow.
func TestAppendRowsMixedDictionaries(t *testing.T) {
	s := strSchema()
	a := strDataset(s, "m", "n", "m")
	b := strDataset(s, "n", "o")
	c := pick(a, 1, 0) // shares a's dictionary

	bld := NewBuilder(s, 0)
	bld.AppendRow(Str("z"))
	bld.AppendRows(a, []int{2, 1})
	bld.AppendRows(b, []int{1, 0, 1})
	bld.AppendRows(c, []int{0, 1})
	bld.AppendRows(a, nil) // no rows: a no-op, not "all rows"
	got := bld.Build()
	checkCoded(t, got,
		[]string{"z", "m", "n", "o", "n", "o", "n", "m"},
		[]string{"z", "m", "n", "o"})
}

// pick copies the given rows of d, in order, into a new dataset over
// d's schema.
func pick(d *Dataset, rows ...int) *Dataset {
	b := NewBuilder(d.Schema(), len(rows))
	b.AppendRows(d, rows)
	return b.Build()
}

func TestAppendRowsSharesDictionary(t *testing.T) {
	s := strSchema()
	d := strDataset(s, "p", "q", "r", "q", "p")
	smp := pick(d, 3, 3, 0)
	if smp.Dict(0) != d.Dict(0) {
		t.Fatal("AppendRows copied the dictionary")
	}
	checkCoded(t, smp, []string{"q", "q", "p"}, []string{"p", "q", "r"})
	// Rows copied from a copy still share it, and growing a dataset
	// from a copy leaves the original untouched.
	if pick(smp, 1).Dict(0) != d.Dict(0) {
		t.Fatal("AppendRows from a copy copied the dictionary")
	}
	grown := Concat(smp, strDataset(s, "new"))
	checkCoded(t, grown, []string{"q", "q", "p", "new"}, []string{"p", "q", "r", "new"})
	checkCoded(t, d, []string{"p", "q", "r", "q", "p"}, []string{"p", "q", "r"})
}

// TestDeltaViewStableUnderAppends is the -race half of the write
// tail's view contract: readers decode a published Builder.View (cells,
// dictionary values and the lazily indexed Code) while the owner keeps
// appending batches that both reuse and extend the dictionary.
func TestDeltaViewStableUnderAppends(t *testing.T) {
	s := strSchema()
	d := NewBuilder(s, 0)
	rng := rand.New(rand.NewSource(21))
	batch := func(n, card int) *Dataset {
		vals := make([]string, n)
		for i := range vals {
			vals[i] = fmt.Sprintf("v%04d", rng.Intn(card))
		}
		return strDataset(s, vals...)
	}
	d.AppendDataset(batch(64, 8))
	view := d.View()
	want := column(view)
	wantDict := dictValues(view.Dict(0))

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got := column(view); !reflect.DeepEqual(got, want) {
					t.Error("published view's cells changed under appends")
					return
				}
				dict := view.Dict(0)
				for c, v := range wantDict {
					if got, ok := dict.Code(v); !ok || got != uint32(c) || dict.Len() != len(wantDict) {
						t.Error("published view's dictionary changed under appends")
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		d.AppendDataset(batch(64, 8+i*4)) // growing cardinality: reallocations included
		d.View()
	}
	close(stop)
	wg.Wait()

	if !reflect.DeepEqual(column(d.View())[:len(want)], want) {
		t.Fatal("later view disagrees with the earlier one on shared rows")
	}
}
