package experiments

import (
	"testing"

	"oreo/internal/datagen"
)

func TestAblationStayInPlace(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	s := tinyScenario(t, datagen.TPCH)
	rows := AblationStayInPlace(s, tinyParams())
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	var with, without Row
	for _, r := range rows {
		if r.Variant == "stay-in-place" {
			with = r
			if !r.Default {
				t.Error("stay-in-place not marked default")
			}
		} else {
			without = r
		}
	}
	// The optimization exists to cut reorganization cost; random restart
	// must not beat it on that axis.
	if with.ReorgCost > without.ReorgCost {
		t.Errorf("stay-in-place reorg cost %g above random restart %g",
			with.ReorgCost, without.ReorgCost)
	}
}

func TestAblationMultiCopy(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	s := tinyScenario(t, datagen.TPCH)
	rows := AblationMultiCopy(s, tinyParams(), []int{1, 3})
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	b1, b3 := rows[0], rows[1]
	if b1.Variant != "B=1" || b3.Variant != "B=3" {
		t.Fatalf("variants = %q, %q", b1.Variant, b3.Variant)
	}
	// A larger storage budget can only reduce the reorganization bill:
	// resident copies are free to switch to.
	if b3.ReorgCost > b1.ReorgCost {
		t.Errorf("B=3 reorg cost %g above B=1 %g", b3.ReorgCost, b1.ReorgCost)
	}
	// And must not hurt query cost (min over a superset of layouts).
	if b3.QueryCost > b1.QueryCost*1.05 {
		t.Errorf("B=3 query cost %g well above B=1 %g", b3.QueryCost, b1.QueryCost)
	}
	for _, r := range rows {
		if r.QueryCost <= 0 {
			t.Errorf("%s: no query cost", r.Variant)
		}
	}
}
