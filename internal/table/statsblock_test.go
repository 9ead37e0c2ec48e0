package table

import (
	"math"
	"testing"
)

func statsBlockFixture(t *testing.T) (*Dataset, *Partitioning) {
	t.Helper()
	schema := NewSchema(
		Column{Name: "i", Type: Int64},
		Column{Name: "f", Type: Float64},
		Column{Name: "s", Type: String},
	)
	b := NewBuilder(schema, 9)
	vals := []struct {
		i int64
		f float64
		s string
	}{
		{5, 1.5, "a"}, {2, -3.0, "b"}, {9, 0.5, "a"},
		{-4, 7.25, "c"}, {0, 2.0, "c"}, {11, -1.0, "d"},
		{3, 4.0, "e"}, {8, 6.5, "e"}, {1, 0.0, "f"},
	}
	for _, v := range vals {
		b.AppendRow(Int(v.i), Float(v.f), Str(v.s))
	}
	// Partition 2 of 4 stays empty.
	assign := []int{0, 0, 0, 1, 1, 1, 3, 3, 3}
	d := b.Build()
	return d, MustBuildPartitioning(d, assign, 4)
}

func TestStatsBlockMirrorsMeta(t *testing.T) {
	_, p := statsBlockFixture(t)
	b := p.Stats()

	if b.NumParts != 4 || b.NumCols != 3 {
		t.Fatalf("dims = %dx%d, want 4x3", b.NumParts, b.NumCols)
	}
	c := b.Columns()
	for pid, m := range p.Meta() {
		if b.Rows[pid] != m.NumRows {
			t.Errorf("Rows[%d] = %d, want %d", pid, b.Rows[pid], m.NumRows)
		}
		for ci := range m.Stats {
			cs := &m.Stats[ci]
			idx := ci*b.NumParts + pid
			if col := b.Column(ci); col.Col[pid] != c.Col[idx] {
				t.Errorf("(%d,%d) Column and Columns disagree", ci, pid)
			}
			if c.MinI[idx] != cs.MinI || c.MaxI[idx] != cs.MaxI {
				t.Errorf("(%d,%d) int range (%d,%d), want (%d,%d)",
					ci, pid, c.MinI[idx], c.MaxI[idx], cs.MinI, cs.MaxI)
			}
			fEq := func(a, c float64) bool {
				return a == c || (math.IsNaN(a) && math.IsNaN(c))
			}
			if !fEq(c.MinF[idx], cs.MinF) || !fEq(c.MaxF[idx], cs.MaxF) {
				t.Errorf("(%d,%d) float range (%v,%v), want (%v,%v)",
					ci, pid, c.MinF[idx], c.MaxF[idx], cs.MinF, cs.MaxF)
			}
			if c.Seen[idx] != !cs.Empty() {
				t.Errorf("(%d,%d) Seen = %v, want %v", ci, pid, c.Seen[idx], !cs.Empty())
			}
			if c.Col[idx] != cs {
				t.Errorf("(%d,%d) Col does not point at the source stats", ci, pid)
			}
		}
	}
}

func TestStatsBlockNonEmptyMask(t *testing.T) {
	_, p := statsBlockFixture(t)
	b := p.Stats()
	for pid, m := range p.Meta() {
		got := b.NonEmpty[pid/64]&(1<<(pid%64)) != 0
		if got != (m.NumRows > 0) {
			t.Errorf("NonEmpty bit %d = %v, want %v", pid, got, m.NumRows > 0)
		}
	}
}

func TestStatsBlockBuiltOnceAndShared(t *testing.T) {
	_, p := statsBlockFixture(t)
	if p.Stats() != p.Stats() {
		t.Error("Stats() rebuilt the block")
	}
	// Hand-built partitionings come with every column built.
	manual := NewPartitioning([]*PartitionMeta{{ID: 0, NumRows: 0, Stats: nil}}, nil)
	if b := manual.Stats(); b.NumParts != 1 || b.NumCols != 0 {
		t.Errorf("manual block dims %dx%d", b.NumParts, b.NumCols)
	}
}
