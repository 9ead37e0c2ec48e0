package storage

import (
	"testing"
	"testing/quick"
)

func TestDefaultAlphaBand(t *testing.T) {
	// The paper measures alpha in the 60x–100x band across 16MB–4GB
	// (Table I); the simulator must stay in that band.
	m := DefaultDiskModel()
	for _, r := range m.MeasureAlpha(nil) {
		if r.Alpha < 55 || r.Alpha > 105 {
			t.Errorf("alpha(%gMB) = %.1f outside the paper's 60-100x band", r.FileMB, r.Alpha)
		}
	}
}

func TestAlphaDipsAtLargeFiles(t *testing.T) {
	// Table I's characteristic shape: alpha rises with file size, then
	// drops once the scan itself starts spilling (4096MB row).
	m := DefaultDiskModel()
	rows := m.MeasureAlpha(nil)
	if rows[3].Alpha <= rows[0].Alpha {
		t.Errorf("alpha not rising: %v vs %v", rows[3].Alpha, rows[0].Alpha)
	}
	last := rows[len(rows)-1]
	if last.Alpha >= rows[3].Alpha {
		t.Errorf("alpha(4096) = %.1f did not dip below alpha(1024) = %.1f", last.Alpha, rows[3].Alpha)
	}
}

func TestScanSecondsMonotone(t *testing.T) {
	m := DefaultDiskModel()
	f := func(aRaw, bRaw uint16) bool {
		a, b := float64(aRaw), float64(bRaw)
		if a > b {
			a, b = b, a
		}
		return m.ScanSeconds(a) <= m.ScanSeconds(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReorgSecondsMonotone(t *testing.T) {
	m := DefaultDiskModel()
	f := func(aRaw, bRaw uint16) bool {
		a, b := float64(aRaw), float64(bRaw)
		if a > b {
			a, b = b, a
		}
		return m.ReorgSeconds(a) <= m.ReorgSeconds(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNegativeVolumeClamped(t *testing.T) {
	m := DefaultDiskModel()
	if got := m.ScanSeconds(-5); got != m.ScanSeconds(0) {
		t.Errorf("negative scan volume = %g", got)
	}
	if got := m.ReorgSeconds(-5); got != m.ReorgSeconds(0) {
		t.Errorf("negative reorg volume = %g", got)
	}
}

func TestSpillKink(t *testing.T) {
	m := DefaultDiskModel()
	// Marginal cost per MB above the spill threshold must exceed the
	// marginal cost below it.
	below := m.ScanSeconds(m.SpillThresholdMB) - m.ScanSeconds(m.SpillThresholdMB-100)
	above := m.ScanSeconds(m.SpillThresholdMB+200) - m.ScanSeconds(m.SpillThresholdMB+100)
	if above <= below {
		t.Errorf("no spill kink: marginal below=%g above=%g", below, above)
	}
}

func TestMeasureAlphaCustomSizes(t *testing.T) {
	m := DefaultDiskModel()
	rows := m.MeasureAlpha([]float64{100, 200})
	if len(rows) != 2 || rows[0].FileMB != 100 || rows[1].FileMB != 200 {
		t.Fatalf("MeasureAlpha rows = %+v", rows)
	}
	for _, r := range rows {
		if r.Alpha != r.ReorgSeconds/r.QuerySeconds {
			t.Errorf("alpha not consistent with components: %+v", r)
		}
	}
}

func TestTable1SizesMatchPaper(t *testing.T) {
	want := []float64{16, 64, 256, 1024, 4096}
	if len(Table1Sizes) != len(want) {
		t.Fatalf("Table1Sizes = %v", Table1Sizes)
	}
	for i := range want {
		if Table1Sizes[i] != want[i] {
			t.Fatalf("Table1Sizes = %v, want %v", Table1Sizes, want)
		}
	}
}
