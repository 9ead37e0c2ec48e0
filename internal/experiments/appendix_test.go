package experiments

import (
	"testing"

	"oreo/internal/datagen"
)

func TestAppendixADegradation(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	s := tinyScenario(t, datagen.TPCH)
	rows := AppendixA(s)
	if len(rows) != len(s.Stream.Segments) {
		t.Fatalf("rows = %d, segments = %d", len(rows), len(s.Stream.Segments))
	}
	// On its own segment, the first-segment layout matches the oracle.
	first := rows[0]
	if first.StaticCost > first.OwnCost*1.05+0.02 {
		t.Errorf("segment 0: static %g should match own-layout cost %g", first.StaticCost, first.OwnCost)
	}
	// Averaged over drifted segments, the stale layout must lose ground
	// to per-segment layouts — the degradation the paper motivates with.
	var staleGap float64
	for _, r := range rows[1:] {
		staleGap += r.StaticCost - r.OwnCost
	}
	if staleGap <= 0 {
		t.Errorf("stale layout never degraded: gap sum %g", staleGap)
	}
	for _, r := range rows {
		if r.StaticCost < 0 || r.StaticCost > 1 || r.OwnCost < 0 || r.OwnCost > 1 {
			t.Errorf("segment %d: costs out of range: %+v", r.Segment, r)
		}
		if r.Template == "" {
			t.Errorf("segment %d: missing template name", r.Segment)
		}
	}
}

func TestColumnSweepSWBeatsRS(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	s := tinyScenario(t, datagen.Telemetry)
	p := tinyParams()
	results := ColumnSweep(s, p, 400)
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	var sw, rs Row
	for _, r := range results {
		switch r.Variant {
		case "SW":
			sw = r
		case "RS":
			rs = r
		}
	}
	if sw.QueryCost <= 0 || rs.QueryCost <= 0 {
		t.Fatal("degenerate sweep run")
	}
	// §V-A: on the column-sweep workload, reservoir-sourced candidates
	// blend columns and cannot specialize; sliding-window candidates
	// track the current column. SW must not lose on query cost.
	if sw.QueryCost > rs.QueryCost*1.02 {
		t.Errorf("SW query cost %g worse than RS %g on the sweep workload", sw.QueryCost, rs.QueryCost)
	}
}
