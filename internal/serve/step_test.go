package serve

import (
	"errors"
	"strings"
	"testing"

	"oreo"
	"oreo/internal/table"
)

// stepFixture returns an unseeded state, and a seeded one at epoch 5
// holding a three-row delta, both over the same deterministic table.
func stepFixture(t *testing.T) (unseeded, seeded *repState, snap oreo.OptimizerSnapshot) {
	t.Helper()
	ds := buildOrdersDet(64)
	opt, err := oreo.New(ds, oreo.Config{Partitions: 4, InitialSort: []string{"order_ts"}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	snap = opt.Snapshot()
	unseeded = &repState{tail: table.NewBuilder(ds.Schema(), 0)}
	seeded, _, err = step(unseeded, DecisionUpdate{Kind: UpdateSnapshot, Epoch: 5, Snapshot: snap, Base: ds, Rows: rowsOver(ds.Schema(), 64, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if seeded.epoch != 5 || seeded.deltaRows() != 3 || seeded.ds != ds {
		t.Fatalf("snapshot seeded %+v", seeded)
	}
	return unseeded, seeded, snap
}

// TestStepRejections pins every way the transition refuses an update,
// and that a refusal — or a silent skip — leaves the state exactly as
// it was: same pointer back, nothing inside it moved, tail included.
func TestStepRejections(t *testing.T) {
	unseeded, seeded, snap := stepFixture(t)
	schema := seeded.ds.Schema()
	foreign := oreo.NewSchema(schema.Cols()...) // same columns, different instance
	smaller, err := oreo.New(buildOrdersDet(32), oreo.Config{Partitions: 4, InitialSort: []string{"order_ts"}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	shortSnap := smaller.Snapshot() // a layout over 32 rows, not 64

	cases := []struct {
		name string
		cur  *repState
		in   DecisionUpdate
		// wantErr: "" = skipped without error; otherwise a substring, and
		// is (when set) must match with errors.Is.
		wantErr string
		is      error
	}{
		{name: "stale epoch is skipped", cur: seeded,
			in: DecisionUpdate{Kind: UpdateDecision, Epoch: 5, Snapshot: shortSnap}},
		{name: "older epoch is skipped", cur: seeded,
			in: DecisionUpdate{Kind: UpdateAppend, Epoch: 2, Rows: rowsOver(schema, 67, 1), DeltaRows: 99}},
		{name: "epoch gap", cur: seeded,
			in:      DecisionUpdate{Kind: UpdateDecision, Epoch: 7, Snapshot: snap},
			wantErr: "have 5, got 7", is: ErrEpochGap},
		{name: "update before any snapshot", cur: unseeded,
			in:      DecisionUpdate{Kind: UpdateDecision, Epoch: 1, Snapshot: snap},
			wantErr: "before any snapshot"},
		{name: "minted update before any snapshot", cur: unseeded,
			in:      DecisionUpdate{Kind: UpdateAppend, Rows: rowsOver(schema, 64, 1)},
			wantErr: "before any snapshot"},
		{name: "append whose DeltaRows disagrees", cur: seeded,
			in:      DecisionUpdate{Kind: UpdateAppend, Epoch: 6, Rows: rowsOver(schema, 67, 2), DeltaRows: 4},
			wantErr: "delta is 5 rows after append, update reports 4", is: ErrDiverged},
		{name: "append without rows", cur: seeded,
			in:      DecisionUpdate{Kind: UpdateAppend, Epoch: 6, DeltaRows: 3},
			wantErr: "append batch is missing"},
		{name: "append over a foreign schema instance", cur: seeded,
			in:      DecisionUpdate{Kind: UpdateAppend, Epoch: 6, Rows: rowsOver(foreign, 67, 2), DeltaRows: 5},
			wantErr: "different schema instance"},
		{name: "compact whose Folded disagrees", cur: seeded,
			in:      DecisionUpdate{Kind: UpdateCompact, Epoch: 6, Folded: 2, Snapshot: snap},
			wantErr: "compaction folded 2 rows, local delta holds 3", is: ErrDiverged},
		{name: "compact whose layout does not cover the grown base", cur: seeded,
			in:      DecisionUpdate{Kind: UpdateCompact, Epoch: 6, Folded: 3, Snapshot: snap},
			wantErr: "pairs a 64-row layout with a 67-row dataset"},
		{name: "compact whose bind fails", cur: seeded,
			in: DecisionUpdate{Kind: UpdateCompact, Epoch: 6, Folded: 3, Bind: func(*oreo.Dataset, uint64) (oreo.OptimizerSnapshot, error) {
				return oreo.OptimizerSnapshot{}, ErrDiverged
			}},
			wantErr: "diverges", is: ErrDiverged},
		{name: "compact without a layout", cur: seeded,
			in:      DecisionUpdate{Kind: UpdateCompact, Epoch: 6, Folded: 3},
			wantErr: "no serving layout"},
		{name: "decision whose layout does not cover the base", cur: seeded,
			in:      DecisionUpdate{Kind: UpdateDecision, Epoch: 6, Snapshot: shortSnap},
			wantErr: "pairs a 32-row layout with a 64-row dataset"},
		{name: "snapshot whose layout does not cover its base", cur: seeded,
			in:      DecisionUpdate{Kind: UpdateSnapshot, Epoch: 9, Snapshot: shortSnap, Base: seeded.ds},
			wantErr: "pairs a 32-row layout with a 64-row dataset"},
		{name: "snapshot without a base", cur: seeded,
			in:      DecisionUpdate{Kind: UpdateSnapshot, Epoch: 9, Snapshot: snap},
			wantErr: "snapshot base is missing"},
		{name: "snapshot over a foreign schema instance", cur: unseeded,
			in:      DecisionUpdate{Kind: UpdateSnapshot, Epoch: 9, Snapshot: snap, Base: rowsOver(foreign, 0, 64)},
			wantErr: "different schema instance"},
		{name: "snapshot tail over a foreign schema instance", cur: seeded,
			in:      DecisionUpdate{Kind: UpdateSnapshot, Epoch: 9, Snapshot: snap, Base: seeded.ds, Rows: rowsOver(foreign, 64, 1)},
			wantErr: "different schema instance"},
		{name: "unknown kind", cur: seeded,
			in:      DecisionUpdate{Kind: "vacuum", Epoch: 6},
			wantErr: `unknown update kind "vacuum"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before, tailRows, view := *tc.cur, tc.cur.tail.NumRows(), tc.cur.tail.View()
			next, out, err := step(tc.cur, tc.in)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("want a silent skip, got %v", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
			case tc.is != nil && !errors.Is(err, tc.is):
				t.Fatalf("err = %v, want errors.Is %v", err, tc.is)
			}
			if next != tc.cur {
				t.Fatal("a refused update returned a new state")
			}
			if out.Kind != "" {
				t.Fatalf("a refused update emitted %+v", out)
			}
			if *tc.cur != before || tc.cur.tail.NumRows() != tailRows || tc.cur.tail.View() != view {
				t.Fatalf("state moved: %+v → %+v (tail %d → %d rows)", before, *tc.cur, tailRows, tc.cur.tail.NumRows())
			}
		})
	}

	// The same state still takes the exact next epoch afterwards — on
	// both the replayed and the minted path — so nothing above wedged it.
	next, out, err := step(seeded, DecisionUpdate{Kind: UpdateAppend, Epoch: 6, Rows: rowsOver(schema, 67, 2), DeltaRows: 5})
	if err != nil || next.epoch != 6 || next.deltaRows() != 5 || out.DeltaRows != 5 {
		t.Fatalf("replayed append after the refusals: next=%+v out=%+v err=%v", next, out, err)
	}
	next, out, err = step(next, DecisionUpdate{Kind: UpdateDecision, Snapshot: snap})
	if err != nil || next.epoch != 7 || out.Epoch != 7 || out.Switched || out.DeltaRows != 5 {
		t.Fatalf("minted decision: next=%+v out=%+v err=%v", next, out, err)
	}
}

// TestStepMintedEmptyFold pins the one no-op that is not a refusal: a
// leader folding an empty delta reports its current epoch and moves
// nothing, while a replayed fold of zero rows still advances.
func TestStepMintedEmptyFold(t *testing.T) {
	unseeded, seeded, snap := stepFixture(t)
	cur, _, err := step(unseeded, DecisionUpdate{Kind: UpdateSnapshot, Epoch: 3, Snapshot: snap, Base: seeded.ds})
	if err != nil {
		t.Fatal(err)
	}
	next, out, err := step(cur, DecisionUpdate{Kind: UpdateCompact, Bind: func(*oreo.Dataset, uint64) (oreo.OptimizerSnapshot, error) {
		t.Fatal("an empty minted fold must not bind")
		return oreo.OptimizerSnapshot{}, nil
	}})
	if err != nil || next != cur || out.Kind != UpdateCompact || out.Epoch != 3 || out.Folded != 0 {
		t.Fatalf("minted empty fold: next==cur %v, out=%+v, err=%v", next == cur, out, err)
	}
	next, out, err = step(cur, DecisionUpdate{Kind: UpdateCompact, Epoch: 4, Snapshot: snap})
	if err != nil || next.epoch != 4 || next.ds != cur.ds || out.Folded != 0 || out.Switched {
		t.Fatalf("replayed empty fold: next=%+v out=%+v err=%v", next, out, err)
	}
}
