package serve

import (
	"errors"
	"fmt"

	"oreo"
	"oreo/internal/table"
)

// repState is one published (epoch, snapshot, base, delta) state; see
// shard.rep. States form a chain: step derives each from its
// predecessor and one DecisionUpdate, and nothing else builds one after
// construction.
type repState struct {
	epoch uint64
	snap  oreo.OptimizerSnapshot
	// ds is the partitioned base the snapshot's layouts describe. It
	// grows at compaction epochs and is otherwise stable.
	ds *oreo.Dataset
	// delta is the immutable live-tail view as of the epoch; nil means
	// empty. Scans append it in full (it is unpartitioned, so it is an
	// always-survivor extra partition), and costs count its rows.
	delta *oreo.Dataset
	// tail is the open builder delta is a view of: the rows appended
	// since the last fold. It belongs to the chain's single writer
	// (shard.advance); readers never touch it. Never nil, so a replica's
	// unseeded state still anchors the schema.
	tail *table.Builder
}

// seeded reports whether the state holds a snapshot; false only on a
// replica shard before its first snapshot update.
func (st *repState) seeded() bool { return st.snap.Serving != nil }

// deltaRows returns the published delta's row count.
func (st *repState) deltaRows() int {
	if st.delta == nil {
		return 0
	}
	return st.delta.NumRows()
}

// pending reports the reorganization in flight as seen by a reader
// answering from the layout served: the optimizer's background target,
// or — when an execution store still holds the layout this state has
// already switched away from — the published serving layout itself,
// because the physical swap has not landed and answers keep coming from
// the outgoing blocks until it does. A monitor polling for
// "reorganization done" must not be told done before that.
func (st *repState) pending(served *oreo.Layout) (reorganizing bool, layout string) {
	switch {
	case st.snap.Pending != nil:
		return true, st.snap.Pending.Name
	case st.snap.Serving != served:
		return true, st.snap.Serving.Name
	}
	return false, ""
}

// Decision-update kinds; see DecisionUpdate.Kind.
const (
	// UpdateDecision is a processed observation (a layout decision).
	UpdateDecision = "decision"
	// UpdateAppend is a row batch landed in the delta segment.
	UpdateAppend = "append"
	// UpdateCompact is a delta fold into a new base layout.
	UpdateCompact = "compact"
	// UpdateSnapshot replaces the whole state: how a replica is seeded
	// and how a gap in its stream is repaired. Never emitted through the
	// decision hook; a publisher cuts one from Core.ReplicaPosition.
	UpdateSnapshot = "snapshot"
)

// DecisionUpdate is one transition of a table's state — the unit of the
// replication log. It plays both ends of step: a leader's consumer and
// a follower's decoder each build one as input, and the completed
// update step returns is what the decision hook sees.
//
// Epoch is the table's monotonic sequence number (one per processed
// event, starting at 1 for the first event after boot). An input epoch
// of zero is the deciding side asking the transition to mint the next
// one and to fill in DeltaRows and Folded; a nonzero one is a replay,
// whose epoch, DeltaRows and Folded are checked against the local
// state. Snapshot is the post-event published state; Switched reports
// that the serving layout changed with this event (the physical swap,
// so under ReorgDelay it fires when the swap lands, not when the switch
// was decided — exactly what a follower mirroring served answers needs).
//
// Kind distinguishes the event families. Appends carry the landed batch
// in Rows and the delta size after it in DeltaRows; compactions carry
// the folded row count in Folded (their new layout travels in Snapshot
// and Switched is always true); snapshots carry the whole state — Base,
// the delta tail in Rows, and the epoch they were cut at.
type DecisionUpdate struct {
	Kind     string
	Epoch    uint64
	Cost     float64
	Switched bool
	// Snapshot is the published optimizer view. An input decision may
	// leave Serving nil (the layout did not change).
	Snapshot oreo.OptimizerSnapshot
	// Bind, on an input, produces Snapshot from the base the update
	// lands on — the current base for a decision, the grown base for a
	// compaction, which only the transition computes — and the epoch it
	// lands at. A follower binds the shipped layout document there; a
	// leader repartitions and builds its next engine there.
	Bind func(base *oreo.Dataset, epoch uint64) (oreo.OptimizerSnapshot, error)
	// Base is the partitioned base (UpdateSnapshot only).
	Base *oreo.Dataset
	// Rows is the appended batch (UpdateAppend) or the whole live tail
	// (UpdateSnapshot; nil ≡ empty).
	Rows *oreo.Dataset
	// DeltaRows is the delta segment's size after this event.
	DeltaRows int
	// Folded is the number of delta rows folded into the base
	// (UpdateCompact only).
	Folded int
}

// Rejections a replication follower must tell apart from the rest: a
// gap means records were lost in transit (reconnect, then resume or
// re-snapshot); a divergence means the local rows are not the leader's
// and no retry can fix it.
var (
	ErrEpochGap = errors.New("serve: epoch gap in update stream")
	ErrDiverged = errors.New("serve: replicated data diverges from the leader's")
)

// step is a table's one transition function: current state + update →
// next state + the update as applied, or an error with the state left
// as it was. It is deterministic — no goroutines, clocks or I/O — and
// the only code that knows how epochs advance, how the delta tail grows
// and folds, and which (layout, base, delta) combinations are coherent,
// so a leader deciding and a follower replaying cannot disagree.
//
// next == cur means nothing changed: a replay at or below the current
// epoch (overlap after a re-snapshot), or a minted fold of an empty
// delta. An append grows the tail in place, only after every check
// passed; a fold or a snapshot hands the next state a fresh one.
func step(cur *repState, in DecisionUpdate) (next *repState, out DecisionUpdate, err error) {
	schema := cur.tail.Schema()
	minted := in.Epoch == 0
	switch {
	case in.Kind == UpdateSnapshot:
		// Exempt from the epoch discipline: a restarted leader's snapshot
		// may regress.
	case !cur.seeded():
		return cur, out, fmt.Errorf("%s update before any snapshot", in.Kind)
	case minted:
		in.Epoch = cur.epoch + 1
	case in.Epoch <= cur.epoch:
		return cur, out, nil
	case in.Epoch != cur.epoch+1:
		return cur, out, fmt.Errorf("%w: have %d, got %d", ErrEpochGap, cur.epoch, in.Epoch)
	}

	next = &repState{epoch: in.Epoch, snap: cur.snap, ds: cur.ds, tail: cur.tail}
	switch in.Kind {
	case UpdateSnapshot:
		if in.Base == nil || in.Base.Schema() != schema || (in.Rows != nil && in.Rows.Schema() != schema) {
			return cur, out, errors.New("snapshot base is missing, or it or the tail is built over a different schema instance")
		}
		if next.snap, err = in.resolve(in.Base, nil); err != nil {
			return cur, out, err
		}
		next.ds, next.tail = in.Base, table.NewBuilder(schema, 0)
		if in.Rows != nil {
			next.tail.AppendDataset(in.Rows)
		}

	case UpdateDecision:
		if next.snap, err = in.resolve(cur.ds, cur.snap.Serving); err != nil {
			return cur, out, err
		}

	case UpdateAppend:
		// AppendDataset panics on a foreign schema instance, and batches
		// here may come off a wire.
		if in.Rows == nil || in.Rows.Schema() != schema {
			return cur, out, errors.New("append batch is missing or built over a different schema instance")
		}
		if after := cur.tail.NumRows() + in.Rows.NumRows(); !minted && in.DeltaRows != after {
			// A record was lost in a way the epoch discipline missed.
			// Checked before the batch lands: a delta cannot un-append.
			return cur, out, fmt.Errorf("%w: delta is %d rows after append, update reports %d", ErrDiverged, after, in.DeltaRows)
		}
		cur.tail.AppendDataset(in.Rows)

	case UpdateCompact:
		n := cur.tail.NumRows()
		if minted && n == 0 {
			// Folding an empty delta does not advance the epoch — safe to
			// call in a settle loop.
			return cur, DecisionUpdate{Kind: UpdateCompact, Epoch: cur.epoch}, nil
		}
		if !minted && in.Folded != n {
			return cur, out, fmt.Errorf("%w: compaction folded %d rows, local delta holds %d", ErrDiverged, in.Folded, n)
		}
		// A compact update carries no rows: the base grows from rows
		// already in the chain, identically on every node, and the folded
		// rows leave with the tail they were counted from.
		if in.Folded = n; n > 0 {
			next.ds, next.tail = table.Concat(cur.ds, cur.delta), table.NewBuilder(schema, 0)
		}
		if next.snap, err = in.resolve(next.ds, nil); err != nil {
			return cur, out, err
		}

	default:
		return cur, out, fmt.Errorf("unknown update kind %q", in.Kind)
	}
	if next.tail.NumRows() > 0 {
		next.delta = next.tail.View() // cached until the tail next changes
	}
	out = in
	out.Bind, out.Snapshot, out.DeltaRows = nil, next.snap, next.deltaRows()
	out.Switched = next.snap.Serving != cur.snap.Serving
	return next, out, nil
}

// resolve returns the snapshot the update installs over base — bound
// there when the update defers it, carrying serving over when the
// update names no layout — and rejects one whose serving layout does
// not describe exactly base's rows.
func (u DecisionUpdate) resolve(base *oreo.Dataset, serving *oreo.Layout) (snap oreo.OptimizerSnapshot, err error) {
	if snap = u.Snapshot; u.Bind != nil {
		if snap, err = u.Bind(base, u.Epoch); err != nil {
			return snap, err
		}
	}
	if snap.Serving == nil {
		snap.Serving = serving
	}
	if snap.Serving == nil {
		return snap, fmt.Errorf("%s update has no serving layout", u.Kind)
	}
	if rows := snap.Serving.Part.TotalRows; rows != base.NumRows() {
		return snap, fmt.Errorf("%s update pairs a %d-row layout with a %d-row dataset", u.Kind, rows, base.NumRows())
	}
	return snap, nil
}
