// Package replica turns the single-process serving layer into a
// leader + N read-replica cluster sharing one decision stream.
//
// The topology follows the optimizer/front-end split: exactly one
// process — the leader — runs OREO's decision loops (admission, D-UMTS
// counters, reorganization), and any number of followers serve the
// full read surface from replicas of the leader's serving state.
// Followers run no optimizer and keep no state of their own. A table's
// (epoch, snapshot, base, delta) state lives in its serve shard and
// advances through exactly one transition function (serve's step,
// wrapped by shard.advance — the only writer of the published state);
// the roles differ only in who computes its input. On the leader the
// shard's consumer builds a serve.DecisionUpdate from what only a
// leader has — the optimizer's decision, the repartitioned base and
// fresh engine of a fold — and the transition mints its epoch; the
// applied update comes out of the decision hook. This package moves
// that update: EncodeUpdate frames it as one Record, DecodeRecord turns
// the Record back into the same update, and serve.Core.Apply feeds it
// to the same transition, which now checks the carried epoch instead
// of minting one. A follower's answer for any query — cost, survivor
// skip-list, executed aggregates — is therefore bit-identical to the
// leader's at the same epoch because both ran one function over the
// same inputs, and a promoted follower continues the log from state
// that function already built (see Promote).
//
// # The decision stream
//
// The leader attaches a Publisher to its serve.Core. Every update a
// table's transition applies is encoded once and fanned out to all
// subscribers as one NDJSON record on POST /v2/replication/subscribe:
//
//   - A subscription begins with one snapshot record per table: the
//     serving layout in the persist state framing (row→partition RLE +
//     statistics block + cost memo seed), the leader's optimizer
//     counters, and the table's current epoch. Followers rebuild the
//     layout against their local copy of the data; the statistics
//     block is the integrity gate — a bitwise mismatch proves the
//     follower's data differs from the leader's and fails replication
//     loudly instead of serving divergent answers.
//   - Every subsequent decision record carries the table's next epoch,
//     the served cost, the post-decision optimizer counters, and — only
//     when the serving layout physically changed — the new layout's
//     RLE. Non-switch records are a pointer update; switch records bind
//     the layout against the current base inside the transition (and
//     the execution store follows, in lockstep) off the request path.
//   - Live writes travel in the same stream, on the same epoch counter:
//     append records carry the landed rows (columnar, floats as bit
//     patterns), and compact records carry the post-fold layout with no
//     rows at all — the transition grows the base from rows already in
//     the table's state, on every node alike, and the statistics block
//     proves the result bit-identical to the leader's. Data and layout
//     share one totally ordered log, so a follower is bit-identical to
//     the leader at every epoch, not just at layout boundaries.
//
// Epochs are per-table monotonic decision sequence numbers, surfaced
// as layout_epochs on /healthz of both leader and follower, so
// replication lag is readable with two curls.
//
// # Gaps, re-snapshots, and reconnects
//
// A slow subscriber never backpressures the leader: each subscriber
// has a bounded record queue, and on overflow the publisher drops the
// backlog and transparently re-snapshots every subscribed table in the
// same stream. On the follower side, the transition skips replayed
// epochs and rejects any other out-of-order one (a gap the publisher
// could not repair, a proxy hiccup), which abandons the connection;
// the follower resubscribes with its current generation + boot ID +
// positions, and the leader answers with a cheap resume record when
// nothing was missed or a fresh snapshot otherwise — which is also how
// a leader restart is survived: the restarted process mints a new boot
// ID, so even if it re-reaches the claimed epochs under the same
// fencing term, subscribers are re-snapshotted instead of silently
// resumed onto a forked history.
//
// # The archive
//
// A leader's Publisher can also archive the stream it publishes
// (PublisherConfig.ArchiveDir): each record is appended to an NDJSON
// segment inside the decision hook, so an update is on disk before the
// shard acknowledges it. Recover brings a leader back from that
// directory, a follower bootstraps from it (FollowerConfig.ArchiveDir),
// and ReplayArchiveUpTo replays it to any epoch; archiver.go holds the
// writer, the format and the readers.
//
// # Observations flow upstream
//
// Queries answered at a follower still teach the leader's optimizer:
// each answered query is forwarded upstream over
// POST /v2/replication/observe in bounded, batched, drop-and-count
// fashion — a follower under load sheds observations, never requests,
// and never applies backpressure to the leader.
package replica

import (
	"fmt"

	"oreo"
	"oreo/internal/persist"
	"oreo/internal/serve"
)

// ProtocolVersion identifies the replication wire protocol. A leader
// rejects subscribe requests from a newer major version so skew fails
// loudly at connect time, not as a decode error mid-stream.
const ProtocolVersion = 1

// Record types; see the package comment for the protocol. A record
// that carries an update is typed by the update's kind.
const (
	// RecordSnapshot carries a full table state: persist-format layout
	// + statistics block + memo seed, the leader's counters, and the
	// epoch the state was captured at. Sent at subscribe time and
	// whenever the publisher must repair a gap in-stream.
	RecordSnapshot = serve.UpdateSnapshot
	// RecordDecision carries one processed query: the next epoch, its
	// served cost, post-decision counters, and the new layout RLE when
	// the serving layout switched.
	RecordDecision = serve.UpdateDecision
	// RecordResume confirms a resubscription that missed nothing: the
	// follower's position matches the leader's, so no snapshot is sent.
	RecordResume = "resume"
	// RecordAppend carries one live-write batch: the next epoch, the
	// appended rows in the persist columnar framing (float cells as bit
	// patterns, so follower ≡ leader stays exact), and the delta size
	// after the append, which the receiving transition checks.
	RecordAppend = serve.UpdateAppend
	// RecordCompact announces a delta fold: the next epoch, the folded
	// row count, and the compacted layout in the persist state framing —
	// WITHOUT rows. The follower's core already holds every row (base +
	// delta from prior records); its transition concatenates them and
	// binds the shipped layout against the result, with the statistics
	// block as the bit-exactness gate.
	RecordCompact = serve.UpdateCompact
)

// Record is one NDJSON line of the replication stream (leader →
// follower). Which fields are set depends on Type.
type Record struct {
	Type  string `json:"type"`
	Table string `json:"table"`
	// Epoch is the table's monotonic decision sequence number as of
	// this record.
	Epoch uint64 `json:"epoch"`
	// Generation is the monotonic fencing term of the leader this stream
	// comes from (snapshot and resume records). A fresh leader is term 1;
	// every promotion increments the term, so of two processes claiming
	// leadership the higher term is always the real one. A follower
	// tracks the highest term it has applied, echoes it when
	// resubscribing, and terminally rejects any stream regressing to a
	// lower term — a revived old leader is fenced out loudly, never
	// applied.
	Generation uint64 `json:"generation,omitempty"`
	// Boot identifies the publishing process instance (snapshot and
	// resume records): a random ID minted when the publisher is built,
	// unique per boot. Generation orders leaderships; Boot tells two
	// lives of the SAME term apart — a restarted leader resumes its
	// persisted term, and once its epochs re-reach a subscriber's old
	// position the (generation, epoch) pair alone would look resumable
	// even though the histories behind the two positions differ.
	// Subscribers echo the boot they applied from and the leader resumes
	// only on a three-way match; a boot mismatch costs one snapshot.
	Boot string `json:"boot,omitempty"`
	// State is the full table state (snapshot records only), in the
	// persist warm-start framing.
	State *persist.StateDoc `json:"state,omitempty"`
	// Cost is the served cost of the decision (decision records).
	Cost float64 `json:"cost,omitempty"`
	// Switched reports that the serving layout physically changed with
	// this decision; Layout then carries the new layout document.
	Switched bool               `json:"switched,omitempty"`
	Layout   *persist.LayoutDoc `json:"layout,omitempty"`
	// Stats are the leader's post-decision optimizer counters, carried
	// on snapshot and decision records so follower /stats and /healthz
	// mirror the leader's decision view.
	Stats *oreo.Stats `json:"stats,omitempty"`
	// Pending names the in-flight background reorganization target as
	// of this record ("" when none), so follower answers report the
	// same reorganizing state the leader's do.
	Pending string `json:"pending,omitempty"`
	// Rows is the appended batch (append records only), in the persist
	// columnar framing.
	Rows *persist.RowsDoc `json:"rows,omitempty"`
	// DeltaRows is the delta segment's size after this record (append
	// and compact records), a cheap coherence check for followers.
	DeltaRows int `json:"delta_rows,omitempty"`
	// Folded is the delta row count a compaction folded into the base
	// (compact records only). A follower whose local delta disagrees has
	// diverged and must fail rather than build a different base.
	Folded int `json:"folded,omitempty"`
}

// EncodeUpdate frames one applied update as its stream record: the
// leader half of the wire. bootRows matters to snapshot updates only —
// the prefix of the base the receiver's boot source reproduces; only
// the rows past it (compacted tail + delta) travel. Generation and Boot
// are the publisher's to stamp.
func EncodeUpdate(table string, upd serve.DecisionUpdate, bootRows int) (*Record, error) {
	rec := &Record{
		Type:     upd.Kind,
		Table:    table,
		Epoch:    upd.Epoch,
		Cost:     upd.Cost,
		Switched: upd.Switched,
		Stats:    &upd.Snapshot.Stats,
	}
	if upd.Snapshot.Pending != nil {
		rec.Pending = upd.Snapshot.Pending.Name
	}
	var err error
	switch upd.Kind {
	case serve.UpdateSnapshot:
		rec.DeltaRows = upd.DeltaRows
		rec.State, err = persist.CaptureStateWithData(upd.Snapshot.Serving, upd.Base, bootRows, upd.Rows)
	case serve.UpdateDecision:
		if upd.Switched {
			rec.Layout, err = persist.CaptureLayout(upd.Snapshot.Serving)
		}
	case serve.UpdateAppend:
		rec.DeltaRows = upd.DeltaRows
		rec.Rows, err = persist.CaptureRows(upd.Rows, 0, upd.Rows.NumRows())
	case serve.UpdateCompact:
		// Layout, stats and memo, but no rows; see RecordCompact.
		rec.DeltaRows, rec.Folded = upd.DeltaRows, upd.Folded
		rec.State, err = persist.CaptureState(upd.Snapshot.Serving)
	default:
		err = fmt.Errorf("unknown update kind %q", upd.Kind)
	}
	if err != nil {
		return nil, fmt.Errorf("replica: capturing %s update for %q: %w", upd.Kind, table, err)
	}
	return rec, nil
}

// DecodeRecord is EncodeUpdate's inverse: the follower half of the
// wire. boot is the follower's local copy of the table's boot source —
// the rows a snapshot does not ship and the schema every batch is
// rebuilt over. A shipped layout binds against rows only the transition
// knows (the current base for a switch, the grown one for a fold), so
// it travels on as the update's Bind. A document that does not fit the
// local rows wraps serve.ErrDiverged: retrying cannot fix it. Resume
// records carry no update.
func DecodeRecord(rec *Record, boot *oreo.Dataset) (upd serve.DecisionUpdate, err error) {
	upd = serve.DecisionUpdate{
		Kind:      rec.Type, // an update's record type is its kind
		Epoch:     rec.Epoch,
		Cost:      rec.Cost,
		Switched:  rec.Switched,
		DeltaRows: rec.DeltaRows,
		Folded:    rec.Folded,
	}
	if rec.Stats != nil {
		upd.Snapshot.Stats = *rec.Stats
	}
	if rec.Pending != "" {
		// The pending layout's partitioning is never read on the follower
		// (only its name, for reorganizing reports); a name-only stand-in
		// keeps the wire record small.
		upd.Snapshot.Pending = &oreo.Layout{Name: rec.Pending}
	}
	shipsLayout := true
	switch rec.Type {
	case RecordSnapshot:
		if rec.State == nil {
			return upd, fmt.Errorf("snapshot record for %q has no state", rec.Table)
		}
		// Reassemble the rows the snapshot describes: the local boot
		// dataset plus whatever tail and delta the leader shipped.
		if upd.Base, upd.Rows, err = rec.State.BindData(boot); err != nil {
			return upd, fmt.Errorf("%w: reassembling %q snapshot data: %v", serve.ErrDiverged, rec.Table, err)
		}
	case RecordDecision:
		shipsLayout = rec.Switched
	case RecordAppend:
		shipsLayout = false
		if rec.Rows == nil {
			return upd, fmt.Errorf("append record for %q carries no rows", rec.Table)
		}
		if upd.Rows, err = rec.Rows.Dataset(boot.Schema()); err != nil {
			return upd, fmt.Errorf("%w: rebuilding %q append batch: %v", serve.ErrDiverged, rec.Table, err)
		}
	case RecordCompact:
	default:
		return upd, fmt.Errorf("record type %q carries no update", rec.Type)
	}
	if shipsLayout {
		if rec.State == nil && rec.Layout == nil {
			return upd, fmt.Errorf("%s record for %q carries no layout", rec.Type, rec.Table)
		}
		counters := upd.Snapshot
		upd.Bind = func(ds *oreo.Dataset) (oreo.OptimizerSnapshot, error) {
			lay, err := bindLayout(rec, ds)
			snap := counters
			snap.Serving = lay
			return snap, err
		}
	}
	return upd, nil
}

// bindLayout binds the record's layout document — a full state on
// snapshot and compact records, a bare layout on a switch — against the
// rows it describes. A document whose shape does not fit (wrong table,
// schema or row count), or whose statistics block recomputed from the
// local rows does not match the leader's bit-for-bit, proves the
// follower holds different rows: serving from that state would answer
// bit-different costs, so it fails as a divergence instead.
func bindLayout(rec *Record, ds *oreo.Dataset) (lay *oreo.Layout, err error) {
	warm := true
	if rec.State != nil {
		lay, warm, err = rec.State.Bind(ds)
	} else {
		lay, err = rec.Layout.Bind(ds)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: binding %q %s layout: %v", serve.ErrDiverged, rec.Table, rec.Type, err)
	}
	if !warm {
		return nil, fmt.Errorf("%w: table %q %s statistics block mismatch (local rows differ from leader's)", serve.ErrDiverged, rec.Table, rec.Type)
	}
	return lay, nil
}

// SubscribeRequest is the body of POST /v2/replication/subscribe.
type SubscribeRequest struct {
	Version int `json:"version"`
	// Tables restricts the subscription; empty subscribes to all
	// served tables. Unknown names are a client error.
	Tables []string `json:"tables,omitempty"`
	// Generation + Boot + Positions are the resubscribe-with-resume
	// hint: the leader term the follower last applied, the boot ID of
	// the publisher it applied from (see Record.Boot), and its per-table
	// epochs. Only when term AND boot match and a table's position
	// equals the leader's does the leader answer with a resume record
	// instead of re-sending a snapshot. A request claiming a term HIGHER
	// than the leader's own is rejected outright — it proves this leader
	// has been superseded and must not feed anyone state.
	Generation uint64            `json:"generation,omitempty"`
	Boot       string            `json:"boot,omitempty"`
	Positions  map[string]uint64 `json:"positions,omitempty"`
}

// Observation is one query a follower answered and forwards upstream
// so the leader's optimizer sees edge traffic. Predicates use the
// query-log wire encoding, exactly as serving requests do.
type Observation struct {
	Table string                `json:"table"`
	ID    int                   `json:"id,omitempty"`
	Preds []serve.PredicateJSON `json:"preds"`
}

// ObserveRequest is the body of POST /v2/replication/observe: one
// batch of forwarded observations. Generation is the sender's leader
// term; a leader rejects batches fenced to an older term (a follower
// still pointed at a deposed leader's worldview) so stale observations
// never teach the optimizer, and a batch claiming a newer term tells
// this leader it has been superseded. Zero means "unfenced" for
// compatibility with direct tooling.
type ObserveRequest struct {
	Generation   uint64        `json:"generation,omitempty"`
	Observations []Observation `json:"observations"`
}

// ObserveResponse reports the batch outcome: Observed entered a
// decision queue, Dropped were sampled out by a full queue, Rejected
// failed validation (schema skew — a follower forwarding columns this
// leader does not serve).
type ObserveResponse struct {
	Observed int `json:"observed"`
	Dropped  int `json:"dropped"`
	Rejected int `json:"rejected"`
}

// predToWire converts a predicate to the query-log wire encoding.
func predToWire(p oreo.Predicate) serve.PredicateJSON {
	return serve.PredicateJSON{
		Col: p.Col, HasLo: p.HasLo, HasHi: p.HasHi,
		LoI: p.LoI, HiI: p.HiI, LoF: p.LoF, HiF: p.HiF, In: p.In,
	}
}

// predFromWire converts a wire predicate back; shape validation is the
// receiving Core's (Observe checks columns against the schema).
func predFromWire(p serve.PredicateJSON) oreo.Predicate {
	return oreo.Predicate{
		Col: p.Col, HasLo: p.HasLo, HasHi: p.HasHi,
		LoI: p.LoI, HiI: p.HiI, LoF: p.LoF, HiF: p.HiF, In: p.In,
	}
}
