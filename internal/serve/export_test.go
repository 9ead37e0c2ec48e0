package serve

import (
	"context"

	"oreo"
	"oreo/internal/exec"
	"oreo/internal/metrics"
	"oreo/internal/table"
)

// StepTable drives one shard with no goroutines: the leader's event
// handlers and the replica's apply path are called synchronously, so
// the differential step test (package serve_test, which may import
// internal/replica for the Record codec where this package cannot)
// observes every intermediate state.
type StepTable struct {
	s       *shard
	emitted []DecisionUpdate // what the decision hook saw since the last Drain
}

func wrapStep(s *shard) *StepTable {
	t := &StepTable{s: s}
	hook := func(_ string, upd DecisionUpdate) { t.emitted = append(t.emitted, upd) }
	s.onDecision.Store(&hook)
	return t
}

// NewStepLeader mirrors newShard, minus the consumer goroutine.
func NewStepLeader(ds *oreo.Dataset, opt *oreo.Optimizer, compactThreshold int) *StepTable {
	s := &shard{table: "t", ds: ds, scanPar: 1}
	s.rep.Store(&repState{snap: opt.Snapshot(), ds: ds, tail: table.NewBuilder(ds.Schema(), 0)})
	s.registerMetrics(metrics.NewRegistry())
	s.lead(opt, oreo.Stats{}, Config{QueueSize: 1, CompactThreshold: compactThreshold})
	return wrapStep(s)
}

// NewStepReplica is an unseeded replica shard.
func NewStepReplica(ds *oreo.Dataset) *StepTable {
	return wrapStep(newReplicaShard("t", ds, nil, 1, metrics.NewRegistry()))
}

func (t *StepTable) Observe(q oreo.Query) { t.s.handleObserve(q) }

func (t *StepTable) Append(rows *oreo.Dataset) error { return t.s.handleAppend(rows).err }

func (t *StepTable) Compact() error { return t.s.handleCompact().err }

// Apply is Core.Apply's tail: the replica write path.
func (t *StepTable) Apply(upd DecisionUpdate) (bool, error) {
	_, applied, err := t.s.advance(upd)
	return applied, err
}

// Promote runs both halves of a promotion, minus the consumer start.
func (t *StepTable) Promote(cfg oreo.Config, compactThreshold int) error {
	opt, err := t.s.promotionEngine(cfg)
	if err != nil {
		return err
	}
	st := t.s.rep.Load()
	t.s.lead(opt, st.snap.Stats, Config{QueueSize: 1, CompactThreshold: compactThreshold})
	return nil
}

// Drain returns and clears the updates emitted since the last call.
func (t *StepTable) Drain() []DecisionUpdate {
	out := t.emitted
	t.emitted = nil
	return out
}

// Position is Core.ReplicaPosition for the one table.
func (t *StepTable) Position() Position {
	st := t.s.rep.Load()
	return Position{Epoch: st.epoch, Snapshot: st.snap, Dataset: st.ds, Delta: st.delta, SeedRows: t.s.ds.NumRows()}
}

// Probe answers q on the read path, executed with a row count so the
// lockstep execution store is exercised too.
func (t *StepTable) Probe(q oreo.Query) (TableResult, error) {
	return t.s.answer(context.Background(), q, true, []exec.AggSpec{{Op: exec.AggCount}})
}
