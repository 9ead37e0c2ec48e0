package replica

import (
	"errors"
	"fmt"

	"oreo/internal/serve"
)

// Promote turns a serving follower into the fleet's new leader — the
// failover hand-off. The follower already holds everything a leader
// needs via the stream: the serving layout, the optimizer's cumulative
// counters, the grown base, and the uncompacted delta, all proven
// bit-identical to the old leader's at its applied epoch. Promotion is
// therefore local: detach the replication loop (nothing may write the
// replicated state while ownership changes), flip the core to leader
// role (serve.Core.Promote rebuilds a decision engine per table from
// the applied state), and attach a fresh Publisher one fencing term
// above the highest term the follower applied — so the moment the new
// leader speaks, every correct follower adopts the higher term and the
// old leader, should it revive, is rejected on sight by both the
// subscribe and observe paths.
//
// cfg.Tables must name every replicated table; PublisherConfig's
// Generation is overridden with the incremented term. The adopted term
// must outlive this process, and it does wherever the new leader's
// stream is archived: snapshot records carry it, and Recover restarts
// at the archived term — pubCfg.ArchiveDir names the directory the new
// publisher archives into (oreoserve -archive passes its own). On
// error the follower's replication loop is already stopped (promotion
// is a one-way door — the caller decides whether to rebuild a follower
// or retry), but the core's serving surface is unchanged.
func Promote(f *Follower, cfg serve.PromoteConfig, pubCfg PublisherConfig) (*Publisher, error) {
	f.Detach()
	return lead(f.Core(), f.Generation()+1, cfg, pubCfg)
}

// lead flips a replica core nothing writes anymore to leader role and
// attaches its publisher at the given fencing term.
func lead(core *serve.Core, term uint64, cfg serve.PromoteConfig, pubCfg PublisherConfig) (*Publisher, error) {
	if err := core.Promote(cfg); err != nil {
		return nil, fmt.Errorf("replica: promoting follower core: %w", err)
	}
	pubCfg.Generation = term
	pub, err := NewPublisher(core, pubCfg)
	if err != nil {
		return nil, fmt.Errorf("replica: attaching publisher to promoted leader: %w", err)
	}
	return pub, nil
}

// ErrNoArchive is Recover's answer when dir is unset, missing or holds
// no snapshot of any served table: there is nothing to come back from,
// and the caller boots cold.
var ErrNoArchive = errors.New("replica: no archive to recover from")

// Recover is how a leader comes back: a restart is a promotion whose
// stream was read from disk. It builds a replica core over tables (each
// table's boot source, as for NewFollower), replays the archive in dir
// through the path a bootstrapping follower takes — every record passes
// the same fencing, epoch and divergence checks — then promotes the core
// and attaches a Publisher at the archived term, not the next one: a
// restart is not a new claim to leadership (the fresh boot ID already
// tells the two lives apart, and costs each subscriber one snapshot),
// and a deposed leader reviving from its own archive must stay fenced
// by everyone who moved past it.
//
// The recovered leader stands at the archive's tail: every epoch,
// counter and appended row its predecessor acknowledged, since a
// publisher archives each update before its ack. Its own publisher
// archives on into dir, in a new segment that opens with fresh
// snapshots. On any error nothing is left running and no core is
// returned; cfg is Promote's, pubCfg's Generation and ArchiveDir are
// overridden.
func Recover(dir string, tables []TableData, scanParallelism int, cfg serve.PromoteConfig, pubCfg PublisherConfig) (*serve.Core, *Publisher, error) {
	f, err := newFollower(FollowerConfig{
		Tables:          tables,
		ScanParallelism: scanParallelism,
		ArchiveDir:      dir,
		ForwardQueue:    -1, // a leader has no upstream to forward to
		Logf:            pubCfg.Logf,
	})
	if err != nil {
		return nil, nil, err
	}
	f.Detach() // no loop ever ran; this only releases the follower's context
	if len(f.positions()) == 0 {
		f.Close()
		return nil, nil, ErrNoArchive
	}
	pubCfg.ArchiveDir = dir
	pub, err := lead(f.Core(), f.Generation(), cfg, pubCfg)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return f.Core(), pub, nil
}
