package replica

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Archiver is the other kind of replication subscriber (beside serving
// followers): it subscribes to a leader's decision stream and persists
// every record to disk, verbatim, as NDJSON segment files. The archive
// is a durable copy of the stream itself — snapshot, decision, append,
// and compact records in arrival order — which buys three things:
//
//   - A leader restarts from it: Recover replays the archive into a
//     replica core and promotes that, so a process that archives its own
//     stream comes back at the archive's tail epoch, rows and fencing
//     term; what the archiver had not yet written when it died is lost.
//   - New followers bootstrap from it: FollowerConfig.ArchiveDir
//     replays the archive through the normal apply path, so a fresh
//     follower reaches the archive's tail epoch entirely offline and
//     its first subscription resumes from there instead of forcing the
//     leader to cut and ship a full snapshot per new replica.
//   - Point-in-time replay: ReplayArchiveUpTo rebuilds the fleet's
//     exact state at any archived epoch, for debugging — the stream is
//     deterministic, so the replayed state is bit-identical to what
//     the fleet served at that epoch.
//
// # Segment format
//
// A segment is a plain NDJSON file named segment-NNNNNNNN.ndjson; each
// line is one stream Record exactly as the leader sent it (the
// archiver never re-encodes). The archiver starts one new segment per
// subscription session, numbered above every existing segment, so an
// archive directory is an append-only sequence of sessions and replay
// order is lexical file order. A crash can truncate only the final
// line of the newest segment; replay detects and skips exactly that
// (an unparseable line with nothing after it), while garbage earlier
// in a segment still fails loudly. A snapshot record replaces its
// table's whole state, so replay starts each table at its newest
// snapshot and never opens the segments before it (replayLive): a
// restarted leader's session opens with fresh snapshots, which keeps
// a restart proportional to what happened since the last one.
//
// On (re)start the archiver replays the same live records to recover
// its positions and fencing term, and resubscribes with them — when
// nothing was missed the leader answers with a cheap resume record and
// the archive continues seamlessly across archiver restarts.
type Archiver struct {
	cfg  ArchiverConfig
	hc   *http.Client
	logf func(format string, args ...any)

	mu        sync.Mutex
	gen       uint64
	boot      string
	positions map[string]uint64

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	stats struct {
		records, segments, reconnects, resumes atomicUint64
	}
}

// ArchiverConfig parameterizes an Archiver.
type ArchiverConfig struct {
	// Upstream is the leader's base URL.
	Upstream string
	// Dir is the archive directory; created if missing.
	Dir string
	// Tables restricts the subscription; empty archives every table the
	// leader serves.
	Tables []string
	// HTTPClient substitutes the transport; the default is a dedicated
	// client with no global timeout (the stream is long-lived).
	HTTPClient *http.Client
	// ReconnectMin/Max bound the backoff between subscription attempts;
	// zeros select the follower defaults.
	ReconnectMin time.Duration
	ReconnectMax time.Duration
	// Logf receives operational messages; nil selects log.Printf.
	Logf func(format string, args ...any)
}

// ArchiverStats is a point-in-time view of the archiver's counters.
type ArchiverStats struct {
	// Records is stream records written this run; Segments is segment
	// files started this run; Reconnects counts subscription attempts
	// after the first; Resumes counts cheap resume acknowledgements.
	Records    uint64
	Segments   uint64
	Reconnects uint64
	Resumes    uint64
}

// archiveSyncEvery is how many archived records may accumulate between
// segment fsyncs: small enough that a power loss costs at most a
// moment of stream tail, large enough that syncing never paces a bulk
// replay.
const archiveSyncEvery = 256

// recordMeta is the cheap projection of a stream record that position
// recovery and archival bookkeeping decode — skipping State and Rows,
// which dominate snapshot and append record sizes.
type recordMeta struct {
	Type       string `json:"type"`
	Table      string `json:"table"`
	Epoch      uint64 `json:"epoch"`
	Generation uint64 `json:"generation"`
	Boot       string `json:"boot"`
}

// NewArchiver builds an archiver and starts its subscription loop. The
// directory is created if missing; existing segments are scanned to
// recover the resume position.
func NewArchiver(cfg ArchiverConfig) (*Archiver, error) {
	if cfg.Upstream == "" {
		return nil, fmt.Errorf("replica: archiver needs an upstream URL")
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("replica: archiver needs a directory")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("replica: creating archive directory: %w", err)
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = &http.Client{}
	}
	if cfg.ReconnectMin <= 0 {
		cfg.ReconnectMin = DefaultReconnectMin
	}
	if cfg.ReconnectMax <= 0 {
		cfg.ReconnectMax = DefaultReconnectMax
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	cfg.Upstream = strings.TrimRight(cfg.Upstream, "/")

	a := &Archiver{
		cfg:       cfg,
		hc:        cfg.HTTPClient,
		logf:      cfg.Logf,
		positions: make(map[string]uint64),
	}
	if err := a.recover(); err != nil {
		return nil, err
	}
	a.ctx, a.cancel = context.WithCancel(context.Background())
	a.wg.Add(1)
	go a.run()
	return a, nil
}

// Close stops the subscription loop and waits for the current segment
// to be written out and fsynced, so a clean Close never loses an
// acknowledged record. Between the periodic syncs of a live session an
// OS crash or power loss can still drop the unsynced tail; recovery
// then sees only what reached the disk, so the recovered positions are
// always consistent with the archive's durable contents and the next
// subscription simply re-fetches what was lost.
func (a *Archiver) Close() {
	a.cancel()
	a.wg.Wait()
}

// Stats returns the archiver's counters for this run.
func (a *Archiver) Stats() ArchiverStats {
	return ArchiverStats{
		Records:    a.stats.records.Load(),
		Segments:   a.stats.segments.Load(),
		Reconnects: a.stats.reconnects.Load(),
		Resumes:    a.stats.resumes.Load(),
	}
}

// Position returns the newest archived epoch for the table.
func (a *Archiver) Position(table string) uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.positions[table]
}

// Generation returns the highest fencing term seen in the archive.
func (a *Archiver) Generation() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.gen
}

// segments lists the archive's segment files in replay (lexical)
// order. A directory nobody has created yet is an archive with none.
func segments(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("reading archive directory: %w", err)
	}
	var segs []string
	for _, e := range ents {
		name := e.Name()
		if !e.IsDir() && strings.HasPrefix(name, "segment-") && strings.HasSuffix(name, ".ndjson") {
			segs = append(segs, filepath.Join(dir, name))
		}
	}
	sort.Strings(segs)
	return segs, nil
}

// recover replays the archive's live record headers and rebuilds the
// per-table positions and fencing term, so a restarted archiver resumes
// instead of re-snapshotting.
func (a *Archiver) recover() error {
	n, err := replayLive(a.cfg.Dir, 0, a.cfg.Tables,
		func(m *recordMeta) (string, uint64) { return m.Table, m.Epoch },
		func(m *recordMeta) error { a.note(m); return nil })
	if err != nil {
		return err
	}
	if n > 0 {
		a.logf("replica: archive %s: recovered positions %v at generation %d from %d live records",
			a.cfg.Dir, a.positions, a.gen, n)
	}
	return nil
}

// note folds one record header into the recovered positions. A
// snapshot resets the table's position (it may regress after a leader
// restart); everything else advances it monotonically.
func (a *Archiver) note(m *recordMeta) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if m.Table != "" {
		if m.Type == RecordSnapshot {
			a.positions[m.Table] = m.Epoch
		} else if m.Epoch > a.positions[m.Table] {
			a.positions[m.Table] = m.Epoch
		}
	}
	if m.Generation > a.gen {
		a.gen = m.Generation
	}
	if m.Boot != "" {
		a.boot = m.Boot
	}
}

// run is the subscription loop: subscribe, archive until the stream
// breaks, back off, repeat. Unlike a serving follower nothing here is
// terminal — an archiver pointed at a deposed leader archives nothing
// new once the real leader fences it, and repointing it is an
// operator action; meanwhile retrying is harmless because the archive
// only ever appends records the leader actually sent.
func (a *Archiver) run() {
	defer a.wg.Done()
	never := func(error) bool { return false }
	_ = retrySessions(a.ctx, a.cfg.ReconnectMin, a.cfg.ReconnectMax, &a.stats.reconnects, a.subscribeOnce, never,
		func(err error, backoff time.Duration) {
			if err != nil {
				a.logf("replica: archiver stream from %s ended: %v (retrying in %v)", a.cfg.Upstream, err, backoff)
			}
		})
}

// subscribeOnce opens one subscription session and archives its
// records into one fresh segment (created lazily on the first record,
// so failed connects do not litter the directory with empty files).
func (a *Archiver) subscribeOnce() (archived int, err error) {
	a.mu.Lock()
	req := SubscribeRequest{
		Version:    ProtocolVersion,
		Tables:     append([]string(nil), a.cfg.Tables...),
		Generation: a.gen,
		Boot:       a.boot,
		Positions:  make(map[string]uint64, len(a.positions)),
	}
	for t, e := range a.positions {
		req.Positions[t] = e
	}
	a.mu.Unlock()

	var seg *os.File
	written := 0
	defer func() {
		if seg != nil {
			// Fsync before close: the session's tail must be durable by
			// the time Close (which joins this loop) returns.
			seg.Sync()
			seg.Close()
		}
	}()
	return subscribeSession(a.ctx, a.hc, a.cfg.Upstream, &req, func(line []byte) error {
		var m recordMeta
		if err := json.Unmarshal(line, &m); err != nil {
			return fmt.Errorf("decoding stream record: %w", err)
		}
		if seg == nil {
			if seg, err = a.newSegment(); err != nil {
				return err
			}
		}
		if _, err := seg.Write(append(line, '\n')); err != nil {
			return fmt.Errorf("writing archive segment: %w", err)
		}
		a.note(&m)
		a.stats.records.Add(1)
		if m.Type == RecordResume {
			a.stats.resumes.Add(1)
		}
		// Periodic fsync bounds how much a power loss can take with it;
		// a torn or missing tail is exactly what recovery tolerates.
		if written++; written%archiveSyncEvery == 0 {
			if err := seg.Sync(); err != nil {
				return fmt.Errorf("syncing archive segment: %w", err)
			}
		}
		return nil
	})
}

// newSegment creates the next segment file, numbered above everything
// already in the directory.
func (a *Archiver) newSegment() (*os.File, error) {
	segs, err := segments(a.cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("replica: %w", err)
	}
	next := 1
	if len(segs) > 0 {
		last := filepath.Base(segs[len(segs)-1])
		var n int
		if _, err := fmt.Sscanf(last, "segment-%d.ndjson", &n); err == nil {
			next = n + 1
		}
	}
	path := filepath.Join(a.cfg.Dir, fmt.Sprintf("segment-%08d.ndjson", next))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("replica: creating archive segment: %w", err)
	}
	a.stats.segments.Add(1)
	a.logf("replica: archiving to %s", path)
	return f, nil
}

// scanSegment streams one segment's lines through fn. A final line
// that fn rejects AND that nothing follows is treated as a
// crash-truncated tail and skipped silently; a rejected line with more
// data after it is real corruption and fails.
func scanSegment(path string, fn func(line []byte) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), maxStreamLine)
	var lastErr error
	for sc.Scan() {
		if lastErr != nil {
			return fmt.Errorf("line before segment end: %w", lastErr)
		}
		if line := sc.Bytes(); len(line) > 0 {
			lastErr = fn(line)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	// A very last line that failed to decode is a torn write from a crash
	// mid-append: everything before it is intact, so the archive remains
	// usable. The callback's own failure on it is a real apply error.
	if abort := (*replayAbort)(nil); errors.As(lastErr, &abort) {
		return lastErr
	}
	return nil
}

// ReplayArchive streams the archive's live records, in order, through
// fn — the replay a bootstrapping follower or a restarting leader
// performs. It returns the number of records delivered. fn errors abort
// the replay.
func ReplayArchive(dir string, fn func(*Record) error) (int, error) {
	return ReplayArchiveUpTo(dir, 0, fn)
}

// ReplayArchiveUpTo is ReplayArchive bounded to a point in time:
// records with an epoch above maxEpoch are skipped (0 means
// unbounded). Because every table's records carry that table's own
// monotonic epoch, replaying up to E rebuilds exactly the state the
// fleet served when each table was at min(E, its tail) — the
// debugging time machine the archive exists for.
func ReplayArchiveUpTo(dir string, maxEpoch uint64, fn func(*Record) error) (int, error) {
	return replayLive(dir, maxEpoch, nil, recordHeader, fn)
}

func recordHeader(rec *Record) (table string, epoch uint64) { return rec.Table, rec.Epoch }

// archivePos locates an archived line: its segment's index in replay
// order, then the 1-based count of non-empty lines within it.
type archivePos struct{ seg, line int }

// snapshotMark is how the publisher's encoder spells a snapshot
// record's type. replayLive uses it only to choose the lines worth
// decoding on its way back: a snapshot spelled any other way is passed
// over and replay starts from an older one — longer, never wrong.
var snapshotMark = []byte(`"type":"snapshot"`)

// replayLive delivers the archive's live records to fn, in replay
// order, each decoded into a T whose table and epoch header reads. A
// first pass walks the segments newest first for every table's newest
// snapshot (with maxEpoch set, the newest at or below it) and stops at
// the segment where each of tables has one; with none named, or one
// the archive never snapshotted, it reaches the first segment. The
// second pass decodes from that segment on and skips what lies above
// maxEpoch (0 means unbounded) or before its own table's snapshot:
// what a later snapshot supersedes is never applied, and the segments
// before the walk's end are never opened.
func replayLive[T any](dir string, maxEpoch uint64, tables []string, header func(*T) (string, uint64), fn func(*T) error) (int, error) {
	segs, err := segments(dir)
	if err != nil {
		return 0, fmt.Errorf("replica: %w", err)
	}
	starts := make(map[string]archivePos)
	first := len(segs)
	for missing := true; missing && first > 0; {
		first--
		line := 0
		err := scanSegment(segs[first], func(b []byte) error {
			line++
			var m recordMeta
			if bytes.Contains(b, snapshotMark) && json.Unmarshal(b, &m) == nil &&
				m.Type == RecordSnapshot && (maxEpoch == 0 || m.Epoch <= maxEpoch) {
				// Later in this segment is newer; a newer segment's stays.
				if at, ok := starts[m.Table]; !ok || at.seg == first {
					starts[m.Table] = archivePos{first, line}
				}
			}
			return nil // a line that does not decode is the second pass's to judge
		})
		if err != nil {
			return 0, fmt.Errorf("replica: scanning archive segment %s: %w", segs[first], err)
		}
		missing = len(tables) == 0
		for _, t := range tables {
			if _, ok := starts[t]; !ok {
				missing = true
			}
		}
	}
	n := 0
	for i := first; i < len(segs); i++ {
		line := 0
		err := scanSegment(segs[i], func(b []byte) error {
			line++
			var rec T
			if err := json.Unmarshal(b, &rec); err != nil {
				return err
			}
			table, epoch := header(&rec)
			at, ok := starts[table]
			if ok && (i < at.seg || i == at.seg && line < at.line) || maxEpoch != 0 && epoch > maxEpoch {
				return nil
			}
			if err := fn(&rec); err != nil {
				// fn errors must abort, not be mistaken for a torn tail:
				// wrap distinctively and unwrap below.
				return &replayAbort{err}
			}
			n++
			return nil
		})
		if err != nil {
			var abort *replayAbort
			if errors.As(err, &abort) {
				return n, abort.err
			}
			return n, fmt.Errorf("replica: replaying archive segment %s: %w", segs[i], err)
		}
	}
	return n, nil
}

// replayAbort distinguishes a replay callback's own error from a
// decode failure, so scanSegment's torn-tail tolerance never swallows
// an apply failure on the archive's last line.
type replayAbort struct{ err error }

func (a *replayAbort) Error() string { return a.err.Error() }
func (a *replayAbort) Unwrap() error { return a.err }
