package replica

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// The archive is a leader's own decision stream on disk, written by its
// Publisher: every record the leader publishes — snapshot, decision,
// append, compact — is appended to the current segment, verbatim, inside
// the decision hook, which the serve shard runs after it publishes a
// state and before it acknowledges the append or compaction that made
// it. So an acknowledged update is in the archive by construction: a
// write that has returned survives kill -9 in the page cache, and only an
// OS crash can take the un-fsynced tail (at most archiveSyncEvery
// records). The archive buys two things:
//
//   - A leader restarts from it: Recover replays the archive into a
//     replica core and promotes that, so the process comes back at the
//     archive's tail epoch, rows and fencing term, and archives on into
//     the same directory.
//   - New followers bootstrap from it: FollowerConfig.ArchiveDir
//     replays the archive through the normal apply path, so a fresh
//     follower reaches the archive's tail epoch entirely offline.
//
// # Segment format
//
// A segment is a plain NDJSON file named segment-NNNNNNNN.ndjson; each
// line is one stream Record exactly as subscribers receive it. A
// publisher opens one new segment per lifetime, numbered above every
// existing segment, and starts it with a snapshot of every table, so an
// archive directory is an append-only sequence of sessions and replay
// order is lexical file order. A crash can truncate only the final line
// of the newest segment; replay detects and skips exactly that (an
// unparseable line with nothing after it), while garbage earlier in a
// segment still fails loudly. A snapshot record replaces its table's
// whole state, so replay starts each table at its newest snapshot and
// never opens the segments before it (replayLive): a restarted leader's
// session opens with fresh snapshots, which keeps a restart proportional
// to what happened since the last one.

// archiveSyncEvery is how many archived records may accumulate between
// segment fsyncs: small enough that a power loss costs at most a
// moment of stream tail, large enough that syncing never paces a bulk
// write.
const archiveSyncEvery = 256

// recordMeta is the cheap projection of a stream record replay's
// snapshot walk decodes — skipping State and Rows, which dominate
// snapshot and append record sizes.
type recordMeta struct {
	Type  string `json:"type"`
	Table string `json:"table"`
	Epoch uint64 `json:"epoch"`
}

// archiveWriter appends a publisher's records to its archive directory.
// Its lock orders every table's records into the one segment, and is
// held while a segment's opening snapshots are cut: a record the hook
// writes after them is either past a snapshot's epoch (the next one) or
// at or below it, which replay skips as overlap.
type archiveWriter struct {
	dir string
	// snapshots encodes every served table's current state as snapshot
	// records: the opening of each segment.
	snapshots func() ([][]byte, error)
	logf      func(format string, args ...any)

	mu       sync.Mutex
	seg      *os.File // nil before the first record and after a failure
	unsynced int
	closed   bool
}

// write appends one encoded record (nil appends none), first opening a
// fresh segment headed by every table's snapshot when none is open. On
// failure the segment is abandoned: the next record opens a fresh one,
// whose snapshots cover whatever this one lost.
func (w *archiveWriter) write(line []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errors.New("archive closed")
	}
	err := w.writeLocked(line)
	if err != nil {
		w.abandonLocked()
	}
	return err
}

func (w *archiveWriter) writeLocked(line []byte) error {
	if w.seg == nil {
		snaps, err := w.snapshots()
		if err != nil {
			return err
		}
		if w.seg, err = newSegment(w.dir); err != nil {
			return err
		}
		w.logf("replica: archiving to %s", w.seg.Name())
		for _, s := range snaps {
			if err := w.appendLocked(s); err != nil {
				return err
			}
		}
	}
	if line == nil {
		return nil
	}
	return w.appendLocked(line)
}

// appendLocked writes one line with one write(2) — line's spare capacity
// takes the newline, so callers pass a slice nothing reads past its
// length — and fsyncs every archiveSyncEvery lines.
func (w *archiveWriter) appendLocked(line []byte) error {
	if _, err := w.seg.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("writing archive segment: %w", err)
	}
	if w.unsynced++; w.unsynced >= archiveSyncEvery {
		w.unsynced = 0
		if err := w.seg.Sync(); err != nil {
			return fmt.Errorf("syncing archive segment: %w", err)
		}
	}
	return nil
}

// abandon closes the current segment without writing to it again: a
// record that could not be encoded must not leave a hole inside one.
func (w *archiveWriter) abandon() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.abandonLocked()
}

func (w *archiveWriter) abandonLocked() {
	if w.seg != nil {
		w.seg.Close()
		w.seg = nil
	}
}

// close fsyncs and closes the current segment; nothing is written after.
func (w *archiveWriter) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.closed = true
	if w.seg == nil {
		return nil
	}
	err := w.seg.Sync()
	if cerr := w.seg.Close(); err == nil {
		err = cerr
	}
	w.seg = nil
	return err
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

// newSegment creates the directory if missing and the next segment
// file in it, numbered above everything already there.
func newSegment(dir string) (*os.File, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("creating archive directory: %w", err)
	}
	segs, err := segments(dir)
	if err != nil {
		return nil, err
	}
	next := 1
	if len(segs) > 0 {
		last := filepath.Base(segs[len(segs)-1])
		var n int
		if _, err := fmt.Sscanf(last, "segment-%d.ndjson", &n); err == nil {
			next = n + 1
		}
	}
	path := filepath.Join(dir, fmt.Sprintf("segment-%08d.ndjson", next))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("creating archive segment: %w", err)
	}
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

// archivePos locates an archived line: its segment's index in replay
// order, then the 1-based count of non-empty lines within it.
type archivePos struct{ seg, line int }

// snapshotMark is how the publisher's encoder spells a snapshot
// record's type. replayLive uses it only to choose the lines worth
// decoding on its way back: a snapshot spelled any other way is passed
// over and replay starts from an older one — longer, never wrong.
var snapshotMark = []byte(`"type":"snapshot"`)

// replayLive delivers the archive's live records to fn, in replay
// order. A first pass walks the segments newest first for every
// table's newest snapshot (with maxEpoch set, the newest at or below
// it) and stops at the segment where each of tables has one; with none
// named, or one the archive never snapshotted, it reaches the first
// segment. The second pass decodes from that segment on and skips what
// lies above maxEpoch (0 means unbounded) or before its own table's
// snapshot: what a later snapshot supersedes is never applied, and the
// segments before the walk's end are never opened. It returns the
// number of records delivered; an error from fn aborts the replay.
func replayLive(dir string, maxEpoch uint64, tables []string, fn func(*Record) error) (int, error) {
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
			var rec Record
			if err := json.Unmarshal(b, &rec); err != nil {
				return err
			}
			at, ok := starts[rec.Table]
			if ok && (i < at.seg || i == at.seg && line < at.line) || maxEpoch != 0 && rec.Epoch > maxEpoch {
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
