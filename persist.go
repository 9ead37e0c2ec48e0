package oreo

import (
	"io"

	"oreo/internal/persist"
)

// SaveLayout serializes a layout (name + row→partition assignment) to
// w in a versioned JSON format. Partition metadata is not written: it
// is recomputed from the dataset at load time, so a stale or corrupted
// file can never cause unsound partition skipping.
func SaveLayout(w io.Writer, l *Layout) error { return persist.SaveLayout(w, l) }

// LoadLayout reads a layout written by SaveLayout and rebinds it to the
// dataset (which must match the saved schema and row count), rebuilding
// all partition metadata. The result can be passed as Config.Initial so
// a restarted process resumes from the layout it had converged to.
func LoadLayout(r io.Reader, ds *Dataset) (*Layout, error) { return persist.LoadLayout(r, ds) }

// SaveStateWithData writes a warm-start snapshot of the layout — the
// assignment (as SaveLayout), the column-major statistics block, and
// the layout's cost memo — that also carries the rows the boot source
// cannot reproduce: the tail of base beyond the first bootRows rows
// (appended batches a compaction folded in) and the uncompacted delta
// segment (nil or empty for none). It is the document a replication
// snapshot record carries. A table that never took a live write gets
// no data section, readable by older builds.
func SaveStateWithData(w io.Writer, l *Layout, base *Dataset, bootRows int, delta *Dataset) error {
	return persist.SaveStateWithData(w, l, base, bootRows, delta)
}

// LoadStateWithData reads a snapshot written by SaveStateWithData and
// reassembles the full serving state against the boot dataset: base is
// boot plus the saved tail (the dataset the returned layout covers —
// pass it, not boot, as the table's dataset), delta is the saved delta
// segment to replay through the live write path (nil when none), and
// warm reports whether the cost memo survived the statistics gate.
// Partition metadata is always recomputed from the rows (persisted
// state never feeds partition skipping); the memo is installed only
// when the saved statistics block matches the recomputed one
// bit-for-bit. A file without a data section loads with base == boot
// and a nil delta.
func LoadStateWithData(r io.Reader, boot *Dataset) (l *Layout, warm bool, base, delta *Dataset, err error) {
	return persist.LoadStateWithData(r, boot)
}
