package table

import (
	"math"

	"oreo/internal/bloom"
)

// MaxTrackedDistinct bounds the size of the distinct-value set kept for a
// categorical column in partition metadata. Real systems (Parquet, Delta,
// Snowflake micro-partitions) bound this too; once a partition holds more
// distinct values than the bound, the exact set is replaced by a Bloom
// filter (plus the min/max string range), so skipping degrades to a small
// false-positive rate rather than to range-only pruning, and metadata
// stays bounded.
const MaxTrackedDistinct = 64

// Bloom filter geometry for overflowed distinct sets: 1024 bits / 4
// hashes keeps the false-positive rate around 2% for the value counts a
// single partition sees, at 128 bytes per overflowed column.
const (
	bloomBits   = 1024
	bloomHashes = 4
)

// ColumnStats is the per-column slice of a partition's metadata.
//
// For numeric columns only the [Min*, Max*] range is kept. For string
// columns the range is kept, plus the exact distinct set while it stays
// below MaxTrackedDistinct (Distinct == nil means "overflowed; unknown").
type ColumnStats struct {
	Type ColType

	MinI, MaxI int64
	MinF, MaxF float64
	MinS, MaxS string

	// Distinct is the exact set of values observed, or nil if the set
	// overflowed MaxTrackedDistinct. Only populated for String columns.
	Distinct map[string]struct{}

	// Bloom approximates the distinct set after overflow (nil until the
	// exact set overflows). Membership tests on it are sound: false
	// positives only.
	Bloom *bloom.Filter

	// seen tracks whether any row has been folded in yet.
	seen bool
}

// newColumnStats returns empty stats for a column type.
func newColumnStats(t ColType) ColumnStats {
	cs := ColumnStats{Type: t}
	switch t {
	case Int64:
		cs.MinI, cs.MaxI = math.MaxInt64, math.MinInt64
	case Float64:
		cs.MinF, cs.MaxF = math.Inf(1), math.Inf(-1)
	case String:
		cs.Distinct = make(map[string]struct{})
	}
	return cs
}

// Empty reports whether no rows have been folded into the stats.
func (cs *ColumnStats) Empty() bool { return !cs.seen }

// AddInt folds an int64 observation into the stats.
func (cs *ColumnStats) AddInt(v int64) {
	cs.seen = true
	if v < cs.MinI {
		cs.MinI = v
	}
	if v > cs.MaxI {
		cs.MaxI = v
	}
}

// AddFloat folds a float64 observation into the stats.
func (cs *ColumnStats) AddFloat(v float64) {
	cs.seen = true
	if v < cs.MinF {
		cs.MinF = v
	}
	if v > cs.MaxF {
		cs.MaxF = v
	}
}

// AddString folds a string observation into the stats.
func (cs *ColumnStats) AddString(v string) {
	if !cs.seen {
		cs.seen = true
		cs.MinS, cs.MaxS = v, v
	} else {
		if v < cs.MinS {
			cs.MinS = v
		}
		if v > cs.MaxS {
			cs.MaxS = v
		}
	}
	switch {
	case cs.Distinct != nil:
		cs.Distinct[v] = struct{}{}
		if len(cs.Distinct) > MaxTrackedDistinct {
			// Overflow: migrate the exact set into a Bloom filter.
			cs.Bloom = bloom.New(bloomBits, bloomHashes)
			for val := range cs.Distinct {
				cs.Bloom.Add(val)
			}
			cs.Distinct = nil
		}
	case cs.Bloom != nil:
		cs.Bloom.Add(v)
	}
}

// ContainsString reports whether the partition may contain the value v,
// judged from metadata alone. With an exact distinct set this is precise;
// after overflow it is conservative (Bloom false positives and the
// min/max range may admit absent values, but present values are never
// ruled out).
func (cs *ColumnStats) ContainsString(v string) bool {
	if !cs.seen {
		return false
	}
	if cs.Distinct != nil {
		_, ok := cs.Distinct[v]
		return ok
	}
	if v < cs.MinS || v > cs.MaxS {
		return false
	}
	if cs.Bloom != nil {
		return cs.Bloom.MayContain(v)
	}
	return true
}

// PartitionMeta summarizes one partition: its identity, row count, and
// per-column statistics in schema order. This is the only information
// the query layer may consult when deciding whether a partition can be
// skipped; the paper's cost estimation works exclusively from it.
type PartitionMeta struct {
	ID      int
	NumRows int
	Stats   []ColumnStats
}

// NewPartitionMeta returns empty metadata for a partition of the schema.
func NewPartitionMeta(id int, schema *Schema) *PartitionMeta {
	m := &PartitionMeta{ID: id, Stats: make([]ColumnStats, schema.NumCols())}
	for i := 0; i < schema.NumCols(); i++ {
		m.Stats[i] = newColumnStats(schema.Col(i).Type)
	}
	return m
}

// AddRow folds row r of dataset d into the metadata. Folding every row
// of a partition in ascending order is the definition of its metadata;
// BuildPartitioning computes the same thing one column at a time and is
// property-tested field for field against this fold.
func (m *PartitionMeta) AddRow(d *Dataset, r int) {
	m.NumRows++
	for c := 0; c < d.Schema().NumCols(); c++ {
		switch d.Schema().Col(c).Type {
		case Int64:
			m.Stats[c].AddInt(d.Int64At(c, r))
		case Float64:
			m.Stats[c].AddFloat(d.Float64At(c, r))
		case String:
			m.Stats[c].AddString(d.StringAt(c, r))
		}
	}
}
