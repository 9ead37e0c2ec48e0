// Package storage simulates the I/O substrate the paper measures on:
// Spark stand-alone over Parquet files on a local disk. The paper
// reduces that substrate to two scalar costs — the wall-clock time of a
// full-scan query and of a reorganization pass — and to their ratio α,
// which is the only storage-derived quantity the OREO algorithms
// consume. This package models those times from first-principles
// components (job startup, sequential read/write bandwidth, decompress/
// compress CPU throughput, shuffle, and a memory-pressure penalty for
// scans larger than the executor working set), with defaults calibrated
// so the simulated α lands in the paper's measured 60×–100× band
// (Table I), including the characteristic dip at very large files where
// the scan itself starts spilling.
package storage

// DiskModel converts logical byte volumes into seconds. All throughput
// fields are MB/s; all fixed costs are seconds. The zero value is not
// useful; start from DefaultDiskModel.
type DiskModel struct {
	// QueryStartup is the fixed per-query job overhead (scheduling,
	// planning, task launch).
	QueryStartup float64
	// ReorgStartup is the fixed per-reorganization overhead (job launch
	// plus commit/swap bookkeeping).
	ReorgStartup float64

	// ReadMBps is sequential scan bandwidth from disk.
	ReadMBps float64
	// WriteMBps is sequential write bandwidth to disk.
	WriteMBps float64
	// DecompressMBps is CPU decompression throughput (per compressed MB).
	DecompressMBps float64
	// CompressMBps is CPU compression throughput (per output MB).
	CompressMBps float64
	// ShuffleMBps is the effective throughput of the repartition stage
	// of the reorganization job: updating the BID column, hash-exchanging
	// rows, spilling, and writing many small intermediate files. This is
	// by far the slowest stage — the paper's Table I measurements imply
	// an end-to-end reorganization throughput of roughly 0.85 MB/s on
	// their Spark/HDD setup — so this parameter dominates ReorgSeconds.
	ShuffleMBps float64

	// SpillThresholdMB is the scan working-set size above which query
	// execution starts spilling; bytes beyond the threshold pay the
	// SpillMBps penalty in addition to the regular read path.
	SpillThresholdMB float64
	// SpillMBps is the effective extra-pass throughput for spilled bytes.
	SpillMBps float64
}

// DefaultDiskModel returns parameters calibrated against the paper's
// Table I setup (local HDD, Parquet, Spark stand-alone, 64 GB RAM
// executor): the resulting α(size) curve stays within ~60–100× and dips
// back down once scans themselves exceed the working set.
func DefaultDiskModel() DiskModel {
	return DiskModel{
		QueryStartup:     0.18,
		ReorgStartup:     5.0,
		ReadMBps:         120,
		WriteMBps:        90,
		DecompressMBps:   250,
		CompressMBps:     35,
		ShuffleMBps:      0.89,
		SpillThresholdMB: 2048,
		SpillMBps:        70,
	}
}

// ScanSeconds returns the wall-clock seconds of a query that reads the
// given number of megabytes (a full scan passes the whole file size).
func (m DiskModel) ScanSeconds(mb float64) float64 {
	if mb < 0 {
		mb = 0
	}
	t := m.QueryStartup + mb/m.ReadMBps + mb/m.DecompressMBps
	if mb > m.SpillThresholdMB {
		t += (mb - m.SpillThresholdMB) / m.SpillMBps
	}
	return t
}

// ReorgSeconds returns the wall-clock seconds of reorganizing the given
// number of megabytes: read + decompress + shuffle (BID update and
// repartition) + compress + write, plus fixed job overhead. This is the
// four-step pipeline the paper times (read partitions, update BID
// column, repartition by BID, compress and write).
func (m DiskModel) ReorgSeconds(mb float64) float64 {
	if mb < 0 {
		mb = 0
	}
	perMB := 1/m.ReadMBps + 1/m.DecompressMBps + 1/m.ShuffleMBps +
		1/m.CompressMBps + 1/m.WriteMBps
	// float64(...) rounds the product before the add: arm64 would
	// otherwise fuse the two, and the result would differ from amd64's.
	return m.ReorgStartup + float64(mb*perMB)
}

// AlphaRow is one row of the Table I reproduction.
type AlphaRow struct {
	FileMB float64
	// QuerySeconds is the full-scan query time.
	QuerySeconds float64
	// ReorgSeconds is the reorganization time.
	ReorgSeconds float64
	// Alpha is ReorgSeconds / QuerySeconds.
	Alpha float64
}

// Table1Sizes are the file sizes the paper measures (MB).
var Table1Sizes = []float64{16, 64, 256, 1024, 4096}

// MeasureAlpha reproduces Table I for the given sizes (nil selects
// Table1Sizes).
func (m DiskModel) MeasureAlpha(sizesMB []float64) []AlphaRow {
	if sizesMB == nil {
		sizesMB = Table1Sizes
	}
	rows := make([]AlphaRow, 0, len(sizesMB))
	for _, s := range sizesMB {
		q := m.ScanSeconds(s)
		r := m.ReorgSeconds(s)
		rows = append(rows, AlphaRow{FileMB: s, QuerySeconds: q, ReorgSeconds: r, Alpha: r / q})
	}
	return rows
}
