package layout

import (
	"fmt"

	"oreo/internal/query"
	"oreo/internal/table"
)

// The traditional, workload-oblivious layout of §VII-1 (round-robin;
// range partitioning is SortGenerator). It is the floor every
// workload-aware layout must beat: round-robin spreads every value
// across every partition, so metadata-based skipping degenerates to
// full scans.

// RoundRobinGenerator assigns row i to partition i mod k.
type RoundRobinGenerator struct{}

// NewRoundRobinGenerator returns a round-robin partitioner.
func NewRoundRobinGenerator() *RoundRobinGenerator { return &RoundRobinGenerator{} }

// Name implements Generator.
func (g *RoundRobinGenerator) Name() string { return "roundrobin" }

// Generate implements Generator. The workload is ignored.
func (g *RoundRobinGenerator) Generate(d *table.Dataset, _ []query.Query, k int) *Layout {
	if k < 1 {
		k = 1
	}
	assign := make([]int, d.NumRows())
	for i := range assign {
		assign[i] = i % k
	}
	part := table.MustBuildPartitioning(d, assign, k)
	return New(fmt.Sprintf("roundrobin(k=%d)", k), d.Schema(), part)
}
