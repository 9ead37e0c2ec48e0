// Package workload generates the query streams OREO is evaluated on.
//
// The paper's workload generator "behaves like a state machine and
// samples queries from one query template for an arbitrary amount of
// time before switching to another random query template". This package
// implements exactly that: a stream is a sequence of segments, each
// segment instantiates one template repeatedly with fresh random
// constants, and segment boundaries are where workload drift happens.
// Oracle baselines (MTS Optimal, Offline Optimal) are given the segment
// structure; online methods never see it.
package workload

import (
	"fmt"
	"math/rand"

	"oreo/internal/query"
)

// Template produces random instantiations of one query shape. Make must
// be deterministic given the rng state.
type Template struct {
	// Name identifies the template (e.g. "q6-discount-band").
	Name string
	// Make draws one query instance's predicates.
	Make func(rng *rand.Rand) []query.Predicate
}

// Segment is a maximal run of queries drawn from a single template.
type Segment struct {
	// Template is the index into the template library.
	Template int
	// Start is the stream position of the segment's first query.
	Start int
	// Length is the number of queries in the segment.
	Length int
}

// Stream is a fully materialized query workload plus its (hidden)
// segment structure.
type Stream struct {
	// Queries is the ordered query sequence.
	Queries []query.Query
	// Segments records the template runs, in order.
	Segments []Segment
	// Templates is the library the stream was drawn from.
	Templates []Template
}

// NumSwitches returns the number of template changes in the stream
// (segments minus one).
func (s *Stream) NumSwitches() int {
	if len(s.Segments) == 0 {
		return 0
	}
	return len(s.Segments) - 1
}

// Config controls stream generation.
type Config struct {
	// NumQueries is the total stream length.
	NumQueries int
	// NumSegments is how many template runs the stream contains. The
	// paper's TPC-H/TPC-DS workloads use 30,000 queries over 20 runs.
	NumSegments int
	// MinSegmentFrac bounds the shortest segment as a fraction of the
	// average segment length, preventing degenerate one-query segments.
	// Zero means the default of 0.3.
	MinSegmentFrac float64
}

// Generate draws a stream from the template library. Consecutive
// segments always use different templates (a "switch" changes the
// workload). Segment lengths are random but bounded below by
// MinSegmentFrac of the mean, matching the paper's "arbitrary amount of
// time" with enough queries per segment for reorganization to pay off.
func Generate(templates []Template, cfg Config, rng *rand.Rand) (*Stream, error) {
	if len(templates) == 0 {
		return nil, fmt.Errorf("workload: empty template library")
	}
	if cfg.NumQueries <= 0 {
		return nil, fmt.Errorf("workload: NumQueries must be positive, got %d", cfg.NumQueries)
	}
	if cfg.NumSegments <= 0 || cfg.NumSegments > cfg.NumQueries {
		return nil, fmt.Errorf("workload: NumSegments %d out of range (1..%d)",
			cfg.NumSegments, cfg.NumQueries)
	}
	minFrac := cfg.MinSegmentFrac
	//oreovet:ignore floatbits zero-value config sentinel; MinSegmentFrac is caller-set, exact
	if minFrac == 0 {
		minFrac = 0.3
	}

	lengths := segmentLengths(cfg.NumQueries, cfg.NumSegments, minFrac, rng)

	s := &Stream{Templates: templates}
	prev := -1
	pos := 0
	for _, length := range lengths {
		t := rng.Intn(len(templates))
		for len(templates) > 1 && t == prev {
			t = rng.Intn(len(templates))
		}
		prev = t
		s.Segments = append(s.Segments, Segment{Template: t, Start: pos, Length: length})
		for j := 0; j < length; j++ {
			s.Queries = append(s.Queries, query.Query{
				ID:       pos,
				Template: t,
				Preds:    templates[t].Make(rng),
			})
			pos++
		}
	}
	return s, nil
}

// MustGenerate is Generate that panics on error, for configurations
// constructed in code.
func MustGenerate(templates []Template, cfg Config, rng *rand.Rand) *Stream {
	s, err := Generate(templates, cfg, rng)
	if err != nil {
		panic(err)
	}
	return s
}

// segmentLengths splits total into n random parts, each at least
// minFrac * (total/n), summing exactly to total.
func segmentLengths(total, n int, minFrac float64, rng *rand.Rand) []int {
	mean := float64(total) / float64(n)
	minLen := int(minFrac * mean)
	if minLen < 1 {
		minLen = 1
	}
	// Draw positive weights and scale the slack above the minimum.
	weights := make([]float64, n)
	sum := 0.0
	for i := range weights {
		// float64(...) rounds rng.Float64's scaling multiply, which arm64
		// would otherwise fuse into the add.
		weights[i] = 0.2 + float64(rng.Float64())
		sum += weights[i]
	}
	slack := total - minLen*n
	if slack < 0 {
		// total too small for the minimum; fall back to equal split.
		return equalSplit(total, n)
	}
	lengths := make([]int, n)
	used := 0
	for i := range lengths {
		extra := int(float64(slack) * weights[i] / sum)
		lengths[i] = minLen + extra
		used += lengths[i]
	}
	// Distribute rounding remainder to the earliest segments.
	for i := 0; used < total; i = (i + 1) % n {
		lengths[i]++
		used++
	}
	return lengths
}

func equalSplit(total, n int) []int {
	lengths := make([]int, n)
	for i := range lengths {
		lengths[i] = total / n
	}
	for i := 0; i < total%n; i++ {
		lengths[i]++
	}
	return lengths
}

// QueriesByTemplate groups the stream's queries by template index.
// Oracle baselines use this to precompute per-template layouts.
func (s *Stream) QueriesByTemplate() map[int][]query.Query {
	byT := make(map[int][]query.Query)
	for _, q := range s.Queries {
		byT[q.Template] = append(byT[q.Template], q)
	}
	return byT
}
