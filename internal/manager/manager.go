// Package manager implements the paper's LAYOUT MANAGER: the producer
// side of the dynamic state space, and the only owner of that space in
// this repository. It has two pieces:
//
//   - Feed watches the query stream through a sliding window (and a
//     time-biased reservoir sample) and periodically generates candidate
//     layouts tailored to the recent workload. The baselines consume a
//     Feed directly — the paper runs Greedy, Regret and OREO over the
//     same candidate stream — without OREO's admission policy.
//   - Manager is a Feed plus the state space itself: the StateID →
//     layout map, ID minting, name de-duplication, the ε-distance
//     admission rule of Algorithm 5 over the reservoir, and the choice
//     of the most redundant state when the space must shrink. Every
//     decision maker that runs over a dynamic space (mts.Reorganizer in
//     policy.OREO, mts.MultiCopy in the multi-copy ablation) is
//     orchestration over one Manager.
//
// AdmitCompiled is the admission rule as a pure function of cost
// vectors; the Manager applies it and the benchmark probes it.
package manager

import (
	"math/rand"

	"oreo/internal/layout"
	"oreo/internal/prune"
	"oreo/internal/query"
	"oreo/internal/sampling"
	"oreo/internal/table"
)

// Source selects which workload sample candidates are generated from.
type Source int

const (
	// SourceWindow generates candidates from the sliding window only
	// (the paper's default and empirically best choice).
	SourceWindow Source = iota
	// SourceReservoir generates candidates from the R-TBS sample only.
	SourceReservoir
	// SourceBoth generates one candidate from each per period (the
	// paper's SW+RS ablation).
	SourceBoth
)

// String returns the ablation label used in Table II.
func (s Source) String() string {
	switch s {
	case SourceWindow:
		return "SW"
	case SourceReservoir:
		return "RS"
	case SourceBoth:
		return "SW+RS"
	default:
		return "Source(?)"
	}
}

// reservoirSize is the R-TBS sample capacity (the paper keeps it
// small); it decays at sampling.DefaultLambda. The reservoir also feeds
// admission distances.
const reservoirSize = 100

// FeedConfig parameterizes candidate generation.
type FeedConfig struct {
	// WindowSize is the sliding-window capacity (paper default: 200).
	WindowSize int
	// Period is how many queries elapse between candidate generations.
	// Zero means WindowSize (regenerate once per full window turnover).
	Period int
	// Partitions is the target partition count k passed to the
	// generator.
	Partitions int
	// Source selects the workload sample(s) candidates come from.
	Source Source
	// MinWindowFill is the minimum number of window queries before the
	// first candidate is generated. Zero means WindowSize/2.
	MinWindowFill int
}

// Candidate is one generated layout plus its provenance.
type Candidate struct {
	Layout *layout.Layout
	// FromReservoir records whether the candidate was generated from
	// the R-TBS sample rather than the sliding window.
	FromReservoir bool
}

// Feed watches the stream and emits candidates on a fixed cadence.
type Feed struct {
	cfg    FeedConfig
	gen    layout.Generator
	ds     *table.Dataset
	window *sampling.SlidingWindow
	rtbs   *sampling.RTBS
	seen   int

	// cache avoids rebuilding deterministic layouts (e.g. Z-order over
	// the same column set) that periodic generation would otherwise
	// recompute every period.
	cache map[string]*layout.Layout
}

// KeyedGenerator is implemented by generators whose output is fully
// determined by a cheap-to-compute key (dataset-independent identity,
// e.g. the Z-order column set). The feed uses it to reuse layouts.
type KeyedGenerator interface {
	layout.Generator
	// Key returns the cache key for Generate(d, qs, k), or "" when the
	// output is not cacheable.
	Key(schema *table.Schema, qs []query.Query, k int) string
}

// NewFeed returns a candidate feed over the dataset using the
// generator. rng seeds the R-TBS reservoir.
func NewFeed(ds *table.Dataset, gen layout.Generator, cfg FeedConfig, rng *rand.Rand) *Feed {
	if cfg.WindowSize <= 0 {
		cfg.WindowSize = 200
	}
	if cfg.Period <= 0 {
		cfg.Period = cfg.WindowSize
	}
	if cfg.Partitions <= 0 {
		cfg.Partitions = 64
	}
	if cfg.MinWindowFill <= 0 {
		cfg.MinWindowFill = cfg.WindowSize / 2
	}
	return &Feed{
		cfg:    cfg,
		gen:    gen,
		ds:     ds,
		window: sampling.NewSlidingWindow(cfg.WindowSize),
		rtbs:   sampling.NewRTBS(reservoirSize, sampling.DefaultLambda, rng),
		cache:  make(map[string]*layout.Layout),
	}
}

// Observe feeds one query and returns any candidates generated at this
// position (usually zero or one; two under SourceBoth).
func (f *Feed) Observe(q query.Query) []Candidate {
	f.window.Add(q)
	f.rtbs.Add(q)
	f.seen++
	if f.seen%f.cfg.Period != 0 || f.window.Len() < f.cfg.MinWindowFill {
		return nil
	}

	var out []Candidate
	if f.cfg.Source == SourceWindow || f.cfg.Source == SourceBoth {
		if l := f.generate(f.window.Queries()); l != nil {
			out = append(out, Candidate{Layout: l})
		}
	}
	if f.cfg.Source == SourceReservoir || f.cfg.Source == SourceBoth {
		if l := f.generate(f.rtbs.Queries()); l != nil {
			out = append(out, Candidate{Layout: l, FromReservoir: true})
		}
	}
	return out
}

// generate builds (or fetches from cache) a layout for the sample.
func (f *Feed) generate(qs []query.Query) *layout.Layout {
	if len(qs) == 0 {
		return nil
	}
	if kg, ok := f.gen.(KeyedGenerator); ok {
		if key := kg.Key(f.ds.Schema(), qs, f.cfg.Partitions); key != "" {
			if l, hit := f.cache[key]; hit {
				return l
			}
			l := f.gen.Generate(f.ds, qs, f.cfg.Partitions)
			f.cache[key] = l
			return l
		}
	}
	return f.gen.Generate(f.ds, qs, f.cfg.Partitions)
}

// ReservoirQueries returns the current R-TBS sample, the query set
// Algorithm 5 measures layout distances on.
func (f *Feed) ReservoirQueries() []query.Query { return f.rtbs.Queries() }

// WindowQueries returns the current sliding-window contents.
func (f *Feed) WindowQueries() []query.Query { return f.window.Queries() }

// AdmitCompiled implements Algorithm 5 (ADMIT STATE): the candidate
// joins the state space only if its normalized-L1 cost-vector distance
// to *every* incumbent, measured on the compiled sample, exceeds
// epsilon. An empty incumbent set always admits; an empty sample never
// does (there is no evidence the candidate differs). Callers testing
// several candidates against the same sample compile it once and share
// the binding across every check.
func AdmitCompiled(candidate *layout.Layout, incumbents []*layout.Layout, cqs []*prune.CompiledQuery, epsilon float64) bool {
	if len(incumbents) == 0 {
		return true
	}
	if len(cqs) == 0 {
		return false
	}
	cv := candidate.CostVectorCompiled(cqs)
	for _, inc := range incumbents {
		if layout.Distance(cv, inc.CostVectorCompiled(cqs)) <= epsilon {
			return false
		}
	}
	return true
}

// mostRedundant returns the index of the incumbent whose cost vector is
// closest to some other incumbent on the compiled sample — the pruning
// victim when the state space must shrink. skip marks indices that must
// not be chosen (the current layout). It returns -1 when no prunable
// state exists.
func mostRedundant(incumbents []*layout.Layout, cqs []*prune.CompiledQuery, skip func(i int) bool) int {
	if len(incumbents) < 2 || len(cqs) == 0 {
		return -1
	}
	vectors := make([][]float64, len(incumbents))
	for i, l := range incumbents {
		vectors[i] = l.CostVectorCompiled(cqs)
	}
	best := -1
	bestDist := 0.0
	for i := range incumbents {
		if skip != nil && skip(i) {
			continue
		}
		// Distance to nearest other incumbent.
		nearest := -1.0
		for j := range incumbents {
			if j == i {
				continue
			}
			d := layout.Distance(vectors[i], vectors[j])
			if nearest < 0 || d < nearest {
				nearest = d
			}
		}
		if nearest >= 0 && (best == -1 || nearest < bestDist) {
			best = i
			bestDist = nearest
		}
	}
	return best
}
