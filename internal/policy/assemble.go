package policy

import (
	"math/rand"

	"oreo/internal/layout"
	"oreo/internal/manager"
	"oreo/internal/mts"
	"oreo/internal/table"
)

// The paper's default parameters (§VI-A). The public Config's zero
// values and the experiment harness's DefaultParams both resolve to
// these.
const (
	DefaultAlpha   = 80   // relative reorganization cost α
	DefaultGamma   = 1    // predictor bias γ of the transition distribution
	DefaultEpsilon = 0.08 // admission distance threshold ε
	DefaultWindow  = 200  // sliding-window size and generation period
)

// DefaultPartitions is the partition-count rule for a table of the
// given size: about one partition per 1500 rows, clamped to [8, 128].
func DefaultPartitions(rows int) int {
	k := rows / 1500
	return min(max(k, 8), 128)
}

// NewFeed returns a run's candidate feed under the seeding convention
// every policy of that run shares: the feed's reservoir draws from a
// source seeded with Seed itself, so OREO and the baselines see one
// candidate stream.
func NewFeed(ds *table.Dataset, gen layout.Generator, cfg manager.FeedConfig, seed int64) *manager.Feed {
	return manager.NewFeed(ds, gen, cfg, rand.New(rand.NewSource(seed)))
}

// DecisionRand is the other half of the seeding convention: a run's
// decision maker draws from a source seeded with Seed + 1, never from
// the feed's stream, so how many candidates were sampled cannot move a
// transition.
func DecisionRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed + 1))
}

// OREOConfig collects what one OREO system is assembled from.
type OREOConfig struct {
	// Feed parameterizes candidate generation.
	Feed manager.FeedConfig
	// MTS parameterizes the decision maker (α, γ, the stay-in-place
	// ablation switch).
	MTS mts.Config
	// Epsilon is the admission distance threshold.
	Epsilon float64
	// MaxStates caps the state space; 0 disables pruning.
	MaxStates int
}

// NewManager assembles the LAYOUT MANAGER half of an OREO system over
// ds — the seeded feed and the state space holding initial — and
// returns it with the rng its decision maker must draw from. NewOREO is
// this plus a D-UMTS reorganizer; the multi-copy ablation pairs the
// same manager with mts.MultiCopy.
func NewManager(ds *table.Dataset, gen layout.Generator, initial *layout.Layout, cfg OREOConfig, seed int64) (*manager.Manager, *rand.Rand) {
	feed := NewFeed(ds, gen, cfg.Feed, seed)
	return manager.New(feed, initial, cfg.Epsilon, cfg.MaxStates), DecisionRand(seed)
}

// NewOREO assembles the full OREO policy over ds: candidates from gen,
// the initial layout as manager.InitialState and the starting MTS
// state, all randomness derived from seed (see NewFeed, DecisionRand).
func NewOREO(ds *table.Dataset, gen layout.Generator, initial *layout.Layout, cfg OREOConfig, seed int64) *OREO {
	mgr, rng := NewManager(ds, gen, initial, cfg, seed)
	reorg := mts.New(cfg.MTS, rng)
	reorg.AddState(manager.InitialState)
	reorg.SetInitial(manager.InitialState)
	return &OREO{mgr: mgr, reorg: reorg}
}
