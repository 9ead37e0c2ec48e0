// Package experiments assembles datasets, workloads, layout generators,
// and policies into the exact experiment configurations of the paper's
// evaluation (§VI), and exposes one function per table/figure. The CLI
// (cmd/oreobench) and the benchmark suite (bench_test.go) are thin
// wrappers over this package, so the same code regenerates every
// artifact everywhere.
package experiments

import (
	"fmt"
	"math/rand"

	"oreo/internal/datagen"
	"oreo/internal/layout"
	"oreo/internal/manager"
	"oreo/internal/mts"
	"oreo/internal/policy"
	"oreo/internal/query"
	"oreo/internal/sim"
	"oreo/internal/table"
	"oreo/internal/workload"
)

// ScenarioConfig selects a dataset and stream scale.
type ScenarioConfig struct {
	// Dataset is one of datagen.Names().
	Dataset string
	// Rows is the table size. The paper runs 26–40M rows; the default
	// here is laptop-scale with partition counts scaled to match the
	// per-partition selectivity dynamics.
	Rows int
	// NumQueries / NumSegments shape the stream (paper: 30k/20 for
	// TPC-H and TPC-DS, 24k for Telemetry).
	NumQueries  int
	NumSegments int
	// Partitions is the layout partition count k; 0 derives it from
	// Rows so each partition holds ~1.5k rows (clamped to [8, 128]).
	Partitions int
	// Seed drives all scenario randomness.
	Seed int64
}

// DefaultScenario returns the standard laptop-scale configuration for a
// dataset.
func DefaultScenario(dataset string) ScenarioConfig {
	numQ := 30000
	if dataset == datagen.Telemetry {
		numQ = 24000
	}
	return ScenarioConfig{
		Dataset:     dataset,
		Rows:        100000,
		NumQueries:  numQ,
		NumSegments: 20,
		Seed:        1,
	}
}

// SmallScenario returns a fast configuration for tests and benches.
func SmallScenario(dataset string) ScenarioConfig {
	return ScenarioConfig{
		Dataset:     dataset,
		Rows:        20000,
		NumQueries:  4000,
		NumSegments: 8,
		Seed:        1,
	}
}

// Scenario is a fully materialized experiment input: dataset, stream,
// and the default (arrival-time sorted) layout everything starts from.
type Scenario struct {
	Cfg        ScenarioConfig
	Data       *table.Dataset
	Stream     *workload.Stream
	TimeColumn string
	Default    *layout.Layout
	Partitions int
}

// TimeColumnFor returns the arrival-time column of a built-in dataset.
func TimeColumnFor(dataset string) string {
	switch dataset {
	case datagen.TPCH:
		return "o_orderdate"
	case datagen.TPCDS:
		return "ss_sold_date"
	case datagen.Telemetry:
		return "arrival_time"
	default:
		return ""
	}
}

// Build materializes a scenario.
func Build(cfg ScenarioConfig) (*Scenario, error) {
	if cfg.Rows <= 0 || cfg.NumQueries <= 0 {
		return nil, fmt.Errorf("experiments: Rows and NumQueries must be positive")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	ds, err := datagen.Generate(cfg.Dataset, cfg.Rows, rng)
	if err != nil {
		return nil, err
	}
	templates := workload.TemplatesFor(cfg.Dataset)
	if templates == nil {
		return nil, fmt.Errorf("experiments: no templates for dataset %q", cfg.Dataset)
	}
	stream, err := workload.Generate(templates, workload.Config{
		NumQueries:  cfg.NumQueries,
		NumSegments: cfg.NumSegments,
	}, rng)
	if err != nil {
		return nil, err
	}

	k := cfg.Partitions
	if k <= 0 {
		k = policy.DefaultPartitions(cfg.Rows)
	}

	timeCol := TimeColumnFor(cfg.Dataset)
	def := layout.NewSortGenerator(timeCol).Generate(ds, nil, k)

	return &Scenario{
		Cfg:        cfg,
		Data:       ds,
		Stream:     stream,
		TimeColumn: timeCol,
		Default:    def,
		Partitions: k,
	}, nil
}

// GeneratorKind names a layout generation mechanism.
type GeneratorKind string

const (
	// GenQdTree selects greedy Qd-tree layouts.
	GenQdTree GeneratorKind = "qdtree"
	// GenZOrder selects workload-aware Z-order layouts (top-3 queried
	// columns, falling back to the time column).
	GenZOrder GeneratorKind = "zorder"
)

// Generator instantiates a layout generator for the scenario.
func (s *Scenario) Generator(kind GeneratorKind) layout.Generator {
	switch kind {
	case GenQdTree:
		return layout.NewQdTreeGenerator()
	case GenZOrder:
		return layout.NewZOrderGenerator(3, s.TimeColumn)
	default:
		panic(fmt.Sprintf("experiments: unknown generator %q", kind))
	}
}

// RunParams are the policy-level knobs with the paper's defaults. The
// embedded sim.Config is the run's ledger: α (80), Δ (0), the disk
// model and the curve and state-space sampling strides.
type RunParams struct {
	sim.Config
	Gamma     float64        // 1
	Epsilon   float64        // 0.08
	Window    int            // 200
	Period    int            // 200
	Source    manager.Source // SourceWindow
	MaxStates int            // 0 = unbounded
	// DisableStayInPlace reverts the MTS phase-start behaviour to the
	// original BLS random restart (ablation of the paper's §IV-A
	// optimization).
	DisableStayInPlace bool
	Seed               int64
}

// DefaultParams returns the paper's default parameter configuration.
func DefaultParams() RunParams {
	return RunParams{
		Config:  sim.Config{Alpha: policy.DefaultAlpha},
		Gamma:   policy.DefaultGamma,
		Epsilon: policy.DefaultEpsilon,
		Window:  policy.DefaultWindow,
		Period:  policy.DefaultWindow,
		Seed:    7,
	}
}

// oreoConfig is the system RunParams describes, at partition count k.
func (p RunParams) oreoConfig(k int) policy.OREOConfig {
	return policy.OREOConfig{
		Feed: manager.FeedConfig{
			WindowSize: p.Window,
			Period:     p.Period,
			Partitions: k,
			Source:     p.Source,
		},
		MTS: mts.Config{
			Alpha:              p.Alpha,
			Gamma:              p.Gamma,
			DisableStayInPlace: p.DisableStayInPlace,
		},
		Epsilon:   p.Epsilon,
		MaxStates: p.MaxStates,
	}
}

// workloadSample returns up to max queries spread evenly over qs, used
// when building layouts from large (whole-workload or per-template)
// query sets so Qd-tree construction stays tractable at any scale.
func workloadSample(qs []query.Query, max int) []query.Query {
	if len(qs) <= max {
		return qs
	}
	out := make([]query.Query, 0, max)
	for i := 0; i < max; i++ {
		out = append(out, qs[i*len(qs)/max])
	}
	return out
}

// StaticLayout builds the Static baseline's layout: one layout
// optimized for the entire workload in advance.
func (s *Scenario) StaticLayout(gen layout.Generator) *layout.Layout {
	return gen.Generate(s.Data, workloadSample(s.Stream.Queries, 1000), s.Partitions)
}

// PerTemplateLayouts builds the oracle layouts: the best layout for
// each query template, computed from that template's queries.
func (s *Scenario) PerTemplateLayouts(gen layout.Generator) map[int]*layout.Layout {
	byT := s.Stream.QueriesByTemplate()
	out := make(map[int]*layout.Layout, len(byT))
	for t, qs := range byT {
		out[t] = gen.Generate(s.Data, workloadSample(qs, 300), s.Partitions)
	}
	return out
}

// NewOREO wires the full OREO policy for this scenario — through the
// constructor the public oreo.New uses.
func (s *Scenario) NewOREO(gen layout.Generator, p RunParams) *policy.OREO {
	return policy.NewOREO(s.Data, gen, s.Default, p.oreoConfig(s.Partitions), p.Seed)
}

// NewGreedy wires the Greedy baseline with its own (identically seeded)
// candidate feed.
func (s *Scenario) NewGreedy(gen layout.Generator, p RunParams) *policy.Greedy {
	feed := policy.NewFeed(s.Data, gen, p.oreoConfig(s.Partitions).Feed, p.Seed)
	return policy.NewGreedy(feed, s.Default)
}

// NewRegret wires the Regret baseline.
func (s *Scenario) NewRegret(gen layout.Generator, p RunParams) *policy.Regret {
	feed := policy.NewFeed(s.Data, gen, p.oreoConfig(s.Partitions).Feed, p.Seed)
	return policy.NewRegret(feed, s.Default, p.Alpha)
}

// NewMTSOptimal wires the fixed-state-space oracle.
func (s *Scenario) NewMTSOptimal(perTemplate map[int]*layout.Layout, p RunParams) *policy.MTSOptimal {
	reorg := mts.New(mts.Config{Alpha: p.Alpha, Gamma: p.Gamma}, policy.DecisionRand(p.Seed))
	layouts := make([]*layout.Layout, 0, len(perTemplate))
	for t := 0; t < len(s.Stream.Templates); t++ {
		if l, ok := perTemplate[t]; ok {
			layouts = append(layouts, l)
		}
	}
	return policy.NewMTSOptimal(s.Default, layouts, reorg)
}

// NewOfflineOptimal wires the full-knowledge oracle.
func (s *Scenario) NewOfflineOptimal(perTemplate map[int]*layout.Layout) *policy.OfflineOptimal {
	return policy.NewOfflineOptimal(s.Default, s.Stream, perTemplate)
}

// Run executes one policy over the scenario's stream.
func (s *Scenario) Run(pol policy.Policy, p RunParams) sim.Result {
	return sim.Run(s.Stream.Queries, pol, p.Config)
}

// Row is one labelled policy run: a bar of Figure 3, a point of Figure 5
// or 6, a cell of Table II or of an ablation, a source of the column
// sweep. The embedded sim.Result carries its costs.
type Row struct {
	// Group is the row's family: the generator kind in Figure 3, the
	// group of Table II ("gamma", "sampling", "delay") and the ablation
	// ("stay-in-place", "multi-copy").
	Group string
	// Variant labels the setting: the swept α or ε, "γ=1", "SW", "B=2".
	Variant string
	// Default marks the configuration the paper ships.
	Default bool
	sim.Result
}
