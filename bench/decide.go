package main

import (
	"fmt"
	"math"
	"time"

	"oreo"
	"oreo/internal/layout"
	"oreo/internal/manager"
	"oreo/internal/mts"
	"oreo/internal/query"
	"oreo/internal/table"
)

// decidePass is one replay of the whole drifting stream through a fresh
// optimizer.
type decidePass struct {
	lat      []time.Duration // one per decision
	wall     time.Duration
	costBits uint64 // bits of Stats().QueryCost + Stats().ReorgCost
	stats    oreo.Stats
	mismatch int64 // sampled decisions whose cost differs from the interpreted reference
}

// stalls picks out the decisions that carried a candidate generation:
// every period-th one.
func (p *decidePass) stalls(period int) []time.Duration {
	var out []time.Duration
	for i := period - 1; i < len(p.lat); i += period {
		out = append(out, p.lat[i])
	}
	return out
}

// decideConfig is the optimizer configuration of decide-drift: the
// paper's defaults (α = 80, window 200, Qd-tree candidates).
func decideConfig(seed int64, traceCap int) oreo.Config {
	return oreo.Config{
		Alpha:         80,
		WindowSize:    200,
		Generator:     oreo.NewQdTreeGenerator(),
		InitialSort:   []string{timeColumn},
		Seed:          seed,
		TraceCapacity: traceCap,
	}
}

// costCheckEvery is the sampling stride of the cost gate: every 64th
// decision's cost must bit-equal interpreted query.FractionScanned on
// the layout it was served on.
const costCheckEvery = 64

type costSample struct {
	q      query.Query
	cost   float64
	layout *oreo.Layout
}

// replayDecide drives every query through opt. With a tracer each
// decision is a root span and, on every period boundary, the layers
// under it are replayed as probes (see decideProbes.period).
func replayDecide(opt *oreo.Optimizer, ds *table.Dataset, qs []query.Query, tr *tracer, probes *decideProbes) decidePass {
	p := decidePass{lat: make([]time.Duration, len(qs))}
	samples := make([]costSample, 0, len(qs)/costCheckEvery+1)
	period := opt.Config().WindowSize
	begin := time.Now()
	for i, q := range qs {
		t0 := time.Now()
		d := opt.ProcessQuery(q)
		t1 := time.Now()
		p.lat[i] = t1.Sub(t0)
		if i%costCheckEvery == 0 {
			samples = append(samples, costSample{q, d.Cost, d.Layout})
		}
		if tr != nil {
			root := tr.record("oreo.process_query", t0, t1, 0, int64(i+1))
			probes.seen(d.Layout)
			if (i+1)%period == 0 {
				probes.period(tr, root, int64(i+1), ds, qs[i+1-period:i+1], opt.Config())
			}
		}
	}
	p.wall = time.Since(begin) // meaningless with a tracer: the probes ran inside the loop
	for _, s := range samples {
		want := query.FractionScanned(ds.Schema(), s.layout.Part, s.q)
		if math.Float64bits(want) != math.Float64bits(s.cost) {
			p.mismatch++
		}
	}
	p.stats = opt.Stats()
	p.costBits = math.Float64bits(p.stats.QueryCost + p.stats.ReorgCost)
	return p
}

// decideProbes replays, from the benchmark's side, the layer calls a
// period-boundary decision makes, so their cost can be told apart
// without touching the program.
type decideProbes struct {
	incumbents []*oreo.Layout // distinct layouts that have served so far
	generate   []time.Duration
	build      []time.Duration
	admit      []time.Duration
}

func (dp *decideProbes) seen(l *oreo.Layout) {
	for _, have := range dp.incumbents {
		if have == l {
			return
		}
	}
	dp.incumbents = append(dp.incumbents, l)
}

func (dp *decideProbes) period(tr *tracer, parent, op int64, ds *table.Dataset, window []query.Query, cfg oreo.Config) {
	var cand *layout.Layout
	dp.generate = append(dp.generate, tr.timed("layout.generate", parent, op, func() {
		cand = layout.NewQdTreeGenerator().Generate(ds, window, cfg.Partitions)
	}))
	dp.build = append(dp.build, tr.timed("table.build_partitioning", parent, op, func() {
		table.MustBuildPartitioning(ds, cand.Part.Assign, cand.Part.NumPartitions)
	}))
	// The feed's reservoir holds about a hundred recent queries; the
	// newest hundred of the window stand in for it.
	sample := window
	if len(sample) > 100 {
		sample = sample[len(sample)-100:]
	}
	cqs := cand.CompileWorkload(sample)
	dp.admit = append(dp.admit, tr.timed("manager.admit", parent, op, func() {
		manager.AdmitCompiled(cand, dp.incumbents, cqs, cfg.Epsilon)
	}))
}

// probeMTSObserve times mts.Reorganizer.Observe over a state space as
// large as the optimizer's grew.
func probeMTSObserve(tr *tracer, states, n int, seed int64) time.Duration {
	if states < 1 {
		states = 1
	}
	r := mts.New(mts.Config{Alpha: 80, Gamma: 1}, seeded(seed, saltQueries))
	for s := 0; s < states; s++ {
		r.AddState(mts.StateID(s))
	}
	r.SetInitial(0)
	costs := make([]float64, states)
	rng := seeded(seed, saltData)
	for i := range costs {
		costs[i] = rng.Float64()
	}
	cost := func(id mts.StateID) float64 { return costs[int(id)] }
	d := make([]time.Duration, n)
	for i := range d {
		d[i] = tr.timed("mts.observe", 0, 0, func() { r.Observe(cost) })
	}
	return medianDuration(d)
}

func runDecide(cfg runConfig, tr *tracer) (*outcome, error) {
	sz := cfg.size
	ds := genTable(sz.decideRows, cfg.seed, saltData)
	qs := genDrift(sz.decideQueries, cfg.seed)

	out := newOutcome()

	// Set-up is oreo.New alone (it sorts the boot layout); the last
	// optimizer built serves the first pass.
	var opt *oreo.Optimizer
	setups := make([]float64, sz.setupReps)
	resetPeakRSS()
	for i := range setups {
		t0 := time.Now()
		o, err := oreo.New(ds, decideConfig(cfg.seed, 0))
		if err != nil {
			return nil, fmt.Errorf("oreo.New: %w", err)
		}
		setups[i] = time.Since(t0).Seconds()
		opt = o
	}

	// The baseline the paper compares against: the same stream on the
	// static arrival-order layout, never reorganized.
	static := layout.NewSortGenerator(timeColumn).Generate(ds, nil, opt.Config().Partitions)
	staticCost := 0.0
	for _, q := range qs {
		staticCost += static.Cost(q)
	}

	if cfg.trace {
		return runDecideTraced(cfg, tr, out, ds, qs, opt, staticCost)
	}

	// Complete passes until the window is used up, two at least so the
	// replay can be checked against itself.
	var passes []decidePass
	var stalls []time.Duration
	var wall time.Duration
	decisions := 0
	for len(passes) < 2 || wall.Seconds() < cfg.seconds {
		if len(passes) > 0 {
			var err error
			if opt, err = oreo.New(ds, decideConfig(cfg.seed, 0)); err != nil {
				return nil, fmt.Errorf("oreo.New: %w", err)
			}
		}
		p := replayDecide(opt, ds, qs, nil, nil)
		passes = append(passes, p)
		stalls = append(stalls, p.stalls(opt.Config().WindowSize)...)
		decisions += len(p.lat)
		wall += p.wall
		out.attempted += int64(len(qs))
		out.failed += p.mismatch
		if p.costBits != passes[0].costBits {
			out.failed++
			out.notef("pass %d total cost differs from pass 1", len(passes))
		}
	}
	rss := peakRSSMB()

	// Throughput counts every decision; the latency a caller feels is the
	// every-period-th decision that carries a candidate generation (the
	// other 199 in 200 take microseconds and are reported per layer).
	out.setEndToEnd(decisions, wall, sortDurations(stalls), 0.90, rss, setups)
	st := passes[0].stats
	out.notef("passes=%d decisions=%d total_cost_ratio=%.4f (OREO %.1f query + %.1f reorg over static %.1f) reorganizations=%d",
		len(passes), decisions, (st.QueryCost+st.ReorgCost)/staticCost, st.QueryCost, st.ReorgCost, staticCost, st.Reorganizations)
	return out, nil
}

func runDecideTraced(cfg runConfig, tr *tracer, out *outcome, ds *table.Dataset, qs []query.Query, opt *oreo.Optimizer, staticCost float64) (*outcome, error) {
	// An untraced pass first: the reference for the traced pass's total
	// cost and for the tracing overhead.
	plain := replayDecide(opt, ds, qs, nil, nil)

	topt, err := oreo.New(ds, decideConfig(cfg.seed, 1<<16))
	if err != nil {
		return nil, fmt.Errorf("oreo.New: %w", err)
	}
	probes := &decideProbes{}
	traced := replayDecide(topt, ds, qs, tr, probes)

	out.attempted = int64(2 * len(qs))
	out.failed = plain.mismatch + traced.mismatch
	if plain.costBits != traced.costBits {
		out.failed++
		out.notef("traced pass total cost differs from the untraced pass")
	}

	stalls := sortDurations(traced.stalls(topt.Config().WindowSize))
	rootTotal := sumDurations(traced.lat)
	st := traced.stats

	admits, rejects := 0, 0
	for _, ev := range topt.Events() {
		switch ev.Kind {
		case oreo.TraceAdmit:
			admits++
		case oreo.TraceReject:
			rejects++
		}
	}

	observe := probeMTSObserve(tr, st.MaxStates, cfg.size.probeOps, cfg.seed)
	// What the probes account for: every period's candidate generation
	// (which builds its partitioning) and admission test, and one counter
	// update per decision. The rest of the root spans is unattributed.
	attributed := sumDurations(probes.generate) + sumDurations(probes.admit) + time.Duration(len(qs))*observe

	out.set("oreo.process_query_p50_ns", float64(medianDuration(append([]time.Duration(nil), traced.lat...))), len(traced.lat))
	out.set("oreo.decide_stall_p50_ms", ms(percentile(stalls, 0.50)), len(stalls))
	out.set("oreo.decide_stall_p90_ms", ms(percentile(stalls, 0.90)), len(stalls))
	out.set("oreo.total_cost_ratio", (st.QueryCost+st.ReorgCost)/staticCost, len(qs))
	out.set("oreo.reorganizations", float64(st.Reorganizations), 1)
	out.set("oreo.states_max", float64(st.MaxStates), 1)
	out.set("oreo.phases", float64(st.Phases), 1)
	out.set("oreo.unattributed_share", 1-ratio(float64(attributed), float64(rootTotal)), len(qs))
	out.set("layout.generate_ms", ms(medianDuration(probes.generate)), len(probes.generate))
	out.set("table.build_partitioning_ms", ms(medianDuration(probes.build)), len(probes.build))
	out.set("manager.admit_us", us(medianDuration(probes.admit)), len(probes.admit))
	out.set("manager.admitted_ratio", ratio(float64(admits), float64(admits+rejects)), admits+rejects)
	out.set("mts.observe_ns", float64(observe), cfg.size.probeOps)
	out.set("bench.trace_overhead_ratio",
		ratio(float64(medianDuration(traced.lat)), float64(medianDuration(plain.lat))), len(qs))
	return out, nil
}
