// Package sim runs a reorganization policy over a whole query stream
// and reports what the paper's figures plot: the logical costs (fraction
// of rows scanned per query; α per reorganization), simulated
// wall-clock seconds via the storage model, the cumulative-cost curve,
// and the size of the dynamic state space over time. Which layout
// serves which query — including the background-reorganization delay Δ
// of §VI-D5 — is not decided here: Run is a loop over policy.Stepper,
// the same step the public Optimizer takes per query.
package sim

import (
	"oreo/internal/policy"
	"oreo/internal/query"
	"oreo/internal/storage"
)

// Config parameterizes one policy run.
type Config struct {
	// Alpha is the logical reorganization cost charged per switch.
	Alpha float64
	// Delay is the number of queries served on the outgoing layout
	// after each switch decision (Δ).
	Delay int
	// Disk converts logical volumes to seconds. The zero value disables
	// physical-time accounting.
	Disk *storage.DiskModel
	// TableMB is the compressed on-disk size of the whole table, used
	// with Disk for physical-time accounting.
	TableMB float64
	// CurveStride records the cumulative-cost curve every this many
	// queries (0 disables curve recording; 1 records every query).
	CurveStride int
	// SpaceStride samples the dynamic state-space size every this many
	// queries for policies that report it (0 disables).
	SpaceStride int
}

// Result is the accounting of one policy run.
type Result struct {
	Policy  string
	Queries int

	// Logical costs (the paper's simulation metric).
	QueryCost float64 // sum of c(serving layout, q)
	ReorgCost float64 // Alpha * Switches
	Switches  int

	// Physical times in seconds (the paper's end-to-end metric),
	// populated when Config.Disk is set.
	QuerySeconds float64
	ReorgSeconds float64

	// Curve is the cumulative total logical cost sampled every
	// CurveStride queries (index i covers queries [0, (i+1)*stride)).
	Curve []float64
	// CurveStride echoes the sampling stride used for Curve.
	CurveStride int

	// AvgSpace / MaxSpace summarize the dynamic state-space size for
	// SpaceReporter policies (zero otherwise).
	AvgSpace float64
	MaxSpace int

	// FinalLayout is the layout served at stream end.
	FinalLayout string
}

// Total returns the combined logical cost.
func (r Result) Total() float64 { return r.QueryCost + r.ReorgCost }

// TotalSeconds returns the combined physical time.
func (r Result) TotalSeconds() float64 { return r.QuerySeconds + r.ReorgSeconds }

// Run drives the policy over the stream through policy.Stepper — the
// loop the public Optimizer runs — and keeps the harness's own books
// beside it: α and disk seconds per switch, disk seconds per scan, the
// cumulative-cost curve and the state-space samples.
func Run(qs []query.Query, pol policy.Policy, cfg Config) Result {
	res := Result{Policy: pol.Name(), Queries: len(qs), CurveStride: cfg.CurveStride}
	loop := policy.NewStepper(pol, cfg.Delay)

	var spaceSamples, spaceSum int
	for i, q := range qs {
		c, switched := loop.Step(q)
		if switched {
			res.ReorgCost += cfg.Alpha
			if cfg.Disk != nil {
				res.ReorgSeconds += cfg.Disk.ReorgSeconds(cfg.TableMB)
			}
		}
		if cfg.Disk != nil {
			res.QuerySeconds += cfg.Disk.ScanSeconds(c * cfg.TableMB)
		}
		if cfg.CurveStride > 0 && (i+1)%cfg.CurveStride == 0 {
			res.Curve = append(res.Curve, loop.QueryCost+res.ReorgCost)
		}
		if cfg.SpaceStride > 0 && (i+1)%cfg.SpaceStride == 0 {
			if sr, ok := pol.(policy.SpaceReporter); ok {
				n := sr.StateSpaceSize()
				spaceSamples++
				spaceSum += n
				if n > res.MaxSpace {
					res.MaxSpace = n
				}
			}
		}
	}
	if spaceSamples > 0 {
		res.AvgSpace = float64(spaceSum) / float64(spaceSamples)
	}
	res.QueryCost = loop.QueryCost
	res.Switches = loop.Switches
	res.FinalLayout = loop.Serving.Name
	return res
}
