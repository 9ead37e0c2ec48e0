// Command oreoreplay records and replays query workloads.
//
// Record a synthetic stream to a JSON-lines log:
//
//	oreoreplay -mode record -dataset tpch -queries 30000 -segments 20 -out workload.jsonl
//
// Replay a log (recorded or captured from production) through a chosen
// policy over a built-in dataset and print the cost ledger:
//
//	oreoreplay -mode replay -dataset tpch -in workload.jsonl -policy oreo
//	oreoreplay -mode replay -dataset tpch -in workload.jsonl -policy greedy -alpha 120
//
// Replaying the same log twice with the same seed is bit-identical, so
// logs are the unit of exchange for debugging reorganization decisions.
//
// oreoreplay runs in process only. To send a log to a live oreoserve,
// use oreoload -in (see cmd/oreoload).
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"oreo/internal/experiments"
	"oreo/internal/persist"
	"oreo/internal/policy"
	"oreo/internal/workload"
)

func main() {
	var (
		mode     = flag.String("mode", "replay", "record | replay")
		dataset  = flag.String("dataset", "tpch", "built-in dataset: tpch|tpcds|telemetry")
		rows     = flag.Int("rows", 100000, "dataset rows (replay)")
		queries  = flag.Int("queries", 30000, "stream length (record)")
		segments = flag.Int("segments", 20, "template segments (record)")
		in       = flag.String("in", "", "query log to replay")
		out      = flag.String("out", "", "query log to record into")
		polName  = flag.String("policy", "oreo", "replay policy: oreo|greedy|regret|static")
		gen      = flag.String("generator", "qdtree", "layout generator: qdtree|zorder")
		alpha    = flag.Float64("alpha", 80, "relative reorganization cost")
		delay    = flag.Int("delay", 0, "background-reorganization delay (queries)")
		seed     = flag.Int64("seed", 1, "seed for data, workload, and policies")
	)
	flag.Parse()

	var err error
	switch *mode {
	case "record":
		err = record(*dataset, *queries, *segments, *out, *seed)
	case "replay":
		err = replay(*dataset, *rows, *in, *polName, *gen, *alpha, *delay, *seed)
	default:
		err = fmt.Errorf("unknown mode %q", *mode)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "oreoreplay:", err)
		os.Exit(1)
	}
}

func record(dataset string, queries, segments int, out string, seed int64) error {
	if out == "" {
		return fmt.Errorf("-out is required in record mode")
	}
	templates := workload.TemplatesFor(dataset)
	if templates == nil {
		return fmt.Errorf("unknown dataset %q", dataset)
	}
	rng := rand.New(rand.NewSource(seed))
	stream, err := workload.Generate(templates, workload.Config{
		NumQueries:  queries,
		NumSegments: segments,
	}, rng)
	if err != nil {
		return err
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := persist.SaveQueries(f, stream.Queries); err != nil {
		return err
	}
	fmt.Printf("recorded %d queries (%d segments) to %s\n",
		len(stream.Queries), len(stream.Segments), out)
	return nil
}

func replay(dataset string, rows int, in, polName, genName string, alpha float64, delay int, seed int64) error {
	if in == "" {
		return fmt.Errorf("-in is required in replay mode")
	}
	f, err := os.Open(in)
	if err != nil {
		return err
	}
	qs, err := persist.LoadQueries(f)
	f.Close()
	if err != nil {
		return err
	}
	if len(qs) == 0 {
		return fmt.Errorf("query log %s is empty", in)
	}

	// The scenario builder needs stream parameters only for workload
	// synthesis; here the workload comes from the log, so the stream it
	// generates is discarded and replaced.
	s, err := experiments.Build(experiments.ScenarioConfig{
		Dataset:     dataset,
		Rows:        rows,
		NumQueries:  len(qs),
		NumSegments: 1,
		Seed:        seed,
	})
	if err != nil {
		return err
	}
	s.Stream.Queries = qs

	p := experiments.DefaultParams()
	p.Alpha = alpha
	p.Delay = delay
	p.Seed = seed

	var kind experiments.GeneratorKind
	switch genName {
	case "qdtree":
		kind = experiments.GenQdTree
	case "zorder":
		kind = experiments.GenZOrder
	default:
		return fmt.Errorf("unknown generator %q", genName)
	}
	generator := s.Generator(kind)

	var pol policy.Policy
	switch polName {
	case "oreo":
		pol = s.NewOREO(generator, p)
	case "greedy":
		pol = s.NewGreedy(generator, p)
	case "regret":
		pol = s.NewRegret(generator, p)
	case "static":
		pol = policy.NewStatic(s.StaticLayout(generator))
	default:
		return fmt.Errorf("unknown policy %q", polName)
	}

	res := s.Run(pol, p)
	fmt.Printf("replayed %d queries from %s on %s (%d rows, k=%d)\n",
		len(qs), in, dataset, rows, s.Partitions)
	fmt.Printf("policy=%s generator=%s alpha=%.0f delay=%d\n", res.Policy, genName, alpha, delay)
	fmt.Printf("query cost %.1f + reorg cost %.1f (%d switches) = total %.1f\n",
		res.QueryCost, res.ReorgCost, res.Switches, res.Total())
	fmt.Printf("final layout: %s\n", res.FinalLayout)
	return nil
}
