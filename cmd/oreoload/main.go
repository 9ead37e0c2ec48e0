// Command oreoload generates measured query load against a live
// oreoserve instance (leader or follower) through the client SDK.
//
// Closed loop — N workers, each one request in flight, the sustained-
// throughput question:
//
//	oreoload -url http://localhost:8080 -concurrency 8 -duration 10s
//
// Open loop — queries paced at a target arrival rate regardless of
// completions, the does-it-keep-up question. If the server cannot hold
// the rate, the achieved figure in the report drops below target:
//
//	oreoload -url http://localhost:8080 -qps 2000 -duration 10s
//
// The query pool is drawn from the workload generator's template
// machinery: -dataset fixture (default) targets the synthetic
// orders/events fixtures oreoserve boots with (use -rows to match the
// server's), while tpch, tpcds, and telemetry target the built-in
// evaluation datasets.
//
// -in draws the pool from a JSON-lines query log instead (the format
// cmd/oreoreplay -mode record writes). With -n equal to the log's
// length and the closed loop's default single worker, every line is
// sent once, in order; -concurrency N feeds it in parallel. -table pins
// every line to one served table; -table "" keeps the log's own
// addressing (a line with no table routes by predicate, the server's
// multi-table rule):
//
//	oreoload -url http://localhost:8080 -in trace.jsonl -table orders -execute -stream -n 500 -duration 2m
//
// -stream sends each worker's queries down one /v2/query/stream
// connection in ping-pong mode; -execute asks for row-level execution
// with a count aggregate, exercising the scan path, and the report
// then prints "executed N, matched rows M": the executions the answers
// carried and the rows they matched.
//
// -append-ratio r mixes live writes into the run: every round(1/r)-th
// operation appends a deterministic row batch through
// POST /v2/tables/{t}/append instead of querying (leaders only). The
// schedule is by operation index, so an -n run appends exactly
// floor(n/round(1/r)) batches — a closed form CI asserts against the
// server's rows_appended counter:
//
//	oreoload -url http://localhost:8080 -n 400 -append-ratio 0.25
//
// -min-qps turns the run into an assertion: exit status 1 when the
// achieved rate lands under the floor or any query failed — the CI
// smoke-job contract.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"oreo/client"
	"oreo/internal/load"
	"oreo/internal/workload"
)

func main() {
	var (
		url     = flag.String("url", "", "base URL of a live oreoserve (required)")
		table   = flag.String("table", "orders", "served table the pool targets")
		dataset = flag.String("dataset", "fixture", "template source: fixture|tpch|tpcds|telemetry")
		rows    = flag.Int("rows", 20000, "fixture keyspace: the target table's row count (fixture templates)")
		poolN   = flag.Int("pool", 512, "distinct queries in the generated pool")
		segs    = flag.Int("segments", 4, "workload template segments in the pool")
		seed    = flag.Int64("seed", 1, "pool generation seed")
		in      = flag.String("in", "", "query log to draw the pool from instead of generating")

		n        = flag.Int("n", 0, "stop after this many queries (0 = run for -duration)")
		duration = flag.Duration("duration", 10*time.Second, "run length")
		qps      = flag.Float64("qps", 0, "open-loop target rate (0 = closed loop)")
		conc     = flag.Int("concurrency", 0, "workers: in-flight requests (closed) or send parallelism (open); 0 = 1 closed, 16 open")
		stream   = flag.Bool("stream", false, "use one /v2/query/stream connection per worker (ping-pong) instead of POST /v1/query")
		execute  = flag.Bool("execute", false, "execute each query (scan + count aggregate), not just cost it")

		appendRatio = flag.Float64("append-ratio", 0, "fraction of operations that are live-write appends: every round(1/r)-th operation POSTs a row batch to /v2/tables/{t}/append (0 = read-only; leaders only)")
		appendBatch = flag.Int("append-batch", 1, "rows per append operation (-append-ratio mode)")

		minQPS   = flag.Float64("min-qps", 0, "fail (exit 1) when the achieved rate lands below this floor")
		progress = flag.Bool("progress", true, "print a live progress line every second")
	)
	flag.Parse()
	if err := run(*url, *table, *dataset, *in, *rows, *poolN, *segs, *seed,
		*n, *duration, *qps, *conc, *stream, *execute,
		*appendRatio, *appendBatch, *minQPS, *progress); err != nil {
		fmt.Fprintln(os.Stderr, "oreoload:", err)
		os.Exit(1)
	}
}

func run(url, table, dataset, in string, rows, poolN, segs int, seed int64,
	n int, duration time.Duration, qps float64, conc int, stream, execute bool,
	appendRatio float64, appendBatch int, minQPS float64, progress bool) error {
	if url == "" {
		return fmt.Errorf("-url is required")
	}
	pool, err := buildPool(table, dataset, in, rows, poolN, segs, seed, execute)
	if err != nil {
		return err
	}

	spec := load.Spec{
		URL:         url,
		Queries:     pool,
		Count:       n,
		Duration:    duration,
		QPS:         qps,
		Concurrency: conc,
		Stream:      stream,
	}
	if appendRatio > 0 {
		makeRow := fixtureRowMaker(table, rows)
		if makeRow == nil {
			return fmt.Errorf("-append-ratio needs a fixture-schema table (orders, events), got %q", table)
		}
		spec.AppendRatio = appendRatio
		spec.AppendTable = table
		spec.MakeRow = makeRow
		spec.AppendBatch = appendBatch
	}
	if progress {
		spec.Progress = func(s load.Snapshot) {
			fmt.Fprintf(os.Stderr, "%8s  sent %8d  failed %d  %7.0f qps  p50 %v  p99 %v\n",
				s.Elapsed.Round(time.Second), s.Sent, s.Failed, s.QPS,
				s.P50.Round(time.Microsecond), s.P99.Round(time.Microsecond))
		}
	}

	rep, err := load.Run(context.Background(), spec)
	if err != nil {
		return err
	}
	fmt.Println(rep)
	if rep.Failed > 0 {
		return fmt.Errorf("%d of %d queries failed", rep.Failed, rep.Sent)
	}
	if minQPS > 0 && rep.QPS < minQPS {
		return fmt.Errorf("achieved %.0f qps, floor is %.0f", rep.QPS, minQPS)
	}
	return nil
}

// fixtureRowMaker returns the deterministic append-row generator for a
// fixture-schema table (also the shape -csv CI fixtures use), or nil
// for a table whose schema the generator does not know. Appended keys
// start at rows — past the fixture keyspace — so appended rows are
// range-addressable separately from the boot rows.
func fixtureRowMaker(table string, rows int) func(seq int) client.Row {
	switch table {
	case "orders":
		statuses := []string{"cancelled", "delivered", "pending", "returned"}
		return func(seq int) client.Row {
			return client.Row{
				"order_ts": rows + seq,
				"status":   statuses[seq%len(statuses)],
				"amount":   float64(seq%500) + 0.25,
			}
		}
	case "events":
		users := []string{"alice", "bob", "carol", "dave", "erin"}
		return func(seq int) client.Row {
			return client.Row{
				"ts":      rows + seq,
				"user":    users[seq%len(users)],
				"latency": float64(seq%80) + 0.5,
			}
		}
	}
	return nil
}

// buildPool assembles the query pool: a captured log when -in is set,
// a generated template mix otherwise.
func buildPool(table, dataset, in string, rows, poolN, segs int, seed int64, execute bool) ([]client.Query, error) {
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		qs, err := client.LoadTrace(f)
		if err != nil {
			return nil, err
		}
		if len(qs) == 0 {
			return nil, fmt.Errorf("query log %s is empty", in)
		}
		load.Pin(qs, table, execute)
		return qs, nil
	}
	var templates []workload.Template
	if dataset == "fixture" {
		if templates = workload.FixtureTemplates(table, rows); templates == nil {
			return nil, fmt.Errorf("no fixture templates for table %q (have: orders, events)", table)
		}
	} else if templates = workload.TemplatesFor(dataset); templates == nil {
		return nil, fmt.Errorf("unknown dataset %q (have: fixture, tpch, tpcds, telemetry)", dataset)
	}
	return load.BuildPool(templates, table, poolN, segs, execute, seed)
}
