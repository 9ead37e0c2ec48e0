package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"

	"oreo"
	"oreo/internal/ingest"
	"oreo/internal/serve"
)

// post sends a JSON body and decodes the JSON answer into out.
func post(url string, body, out any) {
	b, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		panic(err)
	}
}

// The loop an execution engine runs against the serving layer: declare
// predicates, get back the cost, the serving layout and the exact
// partitions it must read; every other partition is provably skippable.
func Example_serving() {
	schema := oreo.NewSchema(
		oreo.Column{Name: "order_ts", Type: oreo.Int64},
		oreo.Column{Name: "status", Type: oreo.String},
	)
	const rows = 20000
	rng := rand.New(rand.NewSource(1))
	b := oreo.NewDatasetBuilder(schema, rows)
	statuses := []string{"cancelled", "delivered", "pending", "returned"}
	for i := 0; i < rows; i++ {
		b.AppendRow(oreo.Int(int64(i)), oreo.Str(statuses[rng.Intn(len(statuses))]))
	}
	m := oreo.NewMulti()
	if err := m.AddTable("orders", b.Build(), oreo.Config{
		Alpha: 40, Partitions: 16, WindowSize: 100,
		InitialSort: []string{"order_ts"}, Seed: 7,
	}); err != nil {
		panic(err)
	}
	srv, err := serve.New(m, serve.Config{})
	if err != nil {
		panic(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var qr serve.QueryResponse
	post(ts.URL+"/v1/query", serve.QueryRequest{
		Table: "orders",
		Preds: []serve.PredicateJSON{
			{Col: "order_ts", HasLo: true, HasHi: true, LoI: 4000, HiI: 6000},
		},
	}, &qr)
	r := qr.Results[0]
	fmt.Printf("layout %q costs %.3f of the table for order_ts in [4000, 6000]\n", r.Layout, r.Cost)
	fmt.Printf("read partitions %v, skip the other %d\n",
		r.SurvivorPartitions, r.NumPartitions-len(r.SurvivorPartitions))

	// The serving layout's shape turns the skip-list into rows.
	resp, err := http.Get(ts.URL + "/v1/tables/orders/layout")
	if err != nil {
		panic(err)
	}
	var lr serve.LayoutResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		panic(err)
	}
	resp.Body.Close()
	mustRead := 0
	for _, pid := range r.SurvivorPartitions {
		mustRead += lr.PartitionRows[pid]
	}
	fmt.Printf("that is %d of %d rows touched\n", mustRead, lr.TotalRows)
	// Output:
	// layout "sort(order_ts)" costs 0.125 of the table for order_ts in [4000, 6000]
	// read partitions [3 4], skip the other 14
	// that is 2500 of 20000 rows touched
}

// From a CSV file to an aggregate answer: ingest infers the schema and
// an initial sort column, and an executed query scans only the survivor
// partitions of the materialized store. The fraction of rows the scan
// examined is exactly the cost the optimizer predicted.
func Example_execution() {
	dir, err := os.MkdirTemp("", "oreo-csv")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	var buf bytes.Buffer
	buf.WriteString("order_ts,status,amount\n")
	rng := rand.New(rand.NewSource(3))
	statuses := []string{"cancelled", "delivered", "pending", "returned"}
	for i := 0; i < 20000; i++ {
		fmt.Fprintf(&buf, "%d,%s,%.2f\n", i, statuses[rng.Intn(len(statuses))], rng.Float64()*500)
	}
	if err := os.WriteFile(filepath.Join(dir, "orders.csv"), buf.Bytes(), 0o644); err != nil {
		panic(err)
	}

	tables, err := ingest.LoadDir(dir)
	if err != nil {
		panic(err)
	}
	t := tables[0]
	fmt.Printf("ingested table %q: %d rows, schema %v (sort on %s)\n",
		t.Name, t.Dataset.NumRows(), t.Dataset.Schema().Names(), t.SortCol)
	m := oreo.NewMulti()
	if err := m.AddTable(t.Name, t.Dataset, oreo.Config{
		Alpha: 40, Partitions: 16, WindowSize: 100,
		InitialSort: []string{t.SortCol}, Seed: 7,
	}); err != nil {
		panic(err)
	}
	srv, err := serve.New(m, serve.Config{})
	if err != nil {
		panic(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var qr serve.QueryResponse
	post(ts.URL+"/v1/query", serve.QueryRequest{
		Table: "orders", Execute: true,
		Preds: []serve.PredicateJSON{
			{Col: "order_ts", HasLo: true, HasHi: true, LoI: 4000, HiI: 6000},
			{Col: "status", In: []string{"pending"}},
		},
		Aggs: []serve.AggregateJSON{{Op: "count"}, {Op: "sum", Col: "amount"}, {Op: "max", Col: "amount"}},
	}, &qr)
	r := qr.Results[0]
	ex := r.Execution
	fmt.Printf("layout %q: read %d of %d partitions (%d of %d rows, cost %.3f)\n",
		r.Layout, ex.PartitionsRead, ex.PartitionsTotal, ex.RowsExamined, ex.RowsTotal, r.Cost)
	fmt.Printf("matched %d pending orders in order_ts [4000, 6000]\n", ex.MatchedRows)
	for _, a := range ex.Aggregates {
		switch a.Type {
		case "int64":
			fmt.Printf("  %s(%s) = %d\n", a.Op, a.Col, a.ValueI)
		case "float64":
			fmt.Printf("  %s(%s) = %.2f\n", a.Op, a.Col, a.ValueF)
		}
	}
	// Output:
	// ingested table "orders": 20000 rows, schema [order_ts status amount] (sort on order_ts)
	// layout "sort(order_ts)": read 2 of 16 partitions (2500 of 20000 rows, cost 0.125)
	// matched 520 pending orders in order_ts [4000, 6000]
	//   count() = 520
	//   sum(amount) = 131950.68
	//   max(amount) = 499.53
}
