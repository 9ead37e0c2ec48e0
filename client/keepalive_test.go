package client_test

import (
	"context"
	"net/http/httptrace"
	"testing"

	"oreo/client"
)

// TestConnectionsAreReused pins the keep-alive contract between the
// SDK and the server on both answer sizes: a small unary answer, and a
// 300-query batch answer far larger than net/http's response buffer.
// The transport only returns a connection to its idle pool when the
// body was read to its end, and the end of a chunked body is a
// terminating chunk a decoder that stops at the closing brace never
// reads — so the server states Content-Length on what it holds whole,
// and the client reads to EOF before closing.
func TestConnectionsAreReused(t *testing.T) {
	c := newTestClient(t)
	q := client.Query{Table: "orders", Preds: []client.Predicate{client.IntRange("order_ts", 100, 3900)}}
	batch := make([]client.Query, 300)
	for i := range batch {
		batch[i] = q
		batch[i].ID = i + 1
	}

	const calls = 5
	for _, tc := range []struct {
		name string
		call func(context.Context) error
	}{
		{"unary", func(ctx context.Context) error { _, err := c.Query(ctx, q); return err }},
		{"batch", func(ctx context.Context) error { _, err := c.Batch(ctx, batch); return err }},
	} {
		reused := 0
		ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
			GotConn: func(info httptrace.GotConnInfo) {
				if info.Reused {
					reused++
				}
			},
		})
		for i := 0; i < calls; i++ {
			if err := tc.call(ctx); err != nil {
				t.Fatalf("%s call %d: %v", tc.name, i, err)
			}
		}
		// The first call of the test dials; every later one must find the
		// previous call's connection idle.
		if reused < calls-1 {
			t.Errorf("%s: %d of %d calls reused a connection, want at least %d", tc.name, reused, calls, calls-1)
		}
	}
}
