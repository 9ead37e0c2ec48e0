// Package client is the typed Go SDK for OREO's serving API.
//
// It speaks both wire surfaces of the server (internal/serve behind
// cmd/oreoserve): the frozen v1 unary endpoints and the v2 streaming
// bulk endpoint built for query-log replay. The package is
// transitively standard library only: embedding it pulls in nothing of
// OREO but internal/wire, itself standard library only. The server's
// wire types and their codec are declared there, and the SDK's types
// are those same types, by alias. Its predicate encoding is exactly the
// query-log format, so a captured production log is a valid request
// stream as-is.
//
//	c, err := client.New("http://localhost:8080")
//	results, err := c.Query(ctx, client.Query{
//		Table: "orders",
//		Preds: []client.Predicate{client.IntRange("order_ts", 100, 900)},
//	})
//
// For bulk replay, Stream opens one POST /v2/query/stream connection
// and pipelines NDJSON both ways; Replay drives a whole query slice
// through it with concurrent send/receive:
//
//	items, err := c.Replay(ctx, queries, nil)
//
// Live writes go through Append (one durable batch), BulkLoad (a large
// slice in ordered batches), and Compact (fold the delta segment into
// the base layout now) — leaders only; followers converge through the
// replication stream:
//
//	ack, err := c.Append(ctx, "orders", []client.Row{
//		{"order_ts": 1700000001, "status": "new", "amount": 12.5},
//	})
//
// Failures surface as *APIError carrying the HTTP status and server
// message; errors.Is(err, client.ErrNotFound) (and ErrInvalid,
// ErrTooLarge, ErrUnavailable) matches without status-code arithmetic
// at call sites.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"

	"oreo/internal/wire"
)

// Sentinel errors for errors.Is matching against *APIError answers.
var (
	// ErrInvalid matches any 400: malformed predicate shape, unknown
	// column, empty batch, aggregates without execute.
	ErrInvalid = errors.New("invalid request")
	// ErrNotFound matches any 404: unknown table.
	ErrNotFound = errors.New("not found")
	// ErrTooLarge matches any 413: request body over the server's cap.
	ErrTooLarge = errors.New("request too large")
	// ErrUnavailable matches any 503: a follower that has not applied
	// its first snapshot yet, a table mid-promotion, or a server
	// shutting down. Unlike the other sentinels it marks a transient
	// condition — controllers and load tools retry it instead of
	// treating it as a real failure.
	ErrUnavailable = errors.New("temporarily unavailable")
)

// APIError is a non-2xx server answer, rebuilt from the standard error
// body. It wraps the matching sentinel so call sites use errors.Is.
type APIError struct {
	// StatusCode is the HTTP status the server answered with.
	StatusCode int
	// Message is the server's error text, verbatim.
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("server answered %d: %s", e.StatusCode, e.Message)
}

// Is maps status codes onto the package sentinels, so
// errors.Is(err, ErrNotFound) works on any error this SDK returns.
func (e *APIError) Is(target error) bool {
	switch target {
	case ErrInvalid:
		return e.StatusCode == http.StatusBadRequest
	case ErrNotFound:
		return e.StatusCode == http.StatusNotFound
	case ErrTooLarge:
		return e.StatusCode == http.StatusRequestEntityTooLarge
	case ErrUnavailable:
		return e.StatusCode == http.StatusServiceUnavailable
	}
	return false
}

// Client talks to one OREO server. It is safe for concurrent use; all
// methods honor their context.
type Client struct {
	base string
	hc   *http.Client
	// The two endpoints every query goes to, parsed once.
	queryURL, batchURL *url.URL
}

const (
	queryPath = "/v1/query"
	batchPath = "/v1/query/batch"
)

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (custom
// timeouts, transports, instrumentation). The default is a dedicated
// client with no global timeout — streams are long-lived by design;
// bound individual calls with their context instead.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// New builds a client for the server at baseURL (scheme + host[:port],
// with or without a trailing slash).
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("client: parsing base URL: %w", err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("client: base URL %q must be http or https", baseURL)
	}
	c := &Client{base: strings.TrimRight(u.String(), "/"), hc: &http.Client{}}
	if c.queryURL, err = url.Parse(c.base + queryPath); err != nil {
		return nil, fmt.Errorf("client: parsing base URL: %w", err)
	}
	if c.batchURL, err = url.Parse(c.base + batchPath); err != nil {
		return nil, fmt.Errorf("client: parsing base URL: %w", err)
	}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// Query answers one query: per-table cost, survivor skip-list, and —
// with Execute set — row counts and aggregates.
func (c *Client) Query(ctx context.Context, q Query) ([]TableResult, error) {
	body, err := wire.AppendQueryRequest(make([]byte, 0, 512), &q)
	if err != nil {
		return nil, fmt.Errorf("client: encoding request: %w", err)
	}
	var resp wire.QueryResponse
	canonical := func(answer []byte) bool { return wire.DecodeQueryResponse(answer, &resp) }
	if err := c.roundTrip(ctx, http.MethodPost, c.queryURL, body, canonical, &resp); err != nil {
		return nil, err
	}
	return resp.Results, nil
}

// Batch answers many queries in one round trip under the server's
// partial-failure contract: the call fails only if the whole batch
// does; per-query failures come back in each item's Error.
func (c *Client) Batch(ctx context.Context, queries []Query) ([]BatchItem, error) {
	body, err := wire.AppendBatchRequest(make([]byte, 0, 256*(1+len(queries))), &wire.BatchRequest{Queries: queries})
	if err != nil {
		return nil, fmt.Errorf("client: encoding request: %w", err)
	}
	var resp wire.BatchResponse
	canonical := func(answer []byte) bool { return wire.DecodeBatchResponse(answer, &resp) }
	if err := c.roundTrip(ctx, http.MethodPost, c.batchURL, body, canonical, &resp); err != nil {
		return nil, err
	}
	return resp.Results, nil
}

// Tables lists the served tables in registration order.
func (c *Client) Tables(ctx context.Context) ([]string, error) {
	var resp struct {
		Tables []string `json:"tables"`
	}
	if err := c.get(ctx, "/v1/tables", &resp); err != nil {
		return nil, err
	}
	return resp.Tables, nil
}

// Layout reports a table's serving layout and partition row counts.
func (c *Client) Layout(ctx context.Context, table string) (*Layout, error) {
	var l Layout
	if err := c.get(ctx, "/v1/tables/"+url.PathEscape(table)+"/layout", &l); err != nil {
		return nil, err
	}
	return &l, nil
}

// TableStats reports a table's optimizer counters and serving metrics.
func (c *Client) TableStats(ctx context.Context, table string) (*TableStats, error) {
	var s TableStats
	if err := c.get(ctx, "/v1/tables/"+url.PathEscape(table)+"/stats", &s); err != nil {
		return nil, err
	}
	return &s, nil
}

// Trace reports a table's decision trace (empty unless the server was
// configured with tracing).
func (c *Client) Trace(ctx context.Context, table string) (*Trace, error) {
	var tr Trace
	if err := c.get(ctx, "/v1/tables/"+url.PathEscape(table)+"/trace", &tr); err != nil {
		return nil, err
	}
	return &tr, nil
}

// Health reports server liveness and cross-table serving totals.
func (c *Client) Health(ctx context.Context) (*Health, error) {
	var h Health
	if err := c.get(ctx, "/healthz", &h); err != nil {
		return nil, err
	}
	return &h, nil
}

// Promote asks a follower to become the fleet's leader, over
// POST /v2/cluster/promote — the failover hand-off a cluster
// controller drives when the leader stops answering. The follower
// detaches from its (dead) upstream, starts its own optimizer from the
// replicated state, and begins publishing one fencing generation above
// the one it last applied. The answer is the server's post-promotion
// health report; leaders and already-promoted followers answer 400.
func (c *Client) Promote(ctx context.Context) (*Health, error) {
	var h Health
	if err := c.post(ctx, "/v2/cluster/promote", struct{}{}, &h); err != nil {
		return nil, err
	}
	return &h, nil
}

// Append lands rows in a table's delta segment over
// POST /v2/tables/{t}/append — the live write path, leaders only. On
// return the rows are durable and visible to every query on the
// answering server; followers converge through the replication stream.
// The whole batch lands or none of it does.
func (c *Client) Append(ctx context.Context, table string, rows []Row) (*AppendResult, error) {
	req := struct {
		Rows []Row `json:"rows"`
	}{rows}
	var res AppendResult
	if err := c.post(ctx, "/v2/tables/"+url.PathEscape(table)+"/append", req, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// DefaultBulkLoadBatch is the per-request row count BulkLoad uses when
// the caller passes batchSize <= 0: large enough to amortize the HTTP
// round trip, small enough to stay far under the server's default
// request body cap.
const DefaultBulkLoadBatch = 1000

// BulkLoad appends a large row slice in batches of batchSize
// (DefaultBulkLoadBatch when <= 0), returning the final acknowledgment
// with Appended summed over every batch. Batches land in order, each
// durable before the next is sent; a mid-load failure returns the
// error alongside the last successful acknowledgment, so the caller
// knows exactly how many rows landed.
func (c *Client) BulkLoad(ctx context.Context, table string, rows []Row, batchSize int) (*AppendResult, error) {
	if batchSize <= 0 {
		batchSize = DefaultBulkLoadBatch
	}
	total := 0
	var last *AppendResult
	for start := 0; start < len(rows); start += batchSize {
		end := start + batchSize
		if end > len(rows) {
			end = len(rows)
		}
		res, err := c.Append(ctx, table, rows[start:end])
		if err != nil {
			if last != nil {
				last.Appended = total
			}
			return last, fmt.Errorf("client: bulk load failed after %d of %d rows: %w", total, len(rows), err)
		}
		total += res.Appended
		last = res
	}
	if last != nil {
		last.Appended = total
	}
	return last, nil
}

// Compact asks the server to fold a table's delta segment into its
// base layout now, over POST /v2/tables/{t}/compact. Folding an empty
// delta is a no-op success — safe to call in a settle loop.
func (c *Client) Compact(ctx context.Context, table string) (*CompactResult, error) {
	var res CompactResult
	if err := c.post(ctx, "/v2/tables/"+url.PathEscape(table)+"/compact", struct{}{}, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// LoadTrace parses a query-log / trace file (JSON lines, the
// internal/persist encoding) into replayable queries. Blank lines are
// skipped; any malformed line — bad JSON, or a predicate of a shape the
// server refuses — fails loudly with its line number: silently dropping
// captured queries would bias a replay. A line's template identity is
// not part of a request and is dropped.
func LoadTrace(r io.Reader) ([]Query, error) {
	log, err := wire.ReadQueryLog(r)
	if err != nil {
		return nil, fmt.Errorf("client: trace %w", err)
	}
	var out []Query
	for _, q := range log {
		out = append(out, Query{Table: q.Table, ID: q.ID, Preds: q.Preds})
	}
	return out, nil
}

// post sends a JSON body and decodes a JSON answer with encoding/json —
// every POST but the query shapes, which have their own codec.
func (c *Client) post(ctx context.Context, path string, body, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("client: encoding request: %w", err)
	}
	u, err := url.Parse(c.base + path)
	if err != nil {
		return fmt.Errorf("client: building request: %w", err)
	}
	return c.roundTrip(ctx, http.MethodPost, u, data, nil, out)
}

// get fetches and decodes a JSON answer.
func (c *Client) get(ctx context.Context, path string, out any) error {
	u, err := url.Parse(c.base + path)
	if err != nil {
		return fmt.Errorf("client: building request: %w", err)
	}
	return c.roundTrip(ctx, http.MethodGet, u, nil, nil, out)
}

// roundTrip sends one request (body nil: none) and decodes the 200
// answer into out. The answer is read whole — to EOF, which is what
// lets the transport keep the connection — into a pooled buffer and
// offered to canonical, the purpose-built decoder of the endpoint's
// shape (nil: none); whatever that declines, encoding/json decodes from
// the same bytes, the read's own error included.
func (c *Client) roundTrip(ctx context.Context, method string, u *url.URL, body []byte, canonical func([]byte) bool, out any) error {
	// http.NewRequest without its URL parse: u was parsed once.
	req := (&http.Request{
		Method: method, URL: u, Host: u.Host,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: make(http.Header, 1),
	}).WithContext(ctx)
	if body != nil {
		req.Header["Content-Type"] = []string{"application/json"}
		req.ContentLength = int64(len(body))
		// The transport rewinds with GetBody to retry on a connection
		// the server closed while it sat idle.
		req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(body)), nil }
		req.Body, _ = req.GetBody()
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeAPIError(resp)
	}
	bp := wire.GetBuffer()
	defer wire.PutBuffer(bp)
	*bp, err = wire.ReadAll(*bp, resp.Body, resp.ContentLength)
	if err == nil && canonical != nil && canonical(*bp) {
		return nil
	}
	if err := json.NewDecoder(&wire.Replay{Data: *bp, Err: err}).Decode(out); err != nil {
		return fmt.Errorf("client: decoding response: %w", err)
	}
	return nil
}

// decodeAPIError rebuilds the typed error from the standard error
// body, falling back to the raw bytes for non-JSON answers (proxies,
// the mux's own 404/405 text).
func decodeAPIError(resp *http.Response) error {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 64*1024))
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(data, &e); err == nil && e.Error != "" {
		return &APIError{StatusCode: resp.StatusCode, Message: e.Error}
	}
	return &APIError{StatusCode: resp.StatusCode, Message: strings.TrimSpace(string(data))}
}
