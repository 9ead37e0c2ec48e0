// Package serve is OREO's online serving layer, split into a
// transport-neutral core and thin wire codecs over it.
//
// Core owns every request semantic: validation, predicate routing
// across tables, costing and survivor skip-list extraction against
// lock-free layout snapshots, row-level execution, and the observation
// hand-off into each table's decision loop. It speaks typed
// request/response structs and typed errors (*Error with an ErrorCode),
// takes a context.Context, and knows nothing about HTTP — which is what
// lets one implementation sit behind multiple transports: the v1 and v2
// HTTP surfaces here today, a gRPC surface or replica fan-out tomorrow,
// and direct in-process embedding always.
//
// Requests are handled per table on independent shards. Each shard runs
// in a read-mostly regime: costing and survivor skip-list extraction —
// the per-request work — run lock-free against an atomically published
// immutable state (oreo.OptimizerSnapshot with the epoch, base and
// delta it was true at), while decision-state updates (admission,
// D-UMTS counters, reorganization) drain through a single background
// consumer — the optimizer's only caller — fed by a bounded queue. The
// request path therefore scales with cores and is never stalled by a
// layout generation in progress; under overload, observations are
// sampled (and counted) instead of applying backpressure to queries.
//
// With "execute": true a query request goes past costing: each shard
// keeps an execution store (internal/exec) — the table's rows
// materialized into one columnar block per partition of the serving
// layout, built lazily on the first execute request so costing-only
// deployments never pay for it — snapshot-swapped by the decision
// consumer in lockstep with the optimizer snapshot whenever a
// reorganization lands. The request scans exactly the survivor
// partitions, re-checks predicates per row, and returns matched-row
// counts plus requested aggregates (count, sum, min, max) next to the
// cost, closing the loop the cost model predicts.
//
// # Wire surfaces
//
// Server mounts two versioned HTTP surfaces over one Core.
//
// /v1 is the original, frozen contract — byte-for-byte, golden-tested:
//
//	POST /v1/query                  predicates in → cost, decision state,
//	                                and the survivor partition skip-list,
//	                                per affected table; "execute" adds
//	                                row counts and aggregates
//	POST /v1/query/batch            the same for many queries in one round
//	                                trip, with per-item (partial) failures
//	GET  /v1/tables                 registered tables
//	GET  /v1/tables/{table}/layout  serving layout, partition row counts
//	GET  /v1/tables/{table}/stats   optimizer counters + memo + shard metrics
//	GET  /v1/tables/{table}/trace   decision trace (needs TraceCapacity)
//	GET  /healthz                   liveness + per-table registry
//
// /v2 carries the same request/response shapes on the same paths, plus
// the streaming bulk endpoint built for log replay and the live write
// path:
//
//	POST /v2/query/stream           NDJSON in → NDJSON out: one
//	                                QueryRequest per line, one BatchItem
//	                                per line back, answered in order from
//	                                the lock-free snapshot path;
//	                                ?flush_every=N controls flushing
//	POST /v2/tables/{table}/append  rows in → durable append into the
//	                                table's delta segment; visible to
//	                                every subsequent query on return
//	POST /v2/tables/{table}/compact fold the delta into the base layout
//	                                now (auto-compaction covers the
//	                                steady state)
//
// A replay client streams a captured query log through one connection
// and one encoder, amortizing the per-request HTTP and JSON overhead
// that dominates POST /v1/query at volume (see BenchmarkStreamVsUnary).
//
// The wire types are internal/wire's, named here by alias (types.go);
// their predicate encoding is the query-log format of internal/persist,
// so captured production logs replay against the server unchanged. The
// public client package speaks both surfaces with the same types and
// stdlib-only dependencies.
//
// Query, batch and stream bodies are decoded and their answers encoded
// by internal/wire's purpose-built codec; a body outside the canonical
// shape falls through to encoding/json (oreo_wire_fallback_total), and
// every other endpoint is encoding/json throughout.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"oreo"
	"oreo/internal/metrics"
	"oreo/internal/wire"
)

// DefaultQueueSize bounds each shard's observation queue when Config
// leaves it zero. One window's worth of headroom per the paper's
// defaults, times a safety factor for bursts.
const DefaultQueueSize = 1024

// DefaultMaxBodyBytes caps request bodies when Config leaves
// MaxBodyBytes zero. 1 MiB holds tens of thousands of wire predicates —
// far beyond any legitimate batch — while keeping a single hostile
// client from buffering unbounded JSON into server memory. On the
// stream endpoint the same figure caps each NDJSON line instead of the
// (unbounded, by design) body.
const DefaultMaxBodyBytes = 1 << 20

// Config parameterizes a Server.
type Config struct {
	// QueueSize bounds each table's decision-observation queue; zero
	// selects DefaultQueueSize. When a shard's queue is full, new
	// queries are answered normally but sampled out of reorganization
	// decisions (the Dropped metric counts them).
	QueueSize int
	// MaxBodyBytes caps each request body; oversized requests are
	// answered 413 with the standard error shape. Zero selects
	// DefaultMaxBodyBytes; negative disables the cap (trusted
	// single-tenant deployments only). Stream requests are capped per
	// line, not per body.
	MaxBodyBytes int64
	// Advertise is the URL this server is reachable at for replication
	// subscribers, surfaced on /healthz (see CoreConfig.Advertise).
	Advertise string
	// ScanParallelism is the execute-path scan worker count; zero
	// selects runtime.NumCPU() (see CoreConfig.ScanParallelism).
	ScanParallelism int
	// CompactThreshold is the delta row count that triggers automatic
	// compaction after an append; zero selects DefaultCompactThreshold,
	// negative disables auto-compaction (see CoreConfig.CompactThreshold).
	CompactThreshold int
}

// Server is the HTTP codec over a serving Core: it decodes bytes,
// calls Core, and encodes the answer — no request semantics live here.
// Construct with New, mount Handler, and Close on shutdown.
type Server struct {
	core    *Core
	mux     *http.ServeMux
	maxBody int64
	// queryFallback, batchFallback and streamFallback count the request
	// bodies (stream: lines) the purpose-built decoder declined to
	// encoding/json — oreo_wire_fallback_total{endpoint}.
	queryFallback, batchFallback, streamFallback *metrics.Counter
}

// New builds an HTTP server over the registered tables. The
// MultiOptimizer (and its per-table Optimizers) must not be used
// directly afterwards: every shard owns its table's decision path.
func New(m *oreo.MultiOptimizer, cfg Config) (*Server, error) {
	core, err := NewCore(m, CoreConfig{
		QueueSize:        cfg.QueueSize,
		Advertise:        cfg.Advertise,
		ScanParallelism:  cfg.ScanParallelism,
		CompactThreshold: cfg.CompactThreshold,
	})
	if err != nil {
		return nil, err
	}
	return NewServer(core, cfg), nil
}

// NewServer mounts the HTTP codec over an existing Core — the path for
// hosts that share one Core between transports. The Server does not
// take ownership: closing it is the caller's Close on the Core.
func NewServer(core *Core, cfg Config) *Server {
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	s := &Server{core: core, mux: http.NewServeMux(), maxBody: cfg.MaxBodyBytes}
	fallback := func(endpoint string) *metrics.Counter {
		return core.Metrics().Counter("oreo_wire_fallback_total",
			"Query bodies (stream: lines) outside the canonical wire shape, decoded by encoding/json instead of the purpose-built codec, by endpoint.",
			metrics.Labels{"endpoint": endpoint})
	}
	s.queryFallback, s.batchFallback, s.streamFallback = fallback("query"), fallback("batch"), fallback("stream")

	// Both versions are codecs over the same Core. v1 is the frozen
	// compatibility surface; v2 adds the streaming bulk endpoint. Every
	// route is wrapped in the metrics middleware (request counter per
	// status code plus a latency histogram, labeled by endpoint; v1 and
	// v2 share series — same Core, same semantics).
	for _, v := range []string{"/v1", "/v2"} {
		s.mux.HandleFunc("POST "+v+"/query", s.instrument("query", s.handleQuery))
		s.mux.HandleFunc("POST "+v+"/query/batch", s.instrument("batch", s.handleBatch))
		s.mux.HandleFunc("GET "+v+"/tables", s.instrument("tables", s.handleTables))
		s.mux.HandleFunc("GET "+v+"/tables/{table}/layout", s.instrument("layout", s.handleLayout))
		s.mux.HandleFunc("GET "+v+"/tables/{table}/stats", s.instrument("stats", s.handleStats))
		s.mux.HandleFunc("GET "+v+"/tables/{table}/trace", s.instrument("trace", s.handleTrace))
	}
	// The stream histogram measures whole-stream wall time (one sample
	// per connection, not per NDJSON line); per-query stream latency is
	// a client-side measurement (oreoload, oreoreplay).
	s.mux.HandleFunc("POST /v2/query/stream", s.instrument("stream", s.handleStream))
	// The live write path is /v2-only: /v1 is the frozen read-replay
	// contract and gains no routes.
	s.mux.HandleFunc("POST /v2/tables/{table}/append", s.instrument("append", s.handleAppend))
	s.mux.HandleFunc("POST /v2/tables/{table}/compact", s.instrument("compact", s.handleCompact))
	s.mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealth))
	reg := core.Metrics()
	s.mux.HandleFunc("GET /metrics", s.instrument("metrics", func(w http.ResponseWriter, r *http.Request) {
		reg.Handler().ServeHTTP(w, r)
	}))
	return s
}

// instrument wraps a handler in the per-endpoint middleware: an
// oreo_http_requests_total{endpoint,code} counter and an
// oreo_http_request_duration_seconds{endpoint} histogram. The 200
// counter and the histogram are resolved once at registration so the
// common path records with two atomic adds; non-200 counters go
// through the registry's get-or-create (rare by construction).
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	const (
		reqHelp = "HTTP requests answered, by endpoint and status code."
		durHelp = "HTTP request latency in seconds, by endpoint; the stream endpoint measures whole-stream wall time."
	)
	reg := s.core.Metrics()
	hist := reg.Histogram("oreo_http_request_duration_seconds", durHelp,
		metrics.LatencyBuckets(), metrics.Labels{"endpoint": endpoint})
	ok := reg.Counter("oreo_http_requests_total", reqHelp,
		metrics.Labels{"endpoint": endpoint, "code": "200"})
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w}
		h(rec, r)
		if rec.code == 0 || rec.code == http.StatusOK {
			ok.Inc()
		} else {
			reg.Counter("oreo_http_requests_total", reqHelp,
				metrics.Labels{"endpoint": endpoint, "code": strconv.Itoa(rec.code)}).Inc()
		}
		hist.ObserveDuration(time.Since(start))
	}
}

// statusRecorder captures the response status for the middleware.
// Unwrap keeps http.ResponseController working through the wrapper —
// the stream handler flushes per line via the controller, which
// unwraps to reach the real connection.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.code == 0 {
		sr.code = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Unwrap() http.ResponseWriter { return sr.ResponseWriter }

// Core returns the serving core behind the HTTP codec, for hosts that
// want to answer in-process requests or mount additional transports
// over the same shards.
func (s *Server) Core() *Core { return s.core }

// Handler returns the server's HTTP handler, for mounting into an
// http.Server (the caller owns listening and TLS).
func (s *Server) Handler() http.Handler { return s.mux }

// Mount registers an additional handler on the server's mux — the hook
// a host uses to attach transports this package does not know about,
// such as the replication endpoints of internal/replica
// (POST /v2/replication/subscribe, POST /v2/replication/observe).
// Patterns use net/http mux syntax and must not collide with the
// built-in routes.
func (s *Server) Mount(pattern string, h http.Handler) { s.mux.Handle(pattern, h) }

// Close shuts the core's shards down gracefully: observation queues
// stop accepting, their consumers drain what was already queued, and
// the call returns when every decision loop is quiet. Call after the
// HTTP listener has stopped accepting requests.
func (s *Server) Close() { s.core.Close() }

// decodeBodyNumber decodes a JSON request body under the configured
// size cap, writing the error response itself on failure: an oversized
// body is 413 with the standard error shape, everything else malformed
// is 400. Numbers decode as json.Number — these bodies carry row data,
// where float64 coercion would lose int64 precision.
func (s *Server) decodeBodyNumber(w http.ResponseWriter, r *http.Request, v any) bool {
	return decodeGeneral(w, s.capped(w, r), v, true)
}

// capped is the request body under the configured size cap.
func (s *Server) capped(w http.ResponseWriter, r *http.Request) io.Reader {
	if s.maxBody > 0 {
		return http.MaxBytesReader(w, r.Body, s.maxBody)
	}
	return r.Body
}

// decodeGeneral is the encoding/json decode of a request body, and the
// one place its failures are worded.
func decodeGeneral(w http.ResponseWriter, body io.Reader, v any, useNumber bool) bool {
	dec := json.NewDecoder(body)
	if useNumber {
		dec.UseNumber()
	}
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return false
	}
	return true
}

// decodeWire decodes a query body: read whole under the size cap into a
// pooled buffer, offered to the purpose-built decoder, and — when that
// declines, or the read itself failed — replayed to encoding/json, read
// error included, so every body is answered as encoding/json alone
// would answer it. The choice is made by the bytes; fallback counts the
// declines.
func decodeWire[T any](s *Server, w http.ResponseWriter, r *http.Request, fallback *metrics.Counter, fast func([]byte, *T) bool, v *T) bool {
	bp := wire.GetBuffer()
	defer wire.PutBuffer(bp)
	var err error
	*bp, err = wire.ReadAll(*bp, s.capped(w, r), r.ContentLength)
	if err == nil && fast(*bp, v) {
		return true
	}
	fallback.Inc()
	return decodeGeneral(w, &wire.Replay{Data: *bp, Err: err}, v, false)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !decodeWire(s, w, r, s.queryFallback, wire.DecodeQueryRequest, &req) {
		return
	}
	results, err := s.core.Answer(r.Context(), req)
	if err != nil {
		writeError(w, httpStatus(err), err)
		return
	}
	bp := wire.GetBuffer()
	defer wire.PutBuffer(bp)
	*bp, err = wire.AppendQueryResponse(*bp, &QueryResponse{Results: results})
	writeEncoded(w, http.StatusOK, bp, err)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !decodeWire(s, w, r, s.batchFallback, wire.DecodeBatchRequest, &req) {
		return
	}
	resp, err := s.core.Batch(r.Context(), req)
	if err != nil {
		writeError(w, httpStatus(err), err)
		return
	}
	bp := wire.GetBuffer()
	defer wire.PutBuffer(bp)
	*bp, err = wire.AppendBatchResponse(*bp, &resp)
	writeEncoded(w, http.StatusOK, bp, err)
}

func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{"tables": s.core.Tables()})
}

func (s *Server) handleLayout(w http.ResponseWriter, r *http.Request) {
	resp, err := s.core.Layout(r.PathValue("table"))
	if err != nil {
		writeError(w, httpStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp, err := s.core.Stats(r.PathValue("table"))
	if err != nil {
		writeError(w, httpStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	resp, err := s.core.Trace(r.PathValue("table"))
	if err != nil {
		writeError(w, httpStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleAppend decodes with json.Number enabled: append rows carry
// arbitrary client numbers, and the default float64 decode would
// silently round int64 cells above 2⁵³ before the typed conversion
// could reject them.
func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	var req AppendRequest
	if !s.decodeBodyNumber(w, r, &req) {
		return
	}
	resp, err := s.core.Append(r.Context(), r.PathValue("table"), req.Rows)
	if err != nil {
		writeError(w, httpStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	resp, err := s.core.Compact(r.Context(), r.PathValue("table"))
	if err != nil {
		writeError(w, httpStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.core.Health())
}

// writeJSON marshals before writing the status line, so an
// unencodable value becomes an honest 500 instead of an empty body
// under an already-committed 200.
func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	writeEncoded(w, status, &data, err)
}

// writeEncoded writes an encoded body (or, if encoding failed, the 500
// that says so) and its newline. It holds the whole body, so it states
// Content-Length itself: net/http only does that for answers that fit
// its write buffer, and sends the rest chunked.
func writeEncoded(w http.ResponseWriter, status int, body *[]byte, err error) {
	if err != nil {
		*body, status = append((*body)[:0], `{"error":"response not encodable"}`...), http.StatusInternalServerError
	}
	*body = append(*body, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(*body)))
	w.WriteHeader(status)
	_, _ = w.Write(*body)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}
