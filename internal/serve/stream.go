package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"oreo/internal/wire"
)

// DefaultStreamFlushEvery is how many response lines the stream
// endpoint buffers between flushes when the client does not override
// it. Large enough to amortize syscalls across a bulk replay, small
// enough that an interactive client is never more than a few dozen
// answers behind.
const DefaultStreamFlushEvery = 64

// handleStream is POST /v2/query/stream: the bulk replay endpoint.
//
// The request body is NDJSON — one QueryRequest per line — and the
// response is NDJSON of BatchItem lines, one per request line, in input
// order, each carrying the line's zero-based index and echoed ID. Like
// a batch, failures are per-line: a malformed or unanswerable line
// yields an item with "error" set and the stream continues, so one bad
// query in a million-line replay costs one line, not the connection.
//
// Every line is answered through the same Core as /v1/query — the
// lock-free snapshot path plus the observation hand-off — so a
// replayed log teaches the optimizer exactly as individual requests
// would, while paying connection setup, header parsing, and flush
// syscalls once per stream instead of once per query.
//
// Flushing is client-controlled via ?flush_every=N (default
// DefaultStreamFlushEvery): N=1 turns the stream into a low-latency
// ping-pong for interactive use, large N maximizes replay throughput.
// Responses always flush when the input is exhausted.
//
// MaxBodyBytes caps each *line*, not the body: a stream is unbounded
// by design, but no single query may exceed what the unary endpoint
// would accept. An over-long line (or any read failure) terminates the
// stream with a final error item, so truncation is never silent.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	flushEvery := DefaultStreamFlushEvery
	if v := r.URL.Query().Get("flush_every"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("flush_every must be a positive integer, got %q", v))
			return
		}
		flushEvery = n
	}

	// Interleaving reads of the request body with response writes needs
	// full-duplex HTTP/1; without it the Go server discards the unread
	// body at the first write. Unsupported writers (recorders, exotic
	// middleware) fall back to ordinary half-duplex, which still works
	// for bodies the transport buffers.
	rc := http.NewResponseController(w)
	_ = rc.EnableFullDuplex()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	// Push the status line out immediately: a streaming client decides
	// "accepted vs rejected" from the headers, and with a large flush
	// threshold the first data flush could otherwise be megabytes away.
	_ = rc.Flush()
	bw := bufio.NewWriter(w)
	// out is the answer line under construction, reused across lines. A
	// failed write means the client is gone; an item JSON cannot spell
	// (a non-finite cost) ends the stream the same way, unwritten.
	var out []byte
	emit := func(item *BatchItem) bool {
		var err error
		if out, err = wire.AppendBatchItem(out[:0], item); err != nil {
			return false
		}
		out = append(out, '\n')
		_, err = bw.Write(out)
		return err == nil
	}
	flush := func() {
		_ = bw.Flush()
		_ = rc.Flush()
	}

	maxLine := int(s.maxBody)
	if s.maxBody < 0 {
		// Cap disabled: the stream must accept at least whatever the
		// unary endpoint would. A scanner still needs *some* ceiling;
		// 1 GiB is effectively "no cap" for a single query line while
		// keeping a runaway line from exhausting memory unbounded (the
		// buffer grows on demand, so well-formed streams never pay it).
		maxLine = 1 << 30
	}
	// The scanner's effective cap is max(cap(buf), maxLine), so the
	// initial buffer must not exceed the configured line cap.
	initial := 64 * 1024
	if maxLine < initial {
		initial = maxLine
	}
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 0, initial), maxLine)

	ctx := r.Context()
	idx := 0
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue // blank lines are separators, not queries
		}
		item := BatchItem{Index: idx}
		var req QueryRequest
		var err error
		if !wire.DecodeQueryRequest(line, &req) {
			s.streamFallback.Inc()
			err = json.Unmarshal(line, &req)
		}
		if err != nil {
			item.Error = fmt.Sprintf("decoding request: %v", err)
		} else {
			item.ID = req.ID
			results, err := s.core.Answer(ctx, req)
			if err != nil {
				item.Error = err.Error()
			} else {
				item.Results = results
			}
		}
		if !emit(&item) {
			return // nothing left to tell the client
		}
		idx++
		if idx%flushEvery == 0 {
			flush()
		}
		if ctx.Err() != nil {
			return
		}
	}
	if err := sc.Err(); err != nil {
		// A terminal error item, so the client can distinguish "input
		// ended" from "input failed" — an over-long line surfaces here
		// with the configured cap named.
		msg := fmt.Sprintf("reading stream: %v", err)
		if errors.Is(err, bufio.ErrTooLong) {
			msg = fmt.Sprintf("reading stream: line exceeds %d bytes", maxLine)
		}
		emit(&BatchItem{Index: idx, Error: msg})
	}
	flush()
}
