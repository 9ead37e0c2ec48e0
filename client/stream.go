package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"oreo/internal/wire"
)

// Stream is one open POST /v2/query/stream connection: NDJSON queries
// up, NDJSON answers down, pipelined. Send and Recv may run from two
// goroutines (that is how Replay uses them); neither is safe for
// concurrent use with itself.
//
// The protocol is pipelined, not ping-pong: the server answers in
// input order but never waits for the client to read, so a caller may
// send its whole replay before the first Recv — as long as something
// eventually drains the answers. Interactive callers that Send one,
// Recv one should open the stream with WithFlushEvery(1).
type Stream struct {
	pw     *io.PipeWriter
	respCh chan streamResp
	resp   *http.Response
	// respErr remembers a terminal failure (transport error, non-200
	// stream): later Recv calls re-return it and Close knows the
	// background exchange was already reaped.
	respErr error
	sent    int
	// out is the query line under construction, reused across Sends (a
	// pipe write returns only once the transport has taken the bytes).
	out []byte
	// in[read:] is what has been read off the answer body and not yet
	// returned by Recv; readErr is what ended the body (io.EOF, or the
	// failure), kept to be reported once in[read:] has been used up.
	in      []byte
	read    int
	readErr error
}

type streamResp struct {
	resp *http.Response
	err  error
}

// StreamOption configures an OpenStream call.
type StreamOption func(*streamConfig)

type streamConfig struct {
	flushEvery int
}

// WithFlushEvery asks the server to flush answers every n lines
// (n >= 1). The server default amortizes flushes for bulk replay;
// n=1 makes each answer available as soon as its query is processed,
// the right setting for request/response-style use of a stream.
func WithFlushEvery(n int) StreamOption {
	return func(c *streamConfig) { c.flushEvery = n }
}

// OpenStream opens a v2 query stream. The returned Stream must be
// closed; cancel ctx to abandon it mid-flight.
func (c *Client) OpenStream(ctx context.Context, opts ...StreamOption) (*Stream, error) {
	var cfg streamConfig
	for _, o := range opts {
		o(&cfg)
	}
	path := c.base + "/v2/query/stream"
	if cfg.flushEvery != 0 {
		// Sent as given, even when out of range: validation is the
		// server's, and its rejection surfaces as a typed *APIError.
		path += "?flush_every=" + strconv.Itoa(cfg.flushEvery)
	}
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, path, pr)
	if err != nil {
		pw.Close()
		return nil, fmt.Errorf("client: building stream request: %w", err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")

	st := &Stream{pw: pw, respCh: make(chan streamResp, 1)}
	// The response cannot be awaited here: with a flush threshold the
	// server may not emit headers until answers flow, and answers flow
	// only after the caller Sends. Run the exchange in the background
	// and rendezvous on first Recv.
	go func() {
		resp, err := c.hc.Do(req)
		st.respCh <- streamResp{resp, err}
	}()
	return st, nil
}

// Send pipelines one query up the stream. Each query is one NDJSON
// line, written in a single pipe write so HTTP chunking flushes it to
// the wire whole — the server sees complete lines, never a partial
// JSON document awaiting the next chunk.
func (s *Stream) Send(q Query) error {
	var err error
	if s.out, err = wire.AppendQueryRequest(s.out[:0], &q); err != nil {
		return fmt.Errorf("client: encoding query: %w", err)
	}
	s.out = append(s.out, '\n')
	if _, err := s.pw.Write(s.out); err != nil {
		return fmt.Errorf("client: stream send: %w", err)
	}
	s.sent++
	return nil
}

// CloseSend half-closes the stream: no more queries will be sent, and
// the server answers what it has and ends the response. Recv then
// drains the remaining answers and returns io.EOF.
func (s *Stream) CloseSend() error { return s.pw.Close() }

// rendezvous waits (once) for the background exchange's response. A
// terminal failure is remembered in respErr, so every later call — and
// Close — sees it instead of blocking on a channel that will never
// deliver again, or decoding through a body that never existed.
func (s *Stream) rendezvous() error {
	if s.respErr != nil {
		return s.respErr
	}
	if s.resp != nil {
		return nil
	}
	r := <-s.respCh
	if r.err != nil {
		s.respErr = fmt.Errorf("client: stream: %w", r.err)
		return s.respErr
	}
	if r.resp.StatusCode != http.StatusOK {
		s.respErr = decodeAPIError(r.resp)
		r.resp.Body.Close()
		return s.respErr
	}
	s.resp = r.resp
	return nil
}

// Recv returns the next answer, in input order; io.EOF after the last
// one (once CloseSend was called). A non-200 stream (bad flush_every,
// proxy failure) surfaces as *APIError, on this and every later call.
func (s *Stream) Recv() (*BatchItem, error) {
	if err := s.rendezvous(); err != nil {
		return nil, err
	}
	line := s.nextLine()
	for len(line) > 0 && len(bytes.TrimSpace(line)) == 0 {
		s.read += len(line) // blank lines separate answers
		line = s.nextLine()
	}
	if len(line) == 0 {
		// The body has ended, as encoding/json would report it.
		if s.readErr == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("client: decoding stream answer: %w", s.readErr)
	}
	var item BatchItem
	if wire.DecodeBatchItem(line, &item) {
		s.read += len(line)
		return &item, nil
	}
	// Not the canonical line a server's encoder writes: encoding/json
	// decodes the next value from the same bytes, running on into the
	// body as far as it needs; what it read past the value goes back in
	// front of the unread bytes.
	dec := json.NewDecoder(streamTail{s})
	err := dec.Decode(&item)
	rest, _ := io.ReadAll(dec.Buffered())
	s.in, s.read = append(rest, s.in[s.read:]...), 0
	if err != nil {
		return nil, fmt.Errorf("client: decoding stream answer: %w", err)
	}
	return &item, nil
}

// nextLine returns the unread bytes through the first newline, reading
// more of the body as needed: the protocol is one answer per line, and
// Recv waits for the line's end before it looks at the answer. Once the
// body has ended it returns what is left, without a newline; s.readErr
// then says how it ended.
func (s *Stream) nextLine() []byte {
	searched := s.read
	for {
		if i := bytes.IndexByte(s.in[searched:], '\n'); i >= 0 {
			return s.in[s.read : searched+i+1]
		}
		if s.readErr != nil {
			return s.in[s.read:]
		}
		searched = len(s.in)
		if s.read > 0 && s.read == len(s.in) {
			s.in, s.read, searched = s.in[:0], 0, 0
		}
		if len(s.in) == cap(s.in) {
			// Full: make room by dropping what Recv has returned, and
			// by doubling when the unread part alone fills the buffer.
			grown := s.in[:0]
			if unread := len(s.in) - s.read; 2*unread >= cap(s.in) {
				grown = make([]byte, 0, max(4096, 2*cap(s.in)))
			}
			searched -= s.read
			s.in, s.read = append(grown, s.in[s.read:]...), 0
		}
		n, err := s.resp.Body.Read(s.in[len(s.in):cap(s.in)])
		s.in, s.readErr = s.in[:len(s.in)+n], err
	}
}

// streamTail reads a Stream's unread answer bytes and then the rest of
// its body — the stream as encoding/json would have read it.
type streamTail struct{ s *Stream }

func (t streamTail) Read(p []byte) (int, error) {
	s := t.s
	if s.read < len(s.in) {
		n := copy(p, s.in[s.read:])
		s.read += n
		return n, nil
	}
	if s.readErr != nil {
		return 0, s.readErr
	}
	n, err := s.resp.Body.Read(p)
	s.readErr = err
	return n, err
}

// Sent reports how many queries have been sent on the stream.
func (s *Stream) Sent() int { return s.sent }

// Close tears the stream down. Safe after CloseSend, after Recv
// returned io.EOF, and after any error; call it (usually deferred) on
// every path.
func (s *Stream) Close() error {
	s.pw.CloseWithError(io.ErrClosedPipe)
	if s.resp == nil && s.respErr == nil {
		// The background Do may still be in flight; reap it so the
		// goroutine and connection are not leaked. A failed exchange
		// was already fully cleaned up when the failure was recorded.
		if r := <-s.respCh; r.resp != nil {
			s.resp = r.resp
		} else {
			s.respErr = r.err
		}
	}
	if s.resp == nil {
		return nil
	}
	return s.resp.Body.Close()
}

// Replay streams every query through one /v2/query/stream connection —
// sending and receiving concurrently, so arbitrarily large replays
// never deadlock on transport buffers — and returns the answers in
// input order. onItem, when non-nil, observes each answer as it
// arrives (progress meters, incremental aggregation). Per-query
// failures ride in each item's Error; only transport-level failures
// fail the call.
func (c *Client) Replay(ctx context.Context, queries []Query, onItem func(BatchItem)) ([]BatchItem, error) {
	st, err := c.OpenStream(ctx)
	if err != nil {
		return nil, err
	}
	defer st.Close()

	sendErr := make(chan error, 1)
	go func() {
		for _, q := range queries {
			if err := st.Send(q); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- st.CloseSend()
	}()

	items := make([]BatchItem, 0, len(queries))
	for {
		item, err := st.Recv()
		if err == io.EOF {
			break
		}
		if err != nil {
			// Prefer the send-side error when both failed: it is the
			// root cause (a dead pipe makes Recv fail too).
			select {
			case serr := <-sendErr:
				if serr != nil {
					return nil, serr
				}
			default:
			}
			return nil, err
		}
		if onItem != nil {
			onItem(*item)
		}
		items = append(items, *item)
	}
	if err := <-sendErr; err != nil {
		return nil, err
	}
	if len(items) != len(queries) {
		return nil, fmt.Errorf("client: replay answered %d of %d queries", len(items), len(queries))
	}
	return items, nil
}
