package replica

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// maxStreamLine caps one decision-stream line. Snapshot records carry
// the layout RLE and statistics block, which grow with table size;
// 256 MiB covers hundreds of millions of rows while still bounding a
// runaway line.
const maxStreamLine = 256 << 20

// errRejected marks subscriptions the leader permanently refuses — an
// unknown table, a protocol-version mismatch, or an upstream that does
// not serve replication at all. Retrying cannot fix a rejection, so a
// serving follower treats it as terminal; transient upstream trouble
// (refused connections, 5xx from a booting proxy) stays retryable.
var errRejected = errors.New("replica: subscription rejected by leader")

// subscribeSession opens one subscription on the leader's decision
// stream and hands every NDJSON line (valid only during the call) to
// onLine until the stream ends. It returns how many lines onLine
// accepted, for backoff bookkeeping, and the error that ended the
// stream; nil means the leader closed it cleanly.
//
// Follower and Archiver share this session and the retry loop below;
// there is no other subscriber loop.
func subscribeSession(ctx context.Context, hc *http.Client, upstream string, req *SubscribeRequest, onLine func(line []byte) error) (n int, err error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, fmt.Errorf("encoding subscribe request: %w", err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		upstream+"/v2/replication/subscribe", strings.NewReader(string(body)))
	if err != nil {
		return 0, fmt.Errorf("building subscribe request: %w", err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(hreq)
	if err != nil {
		return 0, fmt.Errorf("subscribing: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 64*1024))
		msg := strings.TrimSpace(string(data))
		// 400/404 are the leader's own rejection statuses (protocol
		// mismatch, unknown table — including a pre-replication leader
		// whose mux 404s the endpoint): permanent configuration errors
		// that must fail loudly, not retry forever.
		if resp.StatusCode == http.StatusBadRequest || resp.StatusCode == http.StatusNotFound {
			return 0, fmt.Errorf("%w: answered %d: %s", errRejected, resp.StatusCode, msg)
		}
		return 0, fmt.Errorf("subscribe answered %d: %s", resp.StatusCode, msg)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), maxStreamLine)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if err := onLine(line); err != nil {
			return n, err
		}
		n++
	}
	if err := sc.Err(); err != nil {
		return n, fmt.Errorf("reading stream: %w", err)
	}
	return n, nil
}

// retrySessions is the subscription loop: run a session, back off,
// repeat, until the context ends (nil) or a session ends with an error
// isTerminal accepts (returned). Every attempt after the first counts
// as a reconnect. ended hears how each other session ended and the
// backoff in force before it is adjusted: a session that delivered
// records earned a fresh one, one that failed straight away backs off
// harder.
func retrySessions(ctx context.Context, min, max time.Duration, reconnects *atomicUint64,
	session func() (int, error), isTerminal func(error) bool, ended func(err error, backoff time.Duration)) error {
	backoff := min
	for first := true; ; first = false {
		if ctx.Err() != nil {
			return nil
		}
		if !first {
			reconnects.Add(1)
		}
		n, err := session()
		if ctx.Err() != nil {
			return nil
		}
		if err != nil && isTerminal(err) {
			return err
		}
		ended(err, backoff)
		if n > 0 {
			backoff = min
		} else if backoff *= 2; backoff > max {
			backoff = max
		}
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(backoff):
		}
	}
}
