package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer's public function, recorded by
// the benchmark from outside the program. Spans of one operation share
// Op; Parent is the ID of the span that caused this one (0 for a root).
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Op      int64  `json:"op"`
}

// tracer keeps spans in memory and writes them out when the run ends.
// A nil tracer records nothing, which is how the timed runs stay
// untraced: every call site is unconditional.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// reserve hands out a span ID before the span has ended, so that spans
// it causes can name it as their parent (0 on a nil tracer).
func (t *tracer) reserve() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// record stores one finished span and returns its ID (0 on a nil tracer).
func (t *tracer) record(name string, start, end time.Time, parent, op int64) int64 {
	id := t.reserve()
	t.recordAs(id, name, start, end, parent, op)
	return id
}

// recordAs stores a finished span under an ID taken from reserve.
func (t *tracer) recordAs(id int64, name string, start, end time.Time, parent, op int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		Name:    name,
		StartNS: start.Sub(t.epoch).Nanoseconds(),
		EndNS:   end.Sub(t.epoch).Nanoseconds(),
		ID:      id,
		Parent:  parent,
		Op:      op,
	})
	t.mu.Unlock()
}

// mark is the number of spans recorded so far; durations(name, mark)
// then covers only what came after.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// timed runs fn, records it as a span and returns its duration. It works
// on a nil tracer too, so probes can time themselves either way.
func (t *tracer) timed(name string, parent, op int64, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.record(name, start, end, parent, op)
	return end.Sub(start)
}

// durations returns the duration of every span with the name recorded
// since mark.
func (t *tracer) durations(name string, mark int) []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans[mark:] {
		if s.Name == name {
			out = append(out, time.Duration(s.EndNS-s.StartNS))
		}
	}
	return out
}

// write dumps the spans as NDJSON to <dir>/spans-<workload>.ndjson.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("creating span directory: %w", err)
	}
	path := filepath.Join(dir, "spans-"+workload+".ndjson")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("creating span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return "", fmt.Errorf("writing span file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("writing span file: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("closing span file: %w", err)
	}
	return path, nil
}
