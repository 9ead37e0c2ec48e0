// Package metrics is OREO's stdlib-only instrumentation layer: a
// registry of counters, gauges, and fixed-bucket histograms with a
// Prometheus text-format (v0.0.4) encoder behind an http.Handler.
//
// The design point is the serving hot path: recording must never take a
// lock or allocate. A Counter increment is one atomic add; a Histogram
// observation is one binary search over an immutable bound slice plus
// one atomic bucket add and one CAS float accumulate for the sum.
// Registration (get-or-create of an instrument) takes the registry
// lock, so callers resolve their instruments once at construction and
// hold the pointers — exactly how internal/serve wires its shards.
//
// Two instrument flavors exist for values the system already tracks
// elsewhere: CounterFunc and GaugeFunc register a read callback instead
// of a cell, so a scrape reads live state (queue depths, decision-loop
// counters, replication epochs) without a second copy drifting from the
// first. Callbacks run on the scrape path only and must be safe to call
// concurrently with anything.
//
// Encoding is deterministic — families sorted by name, series sorted by
// label signature — so the exposition format can itself be golden-
// tested. See Registry.WriteText for the exact wire rules.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Labels is one series' label set. Keys and values are copied at
// registration; the map can be reused or mutated afterwards.
type Labels map[string]string

// Kind discriminates instrument families.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the TYPE line spelling.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Counter is a monotonically increasing uint64 cell. The zero value is
// usable, but instruments obtained from a Registry are what a scrape
// sees. Method names mirror atomic.Uint64 so call sites migrating from
// raw atomics keep reading naturally.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta.
func (c *Counter) Add(delta uint64) { c.v.Add(delta) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is a settable float64 cell (stored as float bits).
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Load returns the current value.
func (g *Gauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution. Bounds are the inclusive
// upper edges of each bucket ("le" semantics), ascending; an implicit
// +Inf bucket catches the rest. Counts are stored per bucket
// (non-cumulative) and cumulated at encode time, so Observe touches
// exactly one bucket cell. The sum and the exact max are CAS float
// accumulators — max makes the tail honest in load reports where the
// p99 interpolation would otherwise hide outliers past the last bound.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1; last is +Inf
	sumBits atomic.Uint64
	maxBits atomic.Uint64
}

// NewHistogram builds a standalone histogram (not attached to any
// registry) over the given bucket bounds — the form load generators
// use for client-side latency. Bounds must be ascending and non-empty;
// they are copied.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("metrics: histogram needs at least one bucket bound")
	}
	b := append([]float64(nil), bounds...)
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			panic(fmt.Sprintf("metrics: histogram bounds not ascending at %d (%g <= %g)", i, b[i], b[i-1]))
		}
	}
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value: one binary search, one atomic add, one
// CAS sum accumulate, one CAS max.
func (h *Histogram) Observe(v float64) {
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) && old != 0 {
			return
		}
		if h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// ObserveDuration records d in seconds — the Prometheus base unit.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Max returns the largest observed value (0 before any observation).
func (h *Histogram) Max() float64 { return math.Float64frombits(h.maxBits.Load()) }

// Quantile estimates the q-th quantile (0 < q <= 1) by linear
// interpolation inside the bucket holding the target rank, the standard
// histogram_quantile estimate. The first bucket interpolates from 0
// (latencies are non-negative); a rank landing in the +Inf bucket — or
// an interpolation overshooting it — clamps to the exact observed Max.
// Returns 0 with no observations.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.Count()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i := range h.bounds {
		cnt := h.counts[i].Load()
		n := float64(cnt)
		if cum+n >= rank {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			if cnt == 0 {
				return hi
			}
			est := lo + (hi-lo)*(rank-cum)/n
			if max := h.Max(); max > 0 && est > max {
				est = max
			}
			return est
		}
		cum += n
	}
	return h.Max()
}

// snapshot returns cumulative bucket counts, total, and sum — one
// consistent-enough read for encoding. (Scrapes race recording by
// design; each cell is read once, and the cumulation keeps buckets
// monotone within the scrape.)
func (h *Histogram) snapshot() (cum []uint64, total uint64, sum float64) {
	cum = make([]uint64, len(h.bounds)+1)
	for i := range h.counts {
		total += h.counts[i].Load()
		cum[i] = total
	}
	return cum, total, math.Float64frombits(h.sumBits.Load())
}

// ExpBuckets returns n exponentially spaced bounds start, start*factor,
// start*factor², … — the standard shape for latency histograms.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("metrics: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LatencyBuckets is the default latency histogram shape, in seconds:
// 50µs to ~52s in 40 exponential steps (factor 1.425), fine enough for
// sub-millisecond in-memory serving and wide enough for a stalled
// follower re-snapshot. Shared by the HTTP middleware, oreoload, and
// oreoreplay so every latency figure in the system is bucketed the
// same way.
func LatencyBuckets() []float64 { return ExpBuckets(50e-6, 1.425, 40) }

// series is one registered (labels, cell) pair inside a family.
type series struct {
	sig     string // canonical rendered label signature, encode sort key
	labels  []labelPair
	counter *Counter
	gauge   *Gauge
	fn      func() float64 // CounterFunc / GaugeFunc callback
	hist    *Histogram
}

type labelPair struct{ k, v string }

// family is all series sharing one metric name.
type family struct {
	name   string
	help   string
	kind   Kind
	bounds []float64 // histograms only; shared by every series
	series map[string]*series
}

// Registry holds instrument families and encodes them on demand.
// Construct with NewRegistry. All methods are safe for concurrent use;
// instrument lookups lock, recording on a resolved instrument does not.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter returns the counter for (name, labels), creating the family
// and series on first use. Panics on a name/label spelling the text
// format cannot carry or on a kind conflict with an existing family —
// instrument registration is programmer error territory, not runtime
// error territory.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	s := r.register(name, help, KindCounter, labels, nil)
	return s.counter
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	s := r.register(name, help, KindGauge, labels, nil)
	return s.gauge
}

// CounterFunc registers fn as the value source for a counter series —
// for cumulative values the system already tracks elsewhere. fn runs on
// every scrape and must be concurrency-safe. Re-registering the same
// (name, labels) replaces the callback (last wins), so a re-attached
// component does not panic the process.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() float64) {
	r.register(name, help, KindCounter, labels, fn)
}

// GaugeFunc registers fn as the value source for a gauge series.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.register(name, help, KindGauge, labels, fn)
}

// Histogram returns the histogram for (name, labels), creating it on
// first use with the given bucket bounds. Every series of one family
// shares the first registration's bounds; a later caller's differing
// bounds are a programmer error (panic).
func (r *Registry) Histogram(name, help string, bounds []float64, labels Labels) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, KindHistogram)
	if f.bounds == nil {
		h := NewHistogram(bounds) // validates
		f.bounds = h.bounds
	} else if len(bounds) != 0 && !equalBounds(f.bounds, bounds) {
		panic(fmt.Sprintf("metrics: histogram %q re-registered with different buckets", name))
	}
	sig, pairs := renderLabels(labels)
	if s, ok := f.series[sig]; ok {
		return s.hist
	}
	s := &series{sig: sig, labels: pairs, hist: &Histogram{bounds: f.bounds, counts: make([]atomic.Uint64, len(f.bounds)+1)}}
	f.series[sig] = s
	return s.hist
}

func equalBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		//oreovet:ignore floatbits bucket bounds are operator-supplied constants compared for re-registration identity, never computed values
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// register is the shared counter/gauge/func path.
func (r *Registry) register(name, help string, kind Kind, labels Labels, fn func() float64) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, kind)
	sig, pairs := renderLabels(labels)
	if s, ok := f.series[sig]; ok {
		if fn != nil {
			if s.counter != nil || s.gauge != nil {
				panic(fmt.Sprintf("metrics: %s%s already registered as a cell, not a callback", name, sig))
			}
			s.fn = fn // last wins; see CounterFunc
		} else if s.fn != nil {
			panic(fmt.Sprintf("metrics: %s%s already registered as a callback, not a cell", name, sig))
		}
		return s
	}
	s := &series{sig: sig, labels: pairs, fn: fn}
	if fn == nil {
		switch kind {
		case KindCounter:
			s.counter = &Counter{}
		case KindGauge:
			s.gauge = &Gauge{}
		}
	}
	f.series[sig] = s
	return s
}

// Unregister removes the series for (name, labels) from the registry
// and reports whether it existed. When the last series of a family is
// removed, the family goes with it, so a scrape shows no orphaned
// # TYPE header. This is the lifecycle counterpart to per-connection
// instruments — a subscriber that registers
// oreo_replication_subscriber_queue_depth{subscriber="7"} on attach
// must remove it on drop, or a churning fleet grows the scrape without
// bound. A handle obtained before Unregister stays safe to record on;
// it just no longer appears in the exposition.
func (r *Registry) Unregister(name string, labels Labels) bool {
	sig, _ := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		return false
	}
	if _, ok := f.series[sig]; !ok {
		return false
	}
	delete(f.series, sig)
	if len(f.series) == 0 {
		delete(r.families, name)
	}
	return true
}

// family gets or creates the named family, enforcing name validity and
// kind/help consistency.
func (r *Registry) family(name, help string, kind Kind) *family {
	if !validMetricName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("metrics: %q re-registered as %s (was %s)", name, kind, f.kind))
	}
	return f
}

// renderLabels canonicalizes a label set: keys sorted, rendered once
// into the exact exposition spelling, reused as both map key and
// encoder output.
func renderLabels(labels Labels) (sig string, pairs []labelPair) {
	if len(labels) == 0 {
		return "", nil
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if !validLabelName(k) {
			//oreovet:ignore maporder formats only the single invalid key for a panic; no ordered output survives the abort
			panic(fmt.Sprintf("metrics: invalid label name %q", k))
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	pairs = make([]labelPair, len(keys))
	for i, k := range keys {
		pairs[i] = labelPair{k: k, v: labels[k]}
	}
	return labelSig(pairs, ""), pairs
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		letter := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !letter && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || s == "le" { // le is reserved for histogram buckets
		return false
	}
	for i, c := range s {
		letter := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !letter && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}
