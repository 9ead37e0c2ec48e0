package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// scraped is one parsed time series: a metric name, its label set, and
// the sampled value.
type scraped struct {
	name   string
	labels map[string]string
	value  float64
}

// Scrape is one parsed /metrics payload — what a reader of this
// process's exposition (the cluster controller) sees of a fleet member.
// Every signal the control loop reads — request rates, latency
// quantiles, replication lag — is derived from pairs of these, because
// the interesting quantities are rates and deltas, not instantaneous
// counter values.
type Scrape struct {
	// series maps metric name to its samples, in payload order.
	series map[string][]scraped
}

// ParseText parses a Prometheus text-format payload: the subset
// WriteText emits — HELP/TYPE comments, counter and gauge samples,
// histogram _bucket/_sum/_count expansions — with WriteText's escape
// rules and float spellings, so ParseText(WriteText(r)) returns every
// series unchanged. Unknown lines fail loudly — a controller must not
// steer on a half-read scrape.
func ParseText(r io.Reader) (*Scrape, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	out := &Scrape{series: make(map[string][]scraped)}
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		s, err := parseSample(text)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %d: %w", line, err)
		}
		out.series[s.name] = append(out.series[s.name], s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("metrics: reading exposition: %w", err)
	}
	return out, nil
}

// parseSample parses one `name{k="v",...} value` or `name value` line.
func parseSample(text string) (scraped, error) {
	s := scraped{}
	rest := text
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return s, fmt.Errorf("no value in %q", text)
	} else {
		s.name = rest[:i]
		rest = rest[i:]
	}
	if strings.HasPrefix(rest, "{") {
		end := -1
		inQuote, esc := false, false
		for i := 1; i < len(rest); i++ {
			c := rest[i]
			switch {
			case esc:
				esc = false
			case c == '\\' && inQuote:
				esc = true
			case c == '"':
				inQuote = !inQuote
			case c == '}' && !inQuote:
				end = i
			}
			if end >= 0 {
				break
			}
		}
		if end < 0 {
			return s, fmt.Errorf("unterminated label set in %q", text)
		}
		labels, err := parseLabels(rest[1:end])
		if err != nil {
			return s, fmt.Errorf("labels in %q: %w", text, err)
		}
		s.labels = labels
		rest = rest[end+1:]
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return s, fmt.Errorf("value in %q: %w", text, err)
	}
	s.value = v
	return s, nil
}

// parseLabels parses `k="v",k2="v2"`, undoing escapeLabel (backslash,
// quote, newline).
func parseLabels(body string) (map[string]string, error) {
	labels := make(map[string]string)
	i := 0
	for i < len(body) {
		eq := strings.IndexByte(body[i:], '=')
		if eq < 0 {
			return nil, fmt.Errorf("missing = after %q", body[i:])
		}
		key := strings.TrimSpace(body[i : i+eq])
		i += eq + 1
		if i >= len(body) || body[i] != '"' {
			return nil, fmt.Errorf("label %q value not quoted", key)
		}
		i++
		var val strings.Builder
		for i < len(body) {
			c := body[i]
			if c == '\\' && i+1 < len(body) {
				switch body[i+1] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(body[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				break
			}
			val.WriteByte(c)
			i++
		}
		if i >= len(body) || body[i] != '"' {
			return nil, fmt.Errorf("unterminated value for label %q", key)
		}
		i++
		labels[key] = val.String()
		if i < len(body) && body[i] == ',' {
			i++
		}
	}
	return labels, nil
}

// Value returns the single sample matching name and the given label
// subset (every given pair must match; extra labels on the sample are
// ignored). False when no sample matches; the first match wins when
// several do.
func (s *Scrape) Value(name string, labels map[string]string) (float64, bool) {
	for _, ser := range s.series[name] {
		if labelsMatch(ser.labels, labels) {
			return ser.value, true
		}
	}
	return 0, false
}

// Sum returns the sum over every sample of name matching the label
// subset — how a per-endpoint counter family becomes one fleet signal.
func (s *Scrape) Sum(name string, labels map[string]string) float64 {
	total := 0.0
	for _, ser := range s.series[name] {
		if labelsMatch(ser.labels, labels) {
			total += ser.value
		}
	}
	return total
}

// Max returns the largest sample of name matching the label subset
// (0 when none match) — how per-table lag gauges become one signal.
func (s *Scrape) Max(name string, labels map[string]string) float64 {
	max := 0.0
	for _, ser := range s.series[name] {
		if labelsMatch(ser.labels, labels) && ser.value > max {
			max = ser.value
		}
	}
	return max
}

func labelsMatch(have, want map[string]string) bool {
	for k, v := range want {
		if have[k] != v {
			return false
		}
	}
	return true
}

// HistQuantile estimates quantile q of the histogram family name over
// the interval between prev and s: per-bucket counts are differenced
// (so the estimate reflects recent traffic, not the process's whole
// life), summed across label sets (all endpoints together), and the
// quantile is linearly interpolated inside its bucket — the standard
// histogram_quantile estimate. prev may be nil for an absolute
// reading. Returns false when the interval saw no observations.
func (s *Scrape) HistQuantile(name string, q float64, prev *Scrape) (float64, bool) {
	cur := bucketCounts(s, name)
	if len(cur) == 0 {
		return 0, false
	}
	if prev != nil {
		for le, c := range bucketCounts(prev, name) {
			cur[le] -= c
		}
	}
	les := make([]float64, 0, len(cur))
	for le := range cur {
		les = append(les, le)
	}
	sort.Float64s(les)
	total := cur[math.Inf(1)]
	if total <= 0 {
		return 0, false
	}
	rank := float64(q * total)
	lower, below := 0.0, 0.0
	for _, le := range les {
		count := cur[le]
		if count >= rank {
			if math.IsInf(le, 1) {
				// The quantile lands past the last finite bound; report
				// that bound rather than infinity.
				return lower, true
			}
			inBucket := count - below
			if inBucket <= 0 {
				return le, true
			}
			return lower + (le-lower)*(rank-below)/inBucket, true
		}
		below = count
		if !math.IsInf(le, 1) {
			lower = le
		}
	}
	return lower, true
}

// bucketCounts sums name's _bucket samples across label sets, keyed by
// upper bound (ParseFloat reads WriteText's "+Inf" spelling too).
func bucketCounts(s *Scrape, name string) map[float64]float64 {
	out := make(map[float64]float64)
	for _, ser := range s.series[name+"_bucket"] {
		le, err := strconv.ParseFloat(ser.labels["le"], 64)
		if err != nil {
			continue
		}
		out[le] += ser.value
	}
	return out
}
