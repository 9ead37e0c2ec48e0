package metrics

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
)

// TestWriteTextParseRoundTrip feeds the writer's output to the parser:
// every series a registry holds — counters, gauges including NaN and
// ±Inf, callback series, histograms — must come back with its name,
// its labels and its value bits unchanged, through label values and
// HELP text that need escaping.
func TestWriteTextParseRoundTrip(t *testing.T) {
	hostile := "back\\slash \"quoted\" new\nline }brace, comma\\"
	r := NewRegistry()
	type want struct {
		name   string
		labels Labels
		value  float64
	}
	var wants []want
	add := func(name string, labels Labels, v float64) { wants = append(wants, want{name, labels, v}) }

	help := "Help with a newline\nand a \\ backslash."
	r.Counter("rt_requests_total", help, Labels{"code": "200", "path": hostile}).Add(42)
	add("rt_requests_total", Labels{"code": "200", "path": hostile}, 42)
	r.Counter("rt_requests_total", help, nil).Add(1<<53 - 1)
	add("rt_requests_total", nil, 1<<53-1)
	for i, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.1, 5e-324, math.MaxFloat64, 0} {
		l := Labels{"case": fmt.Sprint(i), "raw": hostile}
		r.Gauge("rt_level", help, l).Set(v)
		add("rt_level", l, v)
	}
	r.GaugeFunc("rt_callback", "", Labels{"v": "}"}, func() float64 { return 1.0 / 3 })
	add("rt_callback", Labels{"v": "}"}, 1.0/3)
	r.CounterFunc("rt_callback_total", "", nil, func() float64 { return 7 })
	add("rt_callback_total", nil, 7)

	bounds := []float64{0.001, 0.01, 0.1}
	for _, l := range []Labels{{"endpoint": hostile}, {"endpoint": "q"}} {
		h := r.Histogram("rt_seconds", help, bounds, l)
		obs := []float64{0.0005, 0.001, 0.002, 0.05, 0.05, 3}
		if l["endpoint"] == "q" {
			obs = obs[:2]
		}
		sum := 0.0
		for _, v := range obs {
			h.Observe(v)
			sum += v
		}
		for _, le := range append(bounds, math.Inf(1)) {
			cum := 0
			for _, v := range obs {
				if v <= le {
					cum++
				}
			}
			add("rt_seconds_bucket", Labels{"endpoint": l["endpoint"], "le": formatFloat(le)}, float64(cum))
		}
		add("rt_seconds_sum", l, sum)
		add("rt_seconds_count", l, float64(len(obs)))
	}

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	sc, err := ParseText(&buf)
	if err != nil {
		t.Fatalf("parsing the writer's own output: %v\n%s", err, buf.String())
	}

	key := func(name string, labels map[string]string) string {
		pairs := make([]string, 0, len(labels))
		for k, v := range labels {
			pairs = append(pairs, fmt.Sprintf("%q=%q", k, v))
		}
		sort.Strings(pairs)
		return name + "{" + strings.Join(pairs, ",") + "}"
	}
	got := make(map[string]float64)
	for name, sers := range sc.series {
		for _, s := range sers {
			if s.name != name {
				t.Fatalf("series %q filed under %q", s.name, name)
			}
			k := key(s.name, s.labels)
			if _, dup := got[k]; dup {
				t.Fatalf("series %s parsed twice", k)
			}
			got[k] = s.value
		}
	}
	if len(got) != len(wants) {
		t.Fatalf("parsed %d series, wrote %d:\n%s", len(got), len(wants), buf.String())
	}
	for _, w := range wants {
		k := key(w.name, w.labels)
		v, ok := got[k]
		if !ok {
			t.Fatalf("series %s lost in the round trip:\n%s", k, buf.String())
		}
		if math.Float64bits(v) != math.Float64bits(w.value) && !(math.IsNaN(v) && math.IsNaN(w.value)) {
			t.Errorf("series %s: parsed %v, wrote %v", k, v, w.value)
		}
	}

	// A histogram's +Inf bucket is its _count, and the Scrape accessors
	// read the hostile label value back by equality.
	for _, ep := range []string{hostile, "q"} {
		inf, _ := sc.Value("rt_seconds_bucket", map[string]string{"endpoint": ep, "le": "+Inf"})
		count, ok := sc.Value("rt_seconds_count", map[string]string{"endpoint": ep})
		if !ok || inf != count {
			t.Errorf("endpoint %q: +Inf bucket %v, _count %v (found %v)", ep, inf, count, ok)
		}
	}
	if q, ok := sc.HistQuantile("rt_seconds", 0.75, nil); !ok || q <= 0.01 || q > 0.1 {
		t.Errorf("p75 over both endpoints = %v,%v; want within (0.01, 0.1]", q, ok)
	}
}
