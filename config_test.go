package oreo

import (
	"math"
	"strings"
	"testing"
)

func TestInitialTakesPrecedenceOverInitialSort(t *testing.T) {
	ds := buildEventsTable(t, 300)
	init := NewSortGenerator("user").Generate(ds, nil, 8)
	opt, err := New(ds, Config{
		Initial:     init,
		InitialSort: []string{"ts"}, // must be ignored
		Partitions:  8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if opt.CurrentLayout() != init {
		t.Errorf("Initial not preferred: serving %q", opt.CurrentLayout().Name)
	}
}

func TestPartitionsDerivationClamps(t *testing.T) {
	small := buildEventsTable(t, 100) // 100/1500 -> clamped up to 8
	opt, err := New(small, Config{InitialSort: []string{"ts"}})
	if err != nil {
		t.Fatal(err)
	}
	if opt.cfg.Partitions != 8 {
		t.Errorf("small table partitions = %d, want 8", opt.cfg.Partitions)
	}

	big := buildEventsTable(t, 300000) // 300000/1500 = 200 -> clamped to 128
	opt2, err := New(big, Config{InitialSort: []string{"ts"}})
	if err != nil {
		t.Fatal(err)
	}
	if opt2.cfg.Partitions != 128 {
		t.Errorf("big table partitions = %d, want 128", opt2.cfg.Partitions)
	}
}

// TestNegativeConfigRejected pins the satellite contract: every
// count-valued knob rejects negatives, and every float knob negatives
// it has no meaning for and non-finite values, with a descriptive error
// naming the field, instead of flowing into the policy layers where
// each would fail somewhere different (or, worse, silently act as a
// default while looking configured).
func TestNegativeConfigRejected(t *testing.T) {
	ds := buildEventsTable(t, 300)
	cases := []struct {
		field string
		cfg   Config
	}{
		{"Partitions", Config{InitialSort: []string{"ts"}, Partitions: -1}},
		{"Period", Config{InitialSort: []string{"ts"}, Period: -5}},
		{"MaxStates", Config{InitialSort: []string{"ts"}, MaxStates: -2}},
		{"TraceCapacity", Config{InitialSort: []string{"ts"}, TraceCapacity: -1}},
		{"ReorgDelay", Config{InitialSort: []string{"ts"}, ReorgDelay: -10}},
		// The float knobs: a negative γ used to reach mts.New and panic;
		// NaN passes every ordered guard (a NaN α never reorganizes, a
		// NaN ε admits every candidate) and an infinity most of them.
		{"Gamma", Config{InitialSort: []string{"ts"}, Gamma: -1}},
		{"Gamma", Config{InitialSort: []string{"ts"}, Gamma: -1, NoPredictor: true}},
		{"Alpha", Config{InitialSort: []string{"ts"}, Alpha: math.NaN()}},
		{"Gamma", Config{InitialSort: []string{"ts"}, Gamma: math.NaN()}},
		{"Epsilon", Config{InitialSort: []string{"ts"}, Epsilon: math.NaN()}},
		{"Alpha", Config{InitialSort: []string{"ts"}, Alpha: math.Inf(1)}},
		{"Gamma", Config{InitialSort: []string{"ts"}, Gamma: math.Inf(1)}},
		{"Epsilon", Config{InitialSort: []string{"ts"}, Epsilon: math.Inf(-1)}},
	}
	for _, tc := range cases {
		_, err := New(ds, tc.cfg)
		if err == nil {
			t.Errorf("bad %s accepted: %+v", tc.field, tc.cfg)
			continue
		}
		if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("bad %s: error %q does not name the field", tc.field, err)
		}
	}
}

// TestZeroCountConfigStillDefaults guards the other half of the
// contract: zero remains the documented "pick the default / disable"
// value for every knob the negative check now covers.
func TestZeroCountConfigStillDefaults(t *testing.T) {
	ds := buildEventsTable(t, 300)
	opt, err := New(ds, Config{InitialSort: []string{"ts"}})
	if err != nil {
		t.Fatalf("all-zero count config rejected: %v", err)
	}
	if opt.cfg.Partitions == 0 {
		t.Error("Partitions not derived from table size")
	}
}

func TestGammaZeroExplicit(t *testing.T) {
	ds := buildEventsTable(t, 200)
	// Gamma explicitly nonzero is preserved.
	opt, err := New(ds, Config{InitialSort: []string{"ts"}, Gamma: 2.5})
	if err != nil {
		t.Fatal(err)
	}
	if opt.cfg.Gamma != 2.5 {
		t.Errorf("Gamma = %g", opt.cfg.Gamma)
	}
}

func TestAlphaAccessor(t *testing.T) {
	ds := buildEventsTable(t, 200)
	opt, err := New(ds, Config{InitialSort: []string{"ts"}, Alpha: 123})
	if err != nil {
		t.Fatal(err)
	}
	if opt.Alpha() != 123 {
		t.Errorf("Alpha() = %g", opt.Alpha())
	}
}

func TestStatsZeroBeforeQueries(t *testing.T) {
	ds := buildEventsTable(t, 200)
	opt, err := New(ds, Config{InitialSort: []string{"ts"}})
	if err != nil {
		t.Fatal(err)
	}
	st := opt.Stats()
	if st.Queries != 0 || st.QueryCost != 0 || st.Reorganizations != 0 {
		t.Errorf("fresh stats = %+v", st)
	}
	if st.States != 1 {
		t.Errorf("fresh |S| = %d, want 1 (the initial layout)", st.States)
	}
	if opt.PendingLayout() != nil {
		t.Error("fresh optimizer has a pending layout")
	}
}
