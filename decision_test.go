package oreo

import (
	"testing"

	"oreo/internal/policy"
)

// scriptedPolicy surfaces a fixed target at scripted query IDs, so a test
// can put the optimizer's loop through decisions OREO makes only rarely.
type scriptedPolicy struct {
	current *Layout
	at      map[int]*Layout
}

func (p *scriptedPolicy) Name() string     { return "scripted" }
func (p *scriptedPolicy) Current() *Layout { return p.current }
func (p *scriptedPolicy) Observe(q Query) *Layout {
	if l, ok := p.at[q.ID]; ok {
		p.current = l
		return l
	}
	return nil
}

// TestReorganizedOnlyOnRealSwitch is the regression test for
// Decision.Reorganized: the policy can surface a target layout equal to
// the one already serving (e.g. switching back to the serving layout
// while a delayed reorganization is in flight), and that must not be
// reported as a reorganization — Reorganized has to track the switches
// counter exactly. (The rule itself is tabled in internal/policy's
// TestStepDelayRule; this drives it through ProcessQuery.)
func TestReorganizedOnlyOnRealSwitch(t *testing.T) {
	ds := buildEventsTable(t, 400)
	opt, err := New(ds, Config{
		Alpha: 10, Partitions: 4, InitialSort: []string{"ts"}, ReorgDelay: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := opt.CurrentLayout()
	b := NewZOrderGenerator(1, "user").Generate(ds, nil, 4)
	if a.Name == b.Name {
		t.Fatalf("fixture layouts share a name: %s", a.Name)
	}
	opt.loop = policy.NewStepper(&scriptedPolicy{current: a, at: map[int]*Layout{1: b, 2: a}}, opt.cfg.ReorgDelay)
	step := func(id int) Decision {
		return opt.ProcessQuery(Query{ID: id, Preds: []Predicate{IntRange("ts", 0, 50)}})
	}

	// No decision: no reorganization.
	if step(0).Reorganized {
		t.Error("a query without a decision reported a switch")
	}
	// Real decision away from the serving layout.
	if !step(1).Reorganized {
		t.Error("switch to a different layout not reported")
	}
	if opt.PendingLayout() != b {
		t.Fatal("switch did not become pending under ReorgDelay")
	}
	// The policy targets the serving layout again while the delayed swap
	// is still in flight: target != nil but it is NOT a reorganization,
	// and the abandoned pending swap must not land later.
	if step(2).Reorganized {
		t.Error("target equal to serving layout reported as a switch")
	}
	if opt.PendingLayout() != nil {
		t.Error("abandoned pending reorganization was not cancelled")
	}
	for i := 3; i < 8; i++ {
		step(i)
	}
	if opt.CurrentLayout() != a {
		t.Errorf("serving layout drifted to %s after cancelled swap", opt.CurrentLayout().Name)
	}
	if got := opt.Stats().Reorganizations; got != 1 {
		t.Errorf("Reorganizations = %d, want 1", got)
	}
}

// TestReorganizedMatchesSwitchCounter drives the full public path and
// checks the per-decision flags sum to the aggregate counter.
func TestReorganizedMatchesSwitchCounter(t *testing.T) {
	ds := buildEventsTable(t, 4000)
	for _, delay := range []int{0, 7} {
		opt, err := New(ds, Config{
			Alpha: 4, Partitions: 8, WindowSize: 40, Period: 40,
			InitialSort: []string{"ts"}, Seed: 11, ReorgDelay: delay,
		})
		if err != nil {
			t.Fatal(err)
		}
		flagged := 0
		for i := 0; i < 4000; i++ {
			var q Query
			switch (i / 400) % 2 {
			case 0:
				lo := int64(i % 3000)
				q = Query{ID: i, Preds: []Predicate{IntRange("ts", lo, lo+200)}}
			default:
				q = Query{ID: i, Preds: []Predicate{StrEq("user", "alice")}}
			}
			if opt.ProcessQuery(q).Reorganized {
				flagged++
			}
		}
		if got := opt.Stats().Reorganizations; got != flagged {
			t.Errorf("delay=%d: Reorganizations=%d but %d decisions flagged", delay, got, flagged)
		}
		if flagged == 0 {
			t.Errorf("delay=%d: workload drove no switches; regression test is vacuous", delay)
		}
	}
}
