package policy

import (
	"math"
	"testing"

	"oreo/internal/layout"
	"oreo/internal/query"
)

// scripted surfaces a fixed target at scripted query IDs.
type scripted struct {
	current *layout.Layout
	at      map[int]*layout.Layout
}

func (p *scripted) Name() string            { return "scripted" }
func (p *scripted) Current() *layout.Layout { return p.current }
func (p *scripted) Observe(q query.Query) *layout.Layout {
	if l, ok := p.at[q.ID]; ok {
		p.current = l
		return l
	}
	return nil
}

// TestStepDelayRule is the delay rule as one table: each row scripts the
// targets a policy surfaces (by query ID; 'a' is the layout serving at
// the start) and lists, per query, which layout must serve it and
// whether the step is charged as a switch.
func TestStepDelayRule(t *testing.T) {
	d := testDataset(160)
	a := defaultLayout(d)
	b := layout.NewSortGenerator("cat").Generate(d, nil, 8)
	c := layout.NewSortGenerator("cat", "ts").Generate(d, nil, 8)
	byName := map[byte]*layout.Layout{'a': a, 'b': b, 'c': c}

	rows := []struct {
		name    string
		delay   int
		targets map[int]byte
		serving string // one letter per query
		charged string // 'x' where the step must report a switch
	}{
		{"no decision, no switch", 3, nil, "aaaa", "...."},
		{"immediate switch serves the deciding query", 0, map[int]byte{1: 'b'}, "abbb", ".x.."},
		{"delay keeps the outgoing layout for Δ queries", 2, map[int]byte{1: 'b'}, "aaab", ".x.."},
		{"target equal to serving is not a switch", 0, map[int]byte{1: 'a'}, "aaa", "..."},
		{"back to serving inside Δ aborts the swap; the first charge stands", 3,
			map[int]byte{1: 'b', 2: 'a'}, "aaaaaaaa", ".x......"},
		{"abort, then a later switch starts a fresh countdown", 2,
			map[int]byte{1: 'b', 2: 'a', 4: 'b'}, "aaaaaabb", ".x..x..."},
		{"a new target inside Δ replaces the pending one and restarts Δ", 2,
			map[int]byte{1: 'b', 2: 'c'}, "aaaacc", ".xx..."},
		{"switch back after the swap landed is an ordinary switch", 1,
			map[int]byte{0: 'b', 3: 'a'}, "abbba", "x..x."},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			at := make(map[int]*layout.Layout, len(row.targets))
			for id, n := range row.targets {
				at[id] = byName[n]
			}
			loop := NewStepper(&scripted{current: a, at: at}, row.delay)
			wantSwitches, wantCost := 0, 0.0
			for i := range row.serving {
				q := tsQuery(i, 0, 19)
				cost, switched := loop.Step(q)
				want := byName[row.serving[i]]
				if loop.Serving != want {
					t.Fatalf("query %d served on %s, want %s", i, loop.Serving.Name, want.Name)
				}
				if switched != (row.charged[i] == 'x') {
					t.Fatalf("query %d: switched = %v, want %c", i, switched, row.charged[i])
				}
				if math.Float64bits(cost) != math.Float64bits(want.Cost(q)) {
					t.Fatalf("query %d: cost %v is not c(serving, q) = %v", i, cost, want.Cost(q))
				}
				if switched {
					wantSwitches++
				}
				wantCost += cost
			}
			if loop.Switches != wantSwitches || loop.Queries != len(row.serving) ||
				math.Float64bits(loop.QueryCost) != math.Float64bits(wantCost) {
				t.Errorf("ledger = %d switches, %d queries, cost %v; want %d, %d, %v",
					loop.Switches, loop.Queries, loop.QueryCost, wantSwitches, len(row.serving), wantCost)
			}
			if loop.Pending != nil {
				t.Errorf("run ends with %s still pending", loop.Pending.Name)
			}
		})
	}
}
