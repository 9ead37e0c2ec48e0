package prune

import (
	"math/rand"
	"testing"

	"oreo/internal/query"
	"oreo/internal/table"
)

// interpretedSurvivors is the reference skip-list: the partitions the
// interpreted Query.MayMatch cannot rule out, in partition-ID order.
func interpretedSurvivors(schema *table.Schema, part *table.Partitioning, q query.Query) []int {
	var ids []int
	for pid, m := range part.Meta() {
		if q.MayMatch(schema, m) {
			ids = append(ids, pid)
		}
	}
	return ids
}

func equalIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSurvivorsEquivalenceProperty is the survivor-path contract:
// across fuzzed schemas, datasets, partitionings, and queries the
// compiled survivor list equals the interpreted per-partition MayMatch
// verdicts, and the fraction returned alongside it is bit-for-bit equal
// to the interpreted cost.
func TestSurvivorsEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 120; trial++ {
		schema, part := randomScenario(rng)
		for i := 0; i < 25; i++ {
			q := randomQuery(rng, schema)
			want := interpretedSurvivors(schema, part, q)
			wantCost := query.FractionScanned(schema, part, q)

			cq := Compile(schema, q)
			ids, cost := cq.Survivors(part)
			if !equalIDs(ids, want) {
				t.Fatalf("compiled survivors %v != interpreted %v\nquery: %+v", ids, want, q.Preds)
			}
			if cost != wantCost {
				t.Fatalf("survivor cost %v != interpreted %v\nquery: %+v", cost, wantCost, q.Preds)
			}
		}
	}
}

// TestAppendSurvivorsReuse checks that a reused destination buffer is
// appended to, not clobbered, and yields the same list.
func TestAppendSurvivorsReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	schema, part := randomScenario(rng)
	buf := make([]int, 0, part.NumPartitions+1)
	for i := 0; i < 50; i++ {
		q := randomQuery(rng, schema)
		cq := Compile(schema, q)
		fresh, wantCost := cq.Survivors(part)

		buf = append(buf[:0], -1) // sentinel survives the append
		got, cost := cq.AppendSurvivors(buf, part)
		if got[0] != -1 {
			t.Fatalf("AppendSurvivors clobbered existing elements: %v", got)
		}
		if !equalIDs(got[1:], fresh) || cost != wantCost {
			t.Fatalf("AppendSurvivors (%v, %v) != Survivors (%v, %v)", got[1:], cost, fresh, wantCost)
		}
		buf = got[:0]
	}
}

// TestSurvivorsDegenerate covers the early-return paths: empty tables
// and never-matching (type-mismatched) queries scan nothing.
func TestSurvivorsDegenerate(t *testing.T) {
	schema := table.NewSchema(
		table.Column{Name: "a", Type: table.Int64},
		table.Column{Name: "s", Type: table.String},
	)

	empty := table.NewBuilder(schema, 0).Build()
	epart := table.MustBuildPartitioning(empty, nil, 3)
	cq := Compile(schema, query.Query{Preds: []query.Predicate{query.IntGE("a", 0)}})
	if ids, cost := cq.Survivors(epart); len(ids) != 0 || cost != 0 {
		t.Fatalf("empty table: survivors %v cost %v, want none", ids, cost)
	}

	b := table.NewBuilder(schema, 4)
	for i := 0; i < 4; i++ {
		b.AppendRow(table.Int(int64(i)), table.Str("x"))
	}
	part := table.MustBuildPartitioning(b.Build(), []int{0, 0, 1, 1}, 2)
	// Numeric predicate on a string column: unsatisfiable by type.
	never := Compile(schema, query.Query{Preds: []query.Predicate{query.IntGE("s", 0)}})
	if !never.never {
		t.Fatal("type-mismatched query not proved never-matching")
	}
	if ids, cost := never.Survivors(part); len(ids) != 0 || cost != 0 {
		t.Fatalf("never-matching query: survivors %v cost %v, want none", ids, cost)
	}
	// No predicates: every non-empty partition survives (a full scan).
	all := Compile(schema, query.Query{})
	if ids, cost := all.Survivors(part); !equalIDs(ids, []int{0, 1}) || cost != 1 {
		t.Fatalf("empty conjunction: survivors %v cost %v, want [0 1] and 1", ids, cost)
	}
}
