package layout

import (
	"math/rand"
	"testing"

	"oreo/internal/query"
)

func TestBottomUpPartitionValidity(t *testing.T) {
	d := testDataset(t, 800, 30)
	qs := qdWorkload(60, 31)
	l := NewBottomUpGenerator().Generate(d, qs, 8)
	if l.Part.NumPartitions > 8 {
		t.Fatalf("partitions = %d, cap 8", l.Part.NumPartitions)
	}
	counts := make([]int, l.Part.NumPartitions)
	for _, pid := range l.Part.Assign {
		counts[pid]++
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 800 {
		t.Fatalf("rows lost: %d", total)
	}
}

func TestBottomUpPerfectSkippingForFeatures(t *testing.T) {
	// With few distinct feature vectors and enough partitions, a feature
	// query matches either all or none of each partition — the defining
	// property of fine-grained blocking.
	d := testDataset(t, 1000, 32)
	feat := query.Query{ID: 0, Preds: []query.Predicate{query.StrEq("cat", "a")}}
	qs := make([]query.Query, 40)
	for i := range qs {
		qs[i] = feat
		qs[i].ID = i
	}
	l := NewBottomUpGenerator().Generate(d, qs, 4)
	for pid, m := range l.Part.Meta() {
		if m.NumRows == 0 {
			continue
		}
		matches, total := 0, 0
		for r, p := range l.Part.Assign {
			if p != pid {
				continue
			}
			total++
			if feat.MatchRow(d, r) {
				matches++
			}
		}
		if matches != 0 && matches != total {
			t.Errorf("partition %d mixes matching (%d) and non-matching (%d) rows for the feature",
				pid, matches, total-matches)
		}
	}
}

func TestBottomUpBeatsTimeSortOnFeatureWorkload(t *testing.T) {
	d := testDataset(t, 2000, 33)
	rng := rand.New(rand.NewSource(34))
	qs := make([]query.Query, 60)
	for i := range qs {
		qs[i] = query.Query{ID: i, Preds: []query.Predicate{
			query.StrEq("cat", []string{"a", "b", "c", "d"}[rng.Intn(4)])}}
	}
	bu := NewBottomUpGenerator().Generate(d, qs, 8)
	ts := NewSortGenerator("ts").Generate(d, nil, 8)
	if bc, tc := bu.AvgCost(qs), ts.AvgCost(qs); bc >= tc {
		t.Errorf("bottom-up cost %g not better than time sort %g", bc, tc)
	}
}

func TestBottomUpEmptyWorkload(t *testing.T) {
	d := testDataset(t, 100, 35)
	l := NewBottomUpGenerator().Generate(d, nil, 4)
	// No features: all rows share the empty vector -> one partition.
	if l.Part.NumPartitions != 1 {
		t.Errorf("partitions = %d, want 1", l.Part.NumPartitions)
	}
}

func TestBottomUpSkippingSound(t *testing.T) {
	d := testDataset(t, 500, 36)
	qs := qdWorkload(30, 37)
	l := NewBottomUpGenerator().Generate(d, qs, 6)
	for _, q := range qs[:8] {
		for r := 0; r < d.NumRows(); r++ {
			if q.MatchRow(d, r) && !q.MayMatch(d.Schema(), l.Part.Meta()[l.Part.Assign[r]]) {
				t.Fatalf("partition containing a match skipped for %v", q)
			}
		}
	}
}

func TestTopFeaturesFrequencyOrder(t *testing.T) {
	pa := query.StrEq("cat", "a")
	pb := query.StrEq("cat", "b")
	qs := []query.Query{
		{Preds: []query.Predicate{pa}},
		{Preds: []query.Predicate{pa}},
		{Preds: []query.Predicate{pb}},
	}
	feats := topFeatures(qs, 10)
	if len(feats) != 2 || feats[0].count != 2 || feats[0].key != pa.String() {
		t.Errorf("topFeatures = %+v", feats)
	}
	if got := topFeatures(qs, 1); len(got) != 1 {
		t.Errorf("max not honored: %d", len(got))
	}
}

func TestRoundRobin(t *testing.T) {
	d := testDataset(t, 100, 38)
	l := NewRoundRobinGenerator().Generate(d, nil, 4)
	for r, pid := range l.Part.Assign {
		if pid != r%4 {
			t.Fatalf("row %d -> %d, want %d", r, pid, r%4)
		}
	}
	// Round-robin spreads every ts everywhere: range queries scan all.
	q := query.Query{Preds: []query.Predicate{query.IntRange("ts", 0, 9)}}
	if got := l.Cost(q); got != 1 {
		t.Errorf("round-robin range cost = %g, want 1 (no skipping possible)", got)
	}
}

func TestGeneratorNames(t *testing.T) {
	names := map[string]string{
		NewBottomUpGenerator().Name():   "bottomup",
		NewRoundRobinGenerator().Name(): "roundrobin",
	}
	for got, want := range names {
		if got != want {
			t.Errorf("name %q, want %q", got, want)
		}
	}
}

// All generators must satisfy the Generator contract on the same
// inputs: full row coverage, at most k partitions, sound skipping.
func TestAllGeneratorsContract(t *testing.T) {
	d := testDataset(t, 600, 42)
	qs := qdWorkload(40, 43)
	gens := []Generator{
		NewSortGenerator("ts"),
		NewZOrderGenerator(2, "ts"),
		NewQdTreeGenerator(),
		NewBottomUpGenerator(),
		NewRoundRobinGenerator(),
	}
	for _, g := range gens {
		l := g.Generate(d, qs, 8)
		if l.Part.TotalRows != 600 {
			t.Errorf("%s: covers %d rows", g.Name(), l.Part.TotalRows)
		}
		if l.Part.NumPartitions > 8 && g.Name() != "sort" {
			t.Errorf("%s: %d partitions for k=8", g.Name(), l.Part.NumPartitions)
		}
		q := qs[0]
		for r := 0; r < d.NumRows(); r++ {
			if q.MatchRow(d, r) && !q.MayMatch(d.Schema(), l.Part.Meta()[l.Part.Assign[r]]) {
				t.Errorf("%s: unsound skipping", g.Name())
				break
			}
		}
		if c := l.Cost(q); c < 0 || c > 1 {
			t.Errorf("%s: cost %g out of range", g.Name(), c)
		}
	}
}
