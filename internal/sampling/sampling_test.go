package sampling

import (
	"math/rand"
	"testing"
	"testing/quick"

	"oreo/internal/query"
)

func q(id int) query.Query { return query.Query{ID: id} }

func TestSlidingWindowBasics(t *testing.T) {
	w := NewSlidingWindow(3)
	if w.Len() != 0 || len(w.buf) != 3 {
		t.Fatalf("fresh window: len=%d cap=%d", w.Len(), len(w.buf))
	}
	w.Add(q(1))
	w.Add(q(2))
	got := w.Queries()
	if len(got) != 2 || got[0].ID != 1 || got[1].ID != 2 {
		t.Fatalf("Queries = %v", got)
	}
}

func TestSlidingWindowEviction(t *testing.T) {
	w := NewSlidingWindow(3)
	for i := 1; i <= 7; i++ {
		w.Add(q(i))
	}
	got := w.Queries()
	if len(got) != 3 {
		t.Fatalf("len = %d, want 3", len(got))
	}
	for i, want := range []int{5, 6, 7} {
		if got[i].ID != want {
			t.Errorf("slot %d = %d, want %d", i, got[i].ID, want)
		}
	}
}

func TestSlidingWindowCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity did not panic")
		}
	}()
	NewSlidingWindow(0)
}

// Property: the window always holds exactly the last min(n, cap)
// queries, in order.
func TestSlidingWindowProperty(t *testing.T) {
	f := func(capRaw uint8, nRaw uint16) bool {
		capacity := int(capRaw%20) + 1
		n := int(nRaw % 500)
		w := NewSlidingWindow(capacity)
		for i := 0; i < n; i++ {
			w.Add(q(i))
		}
		got := w.Queries()
		wantLen := n
		if wantLen > capacity {
			wantLen = capacity
		}
		if len(got) != wantLen {
			return false
		}
		for i, qq := range got {
			if qq.ID != n-wantLen+i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRTBSSizeBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := NewRTBS(50, 0, rng)
	for i := 0; i < 5000; i++ {
		r.Add(q(i))
	}
	if r.Len() != 50 {
		t.Fatalf("Len = %d, want 50", r.Len())
	}
	if r.seen != 5000 {
		t.Fatalf("seen = %d, want 5000", r.seen)
	}
}

func TestRTBSUnderfill(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := NewRTBS(100, 0, rng)
	for i := 0; i < 30; i++ {
		r.Add(q(i))
	}
	if r.Len() != 30 {
		t.Fatalf("Len = %d, want all 30 kept while under capacity", r.Len())
	}
	got := r.Queries()
	for i, qq := range got {
		if qq.ID != i {
			t.Fatalf("Queries not in arrival order: %v", got)
		}
	}
}

// The defining R-TBS property: the sample is biased toward recent
// items — across many runs the mean sampled ID must exceed the stream
// midpoint by a clear margin, while still retaining some old items.
func TestRTBSRecencyBias(t *testing.T) {
	const stream = 8000
	const capacity = 100
	var sumID, oldCount, total float64
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := NewRTBS(capacity, DefaultLambda, rng)
		for i := 0; i < stream; i++ {
			r.Add(q(i))
		}
		for _, qq := range r.Queries() {
			sumID += float64(qq.ID)
			total++
			if qq.ID < stream/4 {
				oldCount++
			}
		}
	}
	meanID := sumID / total
	if meanID < float64(stream)*0.55 {
		t.Errorf("mean sampled ID %.0f shows no recency bias (midpoint %d)", meanID, stream/2)
	}
	if oldCount == 0 {
		t.Error("no memory of the distant past; R-TBS must keep some old items")
	}
}

func TestRTBSQueriesSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	r := NewRTBS(64, 0, rng)
	for i := 0; i < 3000; i++ {
		r.Add(q(i))
	}
	got := r.Queries()
	for i := 1; i < len(got); i++ {
		if got[i].ID < got[i-1].ID {
			t.Fatal("Queries not sorted by arrival")
		}
	}
}

func TestRTBSDeterminism(t *testing.T) {
	runOnce := func() []int {
		rng := rand.New(rand.NewSource(13))
		r := NewRTBS(32, 0, rng)
		for i := 0; i < 2000; i++ {
			r.Add(q(i))
		}
		var ids []int
		for _, qq := range r.Queries() {
			ids = append(ids, qq.ID)
		}
		return ids
	}
	a, b := runOnce(), runOnce()
	if len(a) != len(b) {
		t.Fatal("different sample sizes across identical seeds")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("different samples across identical seeds")
		}
	}
}

func TestRTBSCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity did not panic")
		}
	}()
	NewRTBS(0, 0, rand.New(rand.NewSource(1)))
}

// Higher lambda must increase recency bias.
func TestRTBSLambdaControlsBias(t *testing.T) {
	mean := func(lambda float64) float64 {
		var sum, n float64
		for seed := int64(0); seed < 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			r := NewRTBS(80, lambda, rng)
			for i := 0; i < 6000; i++ {
				r.Add(q(i))
			}
			for _, qq := range r.Queries() {
				sum += float64(qq.ID)
				n++
			}
		}
		return sum / n
	}
	weak := mean(0.0001)
	strong := mean(0.01)
	if strong <= weak {
		t.Errorf("lambda=0.01 mean %.0f not more recent than lambda=0.0001 mean %.0f", strong, weak)
	}
}
