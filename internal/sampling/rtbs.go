package sampling

import (
	"container/heap"
	"math"
	"math/rand"

	"oreo/internal/query"
)

// RTBS is a reservoir-based time-biased sample of a query stream: a
// bounded sample in which the probability that an item is retained
// decays exponentially with its age, so the sample "biases towards
// recent events but also keeps memories from the past" (the property
// the paper wants from Hentschel/Haas/Tian's R-TBS).
//
// Implementation: weighted reservoir sampling (Efraimidis–Spirakis
// A-Res) with item weight w(t) = exp(lambda * t), where t is the item's
// arrival index. Item i is kept if its key u_i^(1/w_i) is among the
// capacity largest; equivalently we keep the items with the *smallest*
// score log(-log u_i) - lambda*t_i, which is numerically stable for
// arbitrarily long streams (no exp overflow). The relative retention
// probability of two items then decays exponentially in their age
// difference, which is the R-TBS decay law.
type RTBS struct {
	lambda   float64
	capacity int
	rng      *rand.Rand
	h        scoreHeap // max-heap on score: root is the eviction candidate
	seen     int
}

// DefaultLambda gives a retention half-life of ~2000 queries, several
// sliding windows deep — recent-biased but with long memory.
const DefaultLambda = math.Ln2 / 2000

// NewRTBS returns a time-biased reservoir of the given capacity.
// lambda is the exponential decay rate per arrival; lambda <= 0 selects
// DefaultLambda. lambda == math.Inf? Not supported; use a SlidingWindow
// for pure recency.
func NewRTBS(capacity int, lambda float64, rng *rand.Rand) *RTBS {
	if capacity <= 0 {
		panic("sampling: RTBS capacity must be positive")
	}
	if lambda <= 0 {
		lambda = DefaultLambda
	}
	return &RTBS{lambda: lambda, capacity: capacity, rng: rng}
}

// Add offers a query to the reservoir.
func (r *RTBS) Add(q query.Query) {
	t := float64(r.seen)
	r.seen++
	u := r.rng.Float64()
	//oreovet:ignore floatbits guards log(0): rand.Float64 can return exactly 0, and 0 is the only value that must be rerolled
	for u == 0 { // log(0) guard; Float64 can return 0
		u = r.rng.Float64()
	}
	// float64(...) rounds the product before the add: arm64 would
	// otherwise fuse the two, and the result would differ from amd64's.
	score := math.Log(-math.Log(u)) - float64(r.lambda*t)

	if r.h.Len() < r.capacity {
		heap.Push(&r.h, scoredQuery{score: score, q: q})
		return
	}
	if score < r.h.items[0].score {
		r.h.items[0] = scoredQuery{score: score, q: q}
		heap.Fix(&r.h, 0)
	}
}

// Len returns the current sample size.
func (r *RTBS) Len() int { return r.h.Len() }

// Seen returns the lifetime number of queries offered.
func (r *RTBS) Seen() int { return r.seen }

// Queries returns the sampled queries in arrival order.
func (r *RTBS) Queries() []query.Query {
	out := make([]query.Query, 0, r.h.Len())
	for _, it := range r.h.items {
		out = append(out, it.q)
	}
	// Arrival order (query IDs are stream positions) keeps downstream
	// cost vectors deterministic.
	sortQueriesByID(out)
	return out
}

func sortQueriesByID(qs []query.Query) {
	// Insertion sort: samples are small (tens to low hundreds).
	for i := 1; i < len(qs); i++ {
		for j := i; j > 0 && qs[j].ID < qs[j-1].ID; j-- {
			qs[j], qs[j-1] = qs[j-1], qs[j]
		}
	}
}

type scoredQuery struct {
	score float64
	q     query.Query
}

// scoreHeap is a max-heap by score (largest score = weakest item = next
// eviction candidate).
type scoreHeap struct {
	items []scoredQuery
}

func (h *scoreHeap) Len() int           { return len(h.items) }
func (h *scoreHeap) Less(i, j int) bool { return h.items[i].score > h.items[j].score }
func (h *scoreHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *scoreHeap) Push(x interface{}) { h.items = append(h.items, x.(scoredQuery)) }
func (h *scoreHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}
