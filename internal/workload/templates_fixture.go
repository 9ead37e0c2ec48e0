package workload

import (
	"math/rand"

	"oreo/internal/query"
)

// FixtureTemplates returns the template library for one of the serving
// fixture tables (cmd/oreoserve -tables orders,events, and the CSV
// fixture the CI smoke jobs ingest). rows is the table's row count —
// the fixtures key their sort column 0..rows-1, so the windows below
// are drawn inside that range. Unknown table names return nil.
//
// The mix mirrors the paper's workload shape on a schema small enough
// to boot in a smoke test: time-window probes at two widths, a
// categorical filter, the combined categorical+window shape, and a
// value-band probe on the float column — enough drift across templates
// that a segment switch changes which layout wins.
func FixtureTemplates(table string, rows int) []Template {
	if rows < 100 {
		rows = 100
	}
	n := int64(rows)
	window := func(rng *rand.Rand, width int64) (int64, int64) {
		if width >= n {
			return 0, n - 1
		}
		lo := rng.Int63n(n - width)
		return lo, lo + width
	}
	switch table {
	case "orders":
		statuses := []string{"cancelled", "delivered", "pending", "returned"}
		return []Template{
			{
				// Narrow recent-window probe: ~1% of the keyspace.
				Name: "ts-narrow",
				Make: func(rng *rand.Rand) []query.Predicate {
					lo, hi := window(rng, n/100+1)
					return []query.Predicate{query.IntRange("order_ts", lo, hi)}
				},
			},
			{
				// Wide reporting window: ~10%.
				Name: "ts-wide",
				Make: func(rng *rand.Rand) []query.Predicate {
					lo, hi := window(rng, n/10+1)
					return []query.Predicate{query.IntRange("order_ts", lo, hi)}
				},
			},
			{
				Name: "status-eq",
				Make: func(rng *rand.Rand) []query.Predicate {
					return []query.Predicate{query.StrEq("status", statuses[rng.Intn(len(statuses))])}
				},
			},
			{
				Name: "status-window",
				Make: func(rng *rand.Rand) []query.Predicate {
					lo, hi := window(rng, n/20+1)
					return []query.Predicate{
						query.StrEq("status", statuses[rng.Intn(len(statuses))]),
						query.IntRange("order_ts", lo, hi),
					}
				},
			},
			{
				// Amount band: the fixture draws amounts uniformly in
				// [0, 500).
				Name: "amount-band",
				Make: func(rng *rand.Rand) []query.Predicate {
					lo := float64(rng.Float64() * 400)
					return []query.Predicate{query.FloatRange("amount", lo, lo+60)}
				},
			},
		}
	case "events":
		users := []string{"alice", "bob", "carol", "dave", "erin"}
		return []Template{
			{
				Name: "ts-window",
				Make: func(rng *rand.Rand) []query.Predicate {
					lo, hi := window(rng, n/50+1)
					return []query.Predicate{query.IntRange("ts", lo, hi)}
				},
			},
			{
				Name: "user-eq",
				Make: func(rng *rand.Rand) []query.Predicate {
					return []query.Predicate{query.StrEq("user", users[rng.Intn(len(users))])}
				},
			},
			{
				// Slow-events probe: the fixture's latency is exponential
				// with mean 80, so 200+ is a sparse tail.
				Name: "slow-events",
				Make: func(rng *rand.Rand) []query.Predicate {
					return []query.Predicate{query.FloatGE("latency", 200+float64(rng.Float64()*200))}
				},
			},
			{
				Name: "user-window",
				Make: func(rng *rand.Rand) []query.Predicate {
					lo, hi := window(rng, n/20+1)
					return []query.Predicate{
						query.StrEq("user", users[rng.Intn(len(users))]),
						query.IntRange("ts", lo, hi),
					}
				},
			},
		}
	default:
		return nil
	}
}
