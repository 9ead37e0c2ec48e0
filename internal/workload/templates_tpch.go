package workload

import (
	"math/rand"

	"oreo/internal/datagen"
	"oreo/internal/query"
)

// TPCHTemplates returns the 13 query-template analogues the paper uses
// on the denormalized lineitem table (TPC-H q1, q3, q4, q5, q6, q7, q8,
// q10, q12, q14, q17, q21; q9 and q18 are excluded in the paper because
// their predicates cannot be judged from basic partition metadata).
// Each template reproduces the filter *shape* of the original query —
// which columns are constrained and roughly how selectively — since
// that is all that matters to layout work.
func TPCHTemplates() []Template {
	dateMin, dateMax := datagen.TPCHOrderDateMin, datagen.TPCHOrderDateMax
	shipMax := datagen.TPCHShipDateMax
	span := dateMax - dateMin

	randDate := func(rng *rand.Rand) int64 { return dateMin + rng.Int63n(span) }

	return []Template{
		{
			// q1: all lineitems shipped up to a cutoff near the end of
			// the population (scan-heavy, weak predicate).
			Name: "q1-shipdate-cutoff",
			Make: func(rng *rand.Rand) []query.Predicate {
				cutoff := shipMax - 60 - rng.Int63n(60)
				return []query.Predicate{query.IntLE("l_shipdate", cutoff)}
			},
		},
		{
			// q3: market segment + orders before a date + shipped after it.
			Name: "q3-segment-shipping-priority",
			Make: func(rng *rand.Rand) []query.Predicate {
				d := randDate(rng)
				seg := datagen.TPCHMktSegments[rng.Intn(len(datagen.TPCHMktSegments))]
				return []query.Predicate{
					query.StrEq("c_mktsegment", seg),
					query.IntLE("o_orderdate", d),
					query.IntGE("l_shipdate", d),
				}
			},
		},
		{
			// q4: orders in a three-month window.
			Name: "q4-order-quarter",
			Make: func(rng *rand.Rand) []query.Predicate {
				d := dateMin + rng.Int63n(span-92)
				return []query.Predicate{query.IntRange("o_orderdate", d, d+92)}
			},
		},
		{
			// q5: region + order year.
			Name: "q5-region-year",
			Make: func(rng *rand.Rand) []query.Predicate {
				d := dateMin + rng.Int63n(span-365)
				region := int64(rng.Intn(datagen.TPCHNumRegions))
				return []query.Predicate{
					query.IntRange("c_regionkey", region, region),
					query.IntRange("o_orderdate", d, d+365),
				}
			},
		},
		{
			// q6: ship year + discount band + quantity cap. The classic
			// highly selective data-skipping query.
			Name: "q6-forecast-revenue",
			Make: func(rng *rand.Rand) []query.Predicate {
				d := dateMin + rng.Int63n(span-365)
				disc := float64(2+rng.Intn(8)) / 100
				return []query.Predicate{
					query.IntRange("l_shipdate", d, d+365),
					query.FloatRange("l_discount", disc-0.01, disc+0.01),
					query.IntLE("l_quantity", 24),
				}
			},
		},
		{
			// q7: nation pair + ship date in a two-year band.
			Name: "q7-volume-shipping",
			Make: func(rng *rand.Rand) []query.Predicate {
				n1 := int64(rng.Intn(datagen.TPCHNumNations))
				d := dateMin + rng.Int63n(span-730)
				return []query.Predicate{
					query.IntRange("c_nationkey", n1, n1),
					query.IntRange("l_shipdate", d, d+730),
				}
			},
		},
		{
			// q8: region + order date band + part type.
			Name: "q8-market-share",
			Make: func(rng *rand.Rand) []query.Predicate {
				region := int64(rng.Intn(datagen.TPCHNumRegions))
				d := dateMin + rng.Int63n(span-730)
				pt := datagen.TPCHPartTypes[rng.Intn(len(datagen.TPCHPartTypes))]
				return []query.Predicate{
					query.IntRange("s_regionkey", region, region),
					query.IntRange("o_orderdate", d, d+730),
					query.StrEq("p_type", pt),
				}
			},
		},
		{
			// q10: returned items in a three-month order window.
			Name: "q10-returned-items",
			Make: func(rng *rand.Rand) []query.Predicate {
				d := dateMin + rng.Int63n(span-92)
				return []query.Predicate{
					query.IntRange("o_orderdate", d, d+92),
					query.StrEq("l_returnflag", "R"),
				}
			},
		},
		{
			// q12: two ship modes + receipt year.
			Name: "q12-shipmode-priority",
			Make: func(rng *rand.Rand) []query.Predicate {
				m1 := datagen.TPCHShipModes[rng.Intn(len(datagen.TPCHShipModes))]
				m2 := datagen.TPCHShipModes[rng.Intn(len(datagen.TPCHShipModes))]
				d := dateMin + rng.Int63n(span-365)
				return []query.Predicate{
					query.StrIn("l_shipmode", m1, m2),
					query.IntRange("l_receiptdate", d, d+365),
				}
			},
		},
		{
			// q14: promotion effect, one ship month.
			Name: "q14-promo-month",
			Make: func(rng *rand.Rand) []query.Predicate {
				d := dateMin + rng.Int63n(span-31)
				return []query.Predicate{query.IntRange("l_shipdate", d, d+31)}
			},
		},
		{
			// q17: brand + container (small-quantity order revenue).
			Name: "q17-brand-container",
			Make: func(rng *rand.Rand) []query.Predicate {
				b := datagen.TPCHBrands[rng.Intn(len(datagen.TPCHBrands))]
				c := datagen.TPCHContainers[rng.Intn(len(datagen.TPCHContainers))]
				return []query.Predicate{
					query.StrEq("p_brand", b),
					query.StrEq("p_container", c),
				}
			},
		},
		{
			// q21: supplier nation + order status F.
			Name: "q21-suppliers-kept-waiting",
			Make: func(rng *rand.Rand) []query.Predicate {
				n := int64(rng.Intn(datagen.TPCHNumNations))
				return []query.Predicate{
					query.IntRange("s_nationkey", n, n),
					query.StrEq("o_orderstatus", "F"),
				}
			},
		},
		{
			// Extra drift target used by the paper's workload mix: a
			// tight quantity/price band probe (stresses non-date columns).
			Name: "quantity-price-band",
			Make: func(rng *rand.Rand) []query.Predicate {
				q0 := int64(1 + rng.Intn(40))
				// float64(...) rounds the product before the add: arm64 would
				// otherwise fuse the two, and the result would differ from amd64's.
				p0 := 1000 + float64(rng.Float64()*80000)
				return []query.Predicate{
					query.IntRange("l_quantity", q0, q0+10),
					query.FloatRange("l_extendedprice", p0, p0+20000),
				}
			},
		},
	}
}
