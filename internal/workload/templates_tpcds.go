package workload

import (
	"math/rand"

	"oreo/internal/datagen"
	"oreo/internal/query"
)

// TPCDSTemplates returns 17 template analogues for the denormalized
// store_sales table, mirroring the paper's selection (q3, q7, q13, q19,
// q27, q28, q34, q36, q46, q48, q53, q68, q79, q88, q89, q96, q98):
// filters over item dimensions (category/class/brand), customer
// demographics, store geography, calendar columns, and fact-column
// bands (quantity, prices, profit).
func TPCDSTemplates() []Template {
	yearMin, yearMax := datagen.TPCDSYearMin, datagen.TPCDSYearMax
	dateMin, dateMax := datagen.TPCDSDateMin, datagen.TPCDSDateMax
	span := dateMax - dateMin

	randYear := func(rng *rand.Rand) int64 { return yearMin + rng.Int63n(yearMax-yearMin+1) }

	return []Template{
		{
			// q3: brand + month across years.
			Name: "q3-brand-month",
			Make: func(rng *rand.Rand) []query.Predicate {
				b := datagen.TPCDSBrandsDS[rng.Intn(len(datagen.TPCDSBrandsDS))]
				m := int64(1 + rng.Intn(12))
				return []query.Predicate{
					query.StrEq("i_brand", b),
					query.IntRange("d_moy", m, m),
				}
			},
		},
		{
			// q7: demographics + year.
			Name: "q7-demographics-year",
			Make: func(rng *rand.Rand) []query.Predicate {
				return []query.Predicate{
					query.StrEq("cd_gender", datagen.TPCDSGenders[rng.Intn(2)]),
					query.StrEq("cd_marital_status", datagen.TPCDSMarital[rng.Intn(len(datagen.TPCDSMarital))]),
					query.StrEq("cd_education_status", datagen.TPCDSEducation[rng.Intn(len(datagen.TPCDSEducation))]),
					query.IntRange("d_year", randYear(rng), randYear(rng)+1),
				}
			},
		},
		{
			// q13: marital/education + sales-price band.
			Name: "q13-price-demographics",
			Make: func(rng *rand.Rand) []query.Predicate {
				// float64(...) rounds the product before the add: arm64 would
				// otherwise fuse the two, and the result would differ from amd64's.
				lo := 20 + float64(rng.Float64()*80)
				return []query.Predicate{
					query.StrEq("cd_marital_status", datagen.TPCDSMarital[rng.Intn(len(datagen.TPCDSMarital))]),
					query.FloatRange("ss_sales_price", lo, lo+50),
				}
			},
		},
		{
			// q19: brand + category + month + year.
			Name: "q19-brand-category-month",
			Make: func(rng *rand.Rand) []query.Predicate {
				cat := datagen.TPCDSCategories[rng.Intn(len(datagen.TPCDSCategories))]
				m := int64(1 + rng.Intn(12))
				y := randYear(rng)
				return []query.Predicate{
					query.StrEq("i_category", cat),
					query.IntRange("d_moy", m, m),
					query.IntRange("d_year", y, y),
				}
			},
		},
		{
			// q27: state + year (store-level rollup).
			Name: "q27-state-year",
			Make: func(rng *rand.Rand) []query.Predicate {
				st := datagen.TPCDSStates[rng.Intn(len(datagen.TPCDSStates))]
				y := randYear(rng)
				return []query.Predicate{
					query.StrEq("s_state", st),
					query.IntRange("d_year", y, y),
				}
			},
		},
		{
			// q28: quantity bucket + list-price band.
			Name: "q28-quantity-buckets",
			Make: func(rng *rand.Rand) []query.Predicate {
				q0 := int64(rng.Intn(80))
				p0 := 10 + float64(rng.Float64()*150)
				return []query.Predicate{
					query.IntRange("ss_quantity", q0, q0+20),
					query.FloatRange("ss_list_price", p0, p0+60),
				}
			},
		},
		{
			// q34: county + dependent count + a month band.
			Name: "q34-county-deps",
			Make: func(rng *rand.Rand) []query.Predicate {
				county := datagen.TPCDSCounties[rng.Intn(len(datagen.TPCDSCounties))]
				m := int64(1 + rng.Intn(10))
				return []query.Predicate{
					query.StrEq("s_county", county),
					query.IntRange("d_moy", m, m+2),
					query.IntGE("cd_dep_count", 3),
				}
			},
		},
		{
			// q36: category + class + year.
			Name: "q36-category-class-year",
			Make: func(rng *rand.Rand) []query.Predicate {
				cat := datagen.TPCDSCategories[rng.Intn(len(datagen.TPCDSCategories))]
				cl := datagen.TPCDSClasses[rng.Intn(len(datagen.TPCDSClasses))]
				y := randYear(rng)
				return []query.Predicate{
					query.StrEq("i_category", cat),
					query.StrEq("i_class", cl),
					query.IntRange("d_year", y, y),
				}
			},
		},
		{
			// q46: county + dom band (customers by day-of-month).
			Name: "q46-county-dom",
			Make: func(rng *rand.Rand) []query.Predicate {
				county := datagen.TPCDSCounties[rng.Intn(len(datagen.TPCDSCounties))]
				d0 := int64(1 + rng.Intn(20))
				return []query.Predicate{
					query.StrEq("s_county", county),
					query.IntRange("d_dom", d0, d0+9),
				}
			},
		},
		{
			// q48: quantity band + state IN-list.
			Name: "q48-quantity-states",
			Make: func(rng *rand.Rand) []query.Predicate {
				q0 := int64(rng.Intn(60))
				s1 := datagen.TPCDSStates[rng.Intn(len(datagen.TPCDSStates))]
				s2 := datagen.TPCDSStates[rng.Intn(len(datagen.TPCDSStates))]
				s3 := datagen.TPCDSStates[rng.Intn(len(datagen.TPCDSStates))]
				return []query.Predicate{
					query.IntRange("ss_quantity", q0, q0+20),
					query.StrIn("s_state", s1, s2, s3),
				}
			},
		},
		{
			// q53: brand band + specific months.
			Name: "q53-manufacturer-months",
			Make: func(rng *rand.Rand) []query.Predicate {
				b := datagen.TPCDSBrandsDS[rng.Intn(len(datagen.TPCDSBrandsDS))]
				y := randYear(rng)
				return []query.Predicate{
					query.StrEq("i_brand", b),
					query.IntRange("d_year", y, y),
				}
			},
		},
		{
			// q68: county + coupon amount threshold.
			Name: "q68-coupon-county",
			Make: func(rng *rand.Rand) []query.Predicate {
				county := datagen.TPCDSCounties[rng.Intn(len(datagen.TPCDSCounties))]
				return []query.Predicate{
					query.StrEq("s_county", county),
					query.FloatGE("ss_coupon_amt", 1+float64(rng.Float64()*20)),
				}
			},
		},
		{
			// q79: profit threshold + state.
			Name: "q79-profit-state",
			Make: func(rng *rand.Rand) []query.Predicate {
				st := datagen.TPCDSStates[rng.Intn(len(datagen.TPCDSStates))]
				return []query.Predicate{
					query.StrEq("s_state", st),
					query.FloatGE("ss_net_profit", 100+float64(rng.Float64()*2000)),
				}
			},
		},
		{
			// q88: time-of-day bands.
			Name: "q88-time-of-day",
			Make: func(rng *rand.Rand) []query.Predicate {
				h := int64(8 + rng.Intn(10))
				return []query.Predicate{
					query.IntRange("ss_sold_time", h*3600, (h+1)*3600),
					query.IntLE("cd_dep_count", 5),
				}
			},
		},
		{
			// q89: category trio + year (rolling class comparison).
			Name: "q89-categories-year",
			Make: func(rng *rand.Rand) []query.Predicate {
				c1 := datagen.TPCDSCategories[rng.Intn(len(datagen.TPCDSCategories))]
				c2 := datagen.TPCDSCategories[rng.Intn(len(datagen.TPCDSCategories))]
				y := randYear(rng)
				return []query.Predicate{
					query.StrIn("i_category", c1, c2),
					query.IntRange("d_year", y, y),
				}
			},
		},
		{
			// q96: time band + dependents (store traffic probe).
			Name: "q96-store-traffic",
			Make: func(rng *rand.Rand) []query.Predicate {
				h := int64(9 + rng.Intn(9))
				return []query.Predicate{
					query.IntRange("ss_sold_time", h*3600, h*3600+1800),
				}
			},
		},
		{
			// q98: category + a 30-day sold-date window.
			Name: "q98-category-window",
			Make: func(rng *rand.Rand) []query.Predicate {
				cat := datagen.TPCDSCategories[rng.Intn(len(datagen.TPCDSCategories))]
				d := dateMin + rng.Int63n(span-30)
				return []query.Predicate{
					query.StrEq("i_category", cat),
					query.IntRange("ss_sold_date", d, d+30),
				}
			},
		},
	}
}
