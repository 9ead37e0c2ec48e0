package datagen

import (
	"math/rand"

	"oreo/internal/table"
)

// TPC-DS dates: sales spanning five calendar years, encoded as days
// since epoch, plus denormalized calendar columns (d_year, d_moy, d_dom)
// that the paper's 17 store_sales templates filter on.
const (
	// TPCDSDateMin is 1998-01-01 as days since epoch.
	TPCDSDateMin int64 = 10227
	// TPCDSDateMax is 2002-12-31 as days since epoch.
	TPCDSDateMax int64 = 12053
	// TPCDSYearMin / TPCDSYearMax bound d_year.
	TPCDSYearMin int64 = 1998
	TPCDSYearMax int64 = 2002
)

// Dimension vocabularies with dsdgen-like cardinalities.
var (
	TPCDSCategories = []string{"Books", "Children", "Electronics", "Home", "Jewelry", "Men", "Music", "Shoes", "Sports", "Women"}
	TPCDSClasses    = seq("class#", 16)
	TPCDSBrandsDS   = seq("brand#", 20)
	TPCDSGenders    = []string{"F", "M"}
	TPCDSMarital    = []string{"D", "M", "S", "U", "W"}
	TPCDSEducation  = []string{"2 yr Degree", "4 yr Degree", "Advanced Degree", "College", "Primary", "Secondary", "Unknown"}
	TPCDSStates     = []string{"AL", "CA", "GA", "IL", "KS", "MI", "NC", "OH", "TN", "TX"}
	TPCDSCounties   = seq("county#", 30)
	TPCDSPromoYesNo = []string{"N", "Y"}
)

// TPCDSSchema returns the schema of the denormalized store_sales table:
// the fact columns plus item, customer-demographics, store, and date
// dimension columns.
func TPCDSSchema() *table.Schema {
	return table.NewSchema(
		table.Column{Name: "ss_sold_date", Type: table.Int64},
		table.Column{Name: "ss_sold_time", Type: table.Int64}, // seconds within day
		table.Column{Name: "ss_item_key", Type: table.Int64},
		table.Column{Name: "ss_customer_key", Type: table.Int64},
		table.Column{Name: "ss_store_key", Type: table.Int64},
		table.Column{Name: "ss_quantity", Type: table.Int64},
		table.Column{Name: "ss_wholesale_cost", Type: table.Float64},
		table.Column{Name: "ss_list_price", Type: table.Float64},
		table.Column{Name: "ss_sales_price", Type: table.Float64},
		table.Column{Name: "ss_ext_sales_price", Type: table.Float64},
		table.Column{Name: "ss_net_profit", Type: table.Float64},
		table.Column{Name: "ss_coupon_amt", Type: table.Float64},
		table.Column{Name: "i_category", Type: table.String},
		table.Column{Name: "i_class", Type: table.String},
		table.Column{Name: "i_brand", Type: table.String},
		table.Column{Name: "i_current_price", Type: table.Float64},
		table.Column{Name: "cd_gender", Type: table.String},
		table.Column{Name: "cd_marital_status", Type: table.String},
		table.Column{Name: "cd_education_status", Type: table.String},
		table.Column{Name: "cd_dep_count", Type: table.Int64},
		table.Column{Name: "s_state", Type: table.String},
		table.Column{Name: "s_county", Type: table.String},
		table.Column{Name: "p_promo", Type: table.String},
		table.Column{Name: "d_year", Type: table.Int64},
		table.Column{Name: "d_moy", Type: table.Int64},
		table.Column{Name: "d_dom", Type: table.Int64},
	)
}

// GenerateTPCDS builds a denormalized store_sales table with `rows`
// rows. Correlations preserved for skipping realism:
//
//   - calendar columns (d_year, d_moy, d_dom) are derived from the sold
//     date, so date-range and month filters agree;
//   - item category constrains class and brand (each category owns a
//     contiguous band of classes/brands);
//   - price columns are derived from wholesale cost with bounded
//     markups, so price-band filters correlate with profit filters;
//   - rows arrive roughly in sold-date order with jitter.
func GenerateTPCDS(rows int, rng *rand.Rand) *table.Dataset {
	schema := TPCDSSchema()
	b := table.NewBuilder(schema, rows)

	span := float64(TPCDSDateMax - TPCDSDateMin)
	for i := 0; i < rows; i++ {
		frac := float64(i) / float64(rows)
		// float64(...) rounds the product before the add: arm64 would
		// otherwise fuse the two, and the result would differ from amd64's.
		jitter := float64((float64(rng.Float64()) - 0.5) * 0.05)
		pos := frac + jitter
		if pos < 0 {
			pos = 0
		}
		if pos > 1 {
			pos = 1
		}
		soldDate := TPCDSDateMin + int64(pos*span)

		// Derive calendar columns from the sold date. 365.25-day years
		// keep d_year consistent with the date range boundaries.
		daysIn := soldDate - TPCDSDateMin
		year := TPCDSYearMin + daysIn/365
		if year > TPCDSYearMax {
			year = TPCDSYearMax
		}
		dayOfYear := daysIn % 365
		moy := dayOfYear/30 + 1
		if moy > 12 {
			moy = 12
		}
		dom := dayOfYear%30 + 1

		catIdx := int(rng.Float64() * rng.Float64() * float64(len(TPCDSCategories)))
		if catIdx >= len(TPCDSCategories) {
			catIdx = len(TPCDSCategories) - 1
		}
		category := TPCDSCategories[catIdx]
		// Category owns a contiguous band of classes and brands.
		class := TPCDSClasses[(catIdx+rng.Intn(3))%len(TPCDSClasses)]
		brand := TPCDSBrandsDS[(catIdx*2+rng.Intn(4))%len(TPCDSBrandsDS)]

		qty := int64(1 + rng.Intn(100))
		wholesale := 1 + float64(rng.Float64()*99)
		listPrice := wholesale * (1.2 + float64(rng.Float64()*1.3))
		salesPrice := float64(listPrice * (0.3 + float64(rng.Float64()*0.7)))
		extSales := salesPrice * float64(qty)
		profit := (salesPrice - wholesale) * float64(qty)
		coupon := 0.0
		if rng.Float64() < 0.15 {
			coupon = salesPrice * rng.Float64() * 0.5
		}

		b.AppendRow(
			table.Int(soldDate),
			table.Int(int64(rng.Intn(86400))),
			table.Int(int64(rng.Intn(rows/8+1))),
			table.Int(int64(rng.Intn(rows/12+1))),
			table.Int(int64(rng.Intn(50)+1)),
			table.Int(qty),
			table.Float(wholesale),
			table.Float(listPrice),
			table.Float(salesPrice),
			table.Float(extSales),
			table.Float(profit),
			table.Float(coupon),
			table.Str(category),
			table.Str(class),
			table.Str(brand),
			table.Float(listPrice*(0.9+float64(rng.Float64()*0.2))),
			table.Str(uniformStrings(rng, TPCDSGenders)),
			table.Str(uniformStrings(rng, TPCDSMarital)),
			table.Str(uniformStrings(rng, TPCDSEducation)),
			table.Int(int64(rng.Intn(10))),
			table.Str(zipfStrings(rng, TPCDSStates)),
			table.Str(uniformStrings(rng, TPCDSCounties)),
			table.Str(TPCDSPromoYesNo[rng.Intn(2)]),
			table.Int(year),
			table.Int(moy),
			table.Int(dom),
		)
	}
	return b.Build()
}
