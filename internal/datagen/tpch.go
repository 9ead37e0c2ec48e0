package datagen

import (
	"math/rand"

	"oreo/internal/table"
)

// Date encoding: int64 days since 1970-01-01. The TPC-H population
// covers orders placed 1992-01-01 .. 1998-08-02 with line items shipped
// up to ~4 months later, mirroring dbgen's date rules.
const (
	// TPCHOrderDateMin is 1992-01-01 as days since epoch.
	TPCHOrderDateMin int64 = 8035
	// TPCHOrderDateMax is 1998-08-02 as days since epoch.
	TPCHOrderDateMax int64 = 10440
	// TPCHShipDateMax bounds ship/receipt dates (order date + ~4 months).
	TPCHShipDateMax int64 = TPCHOrderDateMax + 122
)

// Dimension vocabularies, mirroring dbgen's cardinalities where that
// matters for skipping (regions: 5, nations: 25, segments: 5, etc.).
var (
	TPCHReturnFlags   = []string{"A", "N", "R"}
	TPCHLineStatuses  = []string{"F", "O"}
	TPCHShipModes     = []string{"AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"}
	TPCHShipInstructs = []string{"COLLECT COD", "DELIVER IN PERSON", "NONE", "TAKE BACK RETURN"}
	TPCHOrderPrios    = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	TPCHOrderStatuses = []string{"F", "O", "P"}
	TPCHMktSegments   = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"}
	TPCHBrands        = seq("Brand#", 25)
	TPCHContainers    = seq("CONTAINER#", 40)
	TPCHPartTypes     = seq("TYPE#", 30)
	TPCHNumNations    = 25
	TPCHNumRegions    = 5
)

// TPCHSchema returns the schema of the denormalized lineitem table: the
// lineitem fact columns plus the order, customer, supplier, and part
// dimension columns that the paper's 13 query templates filter on.
func TPCHSchema() *table.Schema {
	return table.NewSchema(
		table.Column{Name: "l_orderkey", Type: table.Int64},
		table.Column{Name: "l_partkey", Type: table.Int64},
		table.Column{Name: "l_suppkey", Type: table.Int64},
		table.Column{Name: "l_linenumber", Type: table.Int64},
		table.Column{Name: "l_quantity", Type: table.Int64},
		table.Column{Name: "l_extendedprice", Type: table.Float64},
		table.Column{Name: "l_discount", Type: table.Float64},
		table.Column{Name: "l_tax", Type: table.Float64},
		table.Column{Name: "l_returnflag", Type: table.String},
		table.Column{Name: "l_linestatus", Type: table.String},
		table.Column{Name: "l_shipdate", Type: table.Int64},
		table.Column{Name: "l_commitdate", Type: table.Int64},
		table.Column{Name: "l_receiptdate", Type: table.Int64},
		table.Column{Name: "l_shipinstruct", Type: table.String},
		table.Column{Name: "l_shipmode", Type: table.String},
		table.Column{Name: "o_orderdate", Type: table.Int64},
		table.Column{Name: "o_orderpriority", Type: table.String},
		table.Column{Name: "o_orderstatus", Type: table.String},
		table.Column{Name: "c_mktsegment", Type: table.String},
		table.Column{Name: "c_nationkey", Type: table.Int64},
		table.Column{Name: "c_regionkey", Type: table.Int64},
		table.Column{Name: "s_nationkey", Type: table.Int64},
		table.Column{Name: "s_regionkey", Type: table.Int64},
		table.Column{Name: "p_brand", Type: table.String},
		table.Column{Name: "p_container", Type: table.String},
		table.Column{Name: "p_type", Type: table.String},
		table.Column{Name: "p_size", Type: table.Int64},
	)
}

// GenerateTPCH builds a denormalized lineitem table with `rows` rows.
// Correlations that matter for skipping are preserved:
//
//   - l_shipdate = o_orderdate + [1,121] days; l_commitdate and
//     l_receiptdate trail the ship date, as in dbgen;
//   - l_returnflag is "R" or "A" only for early receipt dates (dbgen
//     marks returns only for items received before 1995-06-17);
//   - nation keys determine region keys (5 nations per region);
//   - rows arrive roughly in order-date order with jitter, so the
//     default "partition by arrival time" layout behaves like a real
//     ingest-ordered table.
func GenerateTPCH(rows int, rng *rand.Rand) *table.Dataset {
	schema := TPCHSchema()
	b := table.NewBuilder(schema, rows)

	dateSpan := float64(TPCHOrderDateMax - TPCHOrderDateMin)
	const returnCutoff int64 = 9298 // 1995-06-17 as days since epoch

	for i := 0; i < rows; i++ {
		// Arrival-ordered order date with jitter: position in the file
		// correlates with time, like an ingest-ordered fact table.
		frac := float64(i) / float64(rows)
		// float64(...) rounds the product before the add: arm64 would
		// otherwise fuse the two, and the result would differ from amd64's.
		jitter := float64((float64(rng.Float64()) - 0.5) * 0.06)
		pos := frac + jitter
		if pos < 0 {
			pos = 0
		}
		if pos > 1 {
			pos = 1
		}
		orderDate := TPCHOrderDateMin + int64(pos*dateSpan)

		shipDate := orderDate + 1 + int64(rng.Intn(121))
		commitDate := orderDate + 30 + int64(rng.Intn(61))
		receiptDate := shipDate + 1 + int64(rng.Intn(30))

		var returnFlag string
		if receiptDate <= returnCutoff {
			returnFlag = TPCHReturnFlags[rng.Intn(2)*2] // "A" or "R"
		} else {
			returnFlag = "N"
		}
		lineStatus := "O"
		if shipDate <= returnCutoff {
			lineStatus = "F"
		}

		custNation := int64(rng.Intn(TPCHNumNations))
		suppNation := int64(rng.Intn(TPCHNumNations))

		qty := int64(1 + rng.Intn(50))
		price := float64(qty) * (900 + rng.Float64()*104000/50)
		discount := float64(rng.Intn(11)) / 100.0
		tax := float64(rng.Intn(9)) / 100.0

		b.AppendRow(
			table.Int(int64(i/4+1)),               // l_orderkey: ~4 lines per order
			table.Int(int64(rng.Intn(rows/4+1))),  // l_partkey
			table.Int(int64(rng.Intn(rows/40+1))), // l_suppkey
			table.Int(int64(i%4+1)),               // l_linenumber
			table.Int(qty),
			table.Float(price),
			table.Float(discount),
			table.Float(tax),
			table.Str(returnFlag),
			table.Str(lineStatus),
			table.Int(shipDate),
			table.Int(commitDate),
			table.Int(receiptDate),
			table.Str(uniformStrings(rng, TPCHShipInstructs)),
			table.Str(uniformStrings(rng, TPCHShipModes)),
			table.Int(orderDate),
			table.Str(uniformStrings(rng, TPCHOrderPrios)),
			table.Str(uniformStrings(rng, TPCHOrderStatuses)),
			table.Str(zipfStrings(rng, TPCHMktSegments)),
			table.Int(custNation),
			table.Int(custNation/5), // c_regionkey: 5 nations per region
			table.Int(suppNation),
			table.Int(suppNation/5),
			table.Str(zipfStrings(rng, TPCHBrands)),
			table.Str(uniformStrings(rng, TPCHContainers)),
			table.Str(zipfStrings(rng, TPCHPartTypes)),
			table.Int(int64(1+rng.Intn(50))), // p_size
		)
	}
	return b.Build()
}
