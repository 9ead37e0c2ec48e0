package client

import "oreo/internal/wire"

// Wire types: the server's own, declared once in internal/wire (itself
// standard library only) and named here for the SDK. The predicate
// encoding is the one internal/persist's query log writes, so a
// captured production log IS a valid request stream.
type (
	// Predicate is one single-column filter: numeric predicates carry an
	// int64 and/or float64 bound family and the server selects by the
	// target column's schema type; string predicates carry an IN set.
	// Use the typed constructors (IntRange, FloatGE, StrIn, ...) rather
	// than filling fields by hand.
	Predicate = wire.PredicateJSON
	// Query is one serving request. ID, when set, is echoed on every
	// result — replay clients should number from 1, since an explicit 0
	// is indistinguishable from "no ID" on the wire.
	Query           = wire.QueryRequest
	Aggregate       = wire.AggregateJSON
	AggregateResult = wire.AggregateResultJSON
	Execution       = wire.ExecutionJSON
	TableResult     = wire.TableResult
	BatchItem       = wire.BatchItem
	Layout          = wire.LayoutResponse
	TableStats      = wire.StatsResponse
	TraceEvent      = wire.TraceEventJSON
	Trace           = wire.TraceResponse
	// Health is GET /healthz: Role tells a leader from a follower, and
	// LayoutEpochs carries each table's decision epoch on both sides —
	// replication lag for a table is the leader's reading minus the
	// follower's. Fields a server predates read as their zero values.
	Health        = wire.HealthResponse
	AppendResult  = wire.AppendResponse
	CompactResult = wire.CompactResponse
)

// IntRange returns a closed int64 range predicate lo <= col <= hi.
func IntRange(col string, lo, hi int64) Predicate {
	return Predicate{Col: col, LoI: lo, HiI: hi, HasLo: true, HasHi: true}
}

// IntGE returns an int64 lower-bound predicate col >= lo.
func IntGE(col string, lo int64) Predicate {
	return Predicate{Col: col, LoI: lo, HasLo: true}
}

// IntLE returns an int64 upper-bound predicate col <= hi.
func IntLE(col string, hi int64) Predicate {
	return Predicate{Col: col, HiI: hi, HasHi: true}
}

// FloatRange returns a closed float64 range predicate lo <= col <= hi.
func FloatRange(col string, lo, hi float64) Predicate {
	return Predicate{Col: col, LoF: lo, HiF: hi, HasLo: true, HasHi: true}
}

// FloatGE returns a float64 lower-bound predicate col >= lo.
func FloatGE(col string, lo float64) Predicate {
	return Predicate{Col: col, LoF: lo, HasLo: true}
}

// FloatLE returns a float64 upper-bound predicate col <= hi.
func FloatLE(col string, hi float64) Predicate {
	return Predicate{Col: col, HiF: hi, HasHi: true}
}

// StrEq returns an equality predicate col == v.
func StrEq(col, v string) Predicate { return Predicate{Col: col, In: []string{v}} }

// StrIn returns a membership predicate col IN (vs...).
func StrIn(col string, vs ...string) Predicate { return Predicate{Col: col, In: vs} }

// Count / Sum / Min / Max build Aggregates.
func Count() Aggregate         { return Aggregate{Op: "count"} }
func Sum(col string) Aggregate { return Aggregate{Op: "sum", Col: col} }
func Min(col string) Aggregate { return Aggregate{Op: "min", Col: col} }
func Max(col string) Aggregate { return Aggregate{Op: "max", Col: col} }

// Row is one append-row: schema column name → value. Every schema
// column must be present; ints, floats, and strings matching the
// column types. Integer columns reject fractional values.
type Row map[string]any
