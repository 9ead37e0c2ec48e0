package analysis

// V1WireTypes is the frozen /v1 wire surface, declared in internal/wire
// and served by internal/serve: every type whose JSON shape the replay
// contract pins byte-for-byte.
// HealthResponse is deliberately absent — /healthz is the documented
// additive-extensible operational exception — and the /v2 live-write
// bodies (AppendRequest/AppendResponse/CompactResponse) are versioned
// apart from the frozen contract.
var V1WireTypes = []string{
	"PredicateJSON",
	"QueryRequest",
	"AggregateJSON",
	"AggregateResultJSON",
	"ExecutionJSON",
	"BatchRequest",
	"TableResult",
	"QueryResponse",
	"BatchItem",
	"BatchResponse",
	"LayoutResponse",
	"StatsResponse",
	"TraceEventJSON",
	"TraceResponse",
	"ErrorResponse",
}

// ServeWirefreeze is the production wirefreeze configuration: the wire
// types serve answers with, pinned by the manifest next to their
// declarations in internal/wire (internal/serve's goldens freeze the
// same contract at runtime — the manifest its compile-time shape, the
// goldens its bytes).
var ServeWirefreeze = WirefreezeConfig{
	PackagePath: "oreo/internal/wire",
	ManifestRel: "testdata/wire.manifest",
	Types:       V1WireTypes,
}

// Suite returns the full analyzer suite with the repo's production
// targets. Each analyzer encodes one ROADMAP standing invariant:
//
//   - wirefreeze: /v1 frozen byte-for-byte
//   - maporder, floatbits: leader/follower and pruned/unpruned
//     bit-identity (no nondeterministic iteration on ordered
//     outputs, no NaN-hazardous equality, no decimal float text at
//     encode boundaries)
//   - blockingsend: bounded queues drop or 503, never backpressure
//   - atomicdiscipline: lock-free published state is only touched
//     atomically
//   - stdlibonly: the client SDK, the metrics encoder and the JSON
//     scanner the SDK shares with the server are transitively
//     standard library only
func Suite() []*Analyzer {
	return []*Analyzer{
		Wirefreeze(ServeWirefreeze),
		Maporder(),
		Floatbits("oreo/internal/persist", "oreo/internal/replica"),
		Blockingsend("oreo/internal/serve", "oreo/internal/replica"),
		Atomicdiscipline(),
		Stdlibonly("oreo/client", "oreo/internal/metrics", "oreo/internal/wire"),
	}
}

// KnownAnalyzers lists every analyzer name the driver accepts in
// //oreovet:ignore directives, plus the driver's own name. A
// directive naming anything else is reported as a typo instead of
// silently suppressing nothing.
func KnownAnalyzers() []string {
	return []string{
		"wirefreeze", "maporder", "floatbits",
		"blockingsend", "atomicdiscipline", "stdlibonly",
		DriverName,
	}
}
