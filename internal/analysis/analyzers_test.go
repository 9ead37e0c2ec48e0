package analysis

import "testing"

// Each analyzer is held to its seeded-violation testdata package: the
// `// want` assertions pin both that every planted violation is
// flagged on its exact line and that the sanctioned idioms alongside
// stay silent.

func TestMaporderTestdata(t *testing.T) {
	runTestdata(t, Maporder(), "maporder")
}

func TestFloatbitsTestdata(t *testing.T) {
	// The testdata package doubles as its own encode-boundary target,
	// so both halves of the analyzer fire.
	runTestdata(t, Floatbits("testdata/src/floatbits"), "floatbits")
}

func TestBlockingsendTestdata(t *testing.T) {
	runTestdata(t, Blockingsend("testdata/src/blockingsend"), "blockingsend")
}

func TestAtomicdisciplineTestdata(t *testing.T) {
	runTestdata(t, Atomicdiscipline(), "atomicdiscipline")
}

func TestStdlibonlyTestdata(t *testing.T) {
	// The leaf subpackage is designated too, so importing it is within
	// the rule; internal/zorder is not, and is the seeded violation.
	runTestdata(t, Stdlibonly("testdata/src/stdlibonly", "testdata/src/stdlibonly/leaf"), "stdlibonly")
}

func TestWirefreezeTestdata(t *testing.T) {
	runTestdata(t, Wirefreeze(WirefreezeConfig{
		PackagePath: "testdata/src/wirefreeze",
		ManifestRel: "wire.manifest",
		Types:       []string{"PinnedOK", "Drifted", "NotPinned"},
	}), "wirefreeze")
}

// TestWirefreezeRealManifest holds the actual wire package to its
// checked-in manifest: the unit-test edition of the CI contract that
// deleting a /v1 JSON tag or reordering a wire field fails the build.
func TestWirefreezeRealManifest(t *testing.T) {
	pkgs, err := Load("", "../wire")
	if err != nil {
		t.Fatalf("loading internal/wire: %v", err)
	}
	diags := Run(pkgs, []*Analyzer{Wirefreeze(ServeWirefreeze)})
	for _, d := range diags {
		t.Errorf("wirefreeze on internal/wire: %s", d)
	}
}
