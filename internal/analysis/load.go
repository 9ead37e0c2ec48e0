// Package analysis is the repo's stdlib-only static-analysis layer:
// a package loader, an analyzer driver, and a suite of analyzers that
// turn the ROADMAP's standing invariants — /v1 frozen byte-for-byte,
// bitwise determinism, drop-never-block queues, atomic publication
// discipline, stdlib-only leaf packages — into compile-time
// diagnostics instead of runtime test failures.
//
// The design deliberately uses only go/ast, go/parser, go/token,
// go/types and go/importer (no golang.org/x/tools): the module has no
// dependencies and its analysis layer must not be the first. The one
// piece the standard library does not provide — package discovery and
// export data for type-checking imports — comes from the go tool
// itself via `go list -deps -export -json`, which both resolves the
// build list and materializes compiled export data in the build cache
// for every dependency, stdlib included. (Since Go 1.20 the
// distribution ships no pre-compiled stdlib, so importer.Default is a
// trap; the lookup-based gc importer over `go list -export` output is
// the supported stdlib-only path.)
package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// Package is one loaded, parsed, type-checked package: everything an
// analyzer needs to reason about it.
type Package struct {
	// ImportPath is the package's full import path (e.g.
	// "oreo/internal/serve").
	ImportPath string
	// Dir is the directory holding the package's source files.
	Dir string
	// ModulePath is the path of the module the package belongs to
	// ("oreo" for everything in this repo).
	ModulePath string
	// Fset is the file set all position info resolves through. It is
	// shared by every package of one Load call.
	Fset *token.FileSet
	// Files are the parsed non-test Go files, with comments.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the type-checker's expression/object tables.
	Info *types.Info
}

// listedPackage is the subset of `go list -json` output the loader
// consumes.
type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// Load resolves patterns the way the go tool does (so "./..." works,
// and explicit testdata directories — which wildcards skip — can be
// named directly), then parses and type-checks every matched package.
// dir is the working directory for pattern resolution; "" means the
// current directory.
//
// All packages share one token.FileSet, so diagnostic positions from
// different packages are mutually consistent.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(dir, []string{"-deps", "-export"}, patterns)
	if err != nil {
		return nil, err
	}

	// Export data for every dependency, keyed by import path: the
	// lookup the gc importer resolves imports through.
	exports := make(map[string]string, len(listed))
	var targets []*listedPackage
	for _, lp := range listed {
		if lp.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
		if !lp.DepOnly {
			targets = append(targets, lp)
		}
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		exp, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(exp)
	})

	var pkgs []*Package
	for _, lp := range targets {
		p, err := typeCheck(fset, imp, lp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// goList shells out to the go tool once for the whole pattern list.
// Load passes -deps, which pulls in the transitive closure, and
// -export, which compiles export data into the build cache and reports
// where it landed.
func goList(dir string, flags, patterns []string) ([]*listedPackage, error) {
	args := append(append([]string{"list", "-json"}, flags...), patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, errb.String())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(&out)
	for {
		lp := new(listedPackage)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, lp)
	}
	return pkgs, nil
}

// typeCheck parses one listed package's non-test files and runs the
// type checker over them with imports resolved from export data.
func typeCheck(fset *token.FileSet, imp types.Importer, lp *listedPackage) (*Package, error) {
	files := make([]*ast.File, 0, len(lp.GoFiles))
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %v", name, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", lp.ImportPath, err)
	}
	modPath := ""
	if lp.Module != nil {
		modPath = lp.Module.Path
	}
	return &Package{
		ImportPath: lp.ImportPath,
		Dir:        lp.Dir,
		ModulePath: modPath,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
}
