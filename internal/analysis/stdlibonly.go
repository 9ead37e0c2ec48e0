package analysis

import (
	"strconv"
	"strings"
)

// Stdlibonly enforces the dependency contract of the designated leaf
// packages (the client SDK, internal/metrics and internal/wire in the
// real tree): each is transitively standard library only. A downstream
// service embedding the SDK, or an operator scraping the metrics
// encoder, must never pull OREO internals — or anything else — into
// its build.
//
// Checked import by import: a path containing a dot is a domain — not
// stdlib, standard-library paths never contain one — and a path inside
// this module is an internal dependency; both are violations, except
// that a designated package may import another designated package,
// which is held to the same rule and so adds nothing but standard
// library to the closure. (That is how the SDK shares its JSON scanner
// with the server without the promise weakening.)
func Stdlibonly(pkgs ...string) *Analyzer {
	a := &Analyzer{
		Name: "stdlibonly",
		Doc:  "designated leaf packages (client SDK, metrics, wire) are transitively standard library only",
	}
	a.Run = func(pass *Pass) {
		if !pathMatch(pass.Pkg, pkgs) {
			return
		}
		mod := pass.Pkg.ModulePath
		if mod == "" {
			mod = "oreo"
		}
		for _, f := range pass.Pkg.Files {
			for _, imp := range f.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				switch {
				case matchPath(path, pkgs):
				case path == mod || strings.HasPrefix(path, mod+"/"):
					pass.Reportf(imp.Pos(), "package %s is stdlib-only: import %q reaches back into the module", pass.Pkg.Types.Name(), path)
				case strings.Contains(path, "."):
					pass.Reportf(imp.Pos(), "package %s is stdlib-only: import %q is not standard library", pass.Pkg.Types.Name(), path)
				}
			}
		}
	}
	return a
}
