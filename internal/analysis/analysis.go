package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// An Analyzer is one named invariant check. Run inspects a single
// package and reports findings through the Pass; it must not mutate
// the package.
type Analyzer struct {
	// Name is the analyzer's identifier — what diagnostics carry and
	// what //oreovet:ignore directives name.
	Name string
	// Doc is a one-line description, shown by `oreovet -list`.
	Doc string
	// Run inspects pkg and reports findings via pass.Reportf.
	Run func(pass *Pass)
}

// A Diagnostic is one finding: an invariant violation at a position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// A Pass carries one analyzer's run over one package.
type Pass struct {
	Pkg      *Package
	analyzer *Analyzer
	diags    *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// DriverName is the pseudo-analyzer name under which the driver
// reports problems with suppression directives themselves (missing
// reason, unknown analyzer).
const DriverName = "oreovet"

// ignoreDirective is one parsed //oreovet:ignore comment.
type ignoreDirective struct {
	pos      token.Position
	analyzer string
	reason   string
}

// IgnorePrefix is the suppression comment marker. The full form is
//
//	//oreovet:ignore <analyzer> <reason...>
//
// placed on the flagged line or on its own line directly above. The
// reason is mandatory: a suppression that cannot say why it exists is
// itself a diagnostic, so every exemption in the tree carries a
// written justification that survives review.
const IgnorePrefix = "//oreovet:ignore"

// Run applies every analyzer to every package, resolves suppression
// directives, and returns the surviving diagnostics sorted by
// position. Directives that are malformed (no reason) or name an
// analyzer that does not exist are reported under DriverName — and a
// reason-less directive does NOT suppress, so it cannot be used to
// sneak a violation past review.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	known := make(map[string]bool, len(analyzers))
	for _, a := range KnownAnalyzers() {
		known[a] = true
	}
	for _, a := range analyzers {
		known[a.Name] = true
	}

	var diags []Diagnostic
	for _, pkg := range pkgs {
		var raw []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{Pkg: pkg, analyzer: a, diags: &raw}
			a.Run(pass)
		}

		directives, bad := parseIgnores(pkg, known)
		diags = append(diags, bad...)
		for _, d := range raw {
			if !suppressed(d, directives) {
				diags = append(diags, d)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// parseIgnores extracts every //oreovet:ignore directive in the
// package. Well-formed directives are returned for suppression
// matching; malformed ones (missing reason, unknown analyzer) come
// back as driver diagnostics and suppress nothing.
func parseIgnores(pkg *Package, known map[string]bool) ([]ignoreDirective, []Diagnostic) {
	var dirs []ignoreDirective
	var bad []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		bad = append(bad, Diagnostic{
			Pos:      pkg.Fset.Position(pos),
			Analyzer: DriverName,
			Message:  fmt.Sprintf(format, args...),
		})
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, IgnorePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, IgnorePrefix)
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					report(c.Pos(), "oreovet:ignore names no analyzer (want %q)", IgnorePrefix+" <analyzer> <reason>")
					continue
				}
				name := fields[0]
				if !known[name] {
					report(c.Pos(), "oreovet:ignore names unknown analyzer %q", name)
					continue
				}
				reason := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), name))
				if reason == "" {
					report(c.Pos(), "oreovet:ignore %s has no reason — a suppression must justify itself", name)
					continue
				}
				dirs = append(dirs, ignoreDirective{
					pos:      pkg.Fset.Position(c.Pos()),
					analyzer: name,
					reason:   reason,
				})
			}
		}
	}
	return dirs, bad
}

// suppressed reports whether a directive covers the diagnostic: same
// analyzer, same file, and on the diagnostic's line (trailing
// comment) or the line directly above (standalone comment).
func suppressed(d Diagnostic, dirs []ignoreDirective) bool {
	for _, dir := range dirs {
		if dir.analyzer != d.Analyzer || dir.pos.Filename != d.Pos.Filename {
			continue
		}
		if dir.pos.Line == d.Pos.Line || dir.pos.Line == d.Pos.Line-1 {
			return true
		}
	}
	return false
}

// walkParents traverses root in source order calling fn with each
// node and the stack of its ancestors (outermost first). It is the
// parent-aware ast.Inspect the stdlib does not provide.
func walkParents(root ast.Node, fn func(n ast.Node, parents []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		fn(n, stack)
		stack = append(stack, n)
		return true
	})
}

// pathMatch reports whether the package's import path is, or ends
// with, one of the given paths — analyzers use it so the same check
// can target "oreo/internal/serve" in the real tree and a testdata
// package whose import path merely ends in "/serve"-like suffixes in
// tests.
func pathMatch(pkg *Package, paths []string) bool { return matchPath(pkg.ImportPath, paths) }

func matchPath(importPath string, paths []string) bool {
	for _, p := range paths {
		if importPath == p || strings.HasSuffix(importPath, "/"+p) {
			return true
		}
	}
	return false
}
