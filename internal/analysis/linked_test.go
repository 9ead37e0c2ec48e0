package analysis

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestLinkReachability is the gate that keeps production packages to
// what the repository's programs run. It builds every main package
// (cmd/*, examples/* and the bench module) with inlining off, so every
// reached function keeps its own symbol, and compares the text symbols
// the linker kept with every function declared in a non-test file. A
// function no binary links fails the test unless linked.allow names it
// with a kind and a reason; an allow-list line whose function is now
// linked, or is declared nowhere, fails it too, so the list only
// shrinks.
func TestLinkReachability(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	r := buildLinkReport(t, linkModule{dir: root, patterns: []string{"./..."}},
		linkModule{dir: filepath.Join(root, "bench"), patterns: []string{"./..."}})
	allow, err := readAllow("linked.allow")
	if err != nil {
		t.Fatal(err)
	}
	tests, err := testFuncNames(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range checkAllow(r, allow, tests) {
		t.Error(p)
	}
	n, lines := 0, 0
	for _, d := range r.unlinked() {
		n++
		lines += d.lines
	}
	t.Logf("unlinked: %d functions, %d lines; linked.allow: %d lines", n, lines, len(allow))
}

// TestLinkReachabilityMatching pins the gate's symbol matching on a
// fixture of two main packages and a library: a generic function whose
// instantiation prints with spaces, a value method reached only through
// an interface holding a pointer, methods on a generic type, and a
// main-package function linked into the other binary only. The
// fixture's one hand-made dead function is reported by name.
func TestLinkReachabilityMatching(t *testing.T) {
	r := buildLinkReport(t, linkModule{dir: ".", patterns: []string{"./testdata/src/linkfixture/..."}})
	const fix = "oreo/internal/analysis/testdata/src/linkfixture/"
	var got []string
	for _, d := range r.unlinked() {
		got = append(got, d.name)
	}
	want := []string{fix + "b.shared", fix + "lib.unused"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("unlinked = %q, want %q", got, want)
	}

	problems := checkAllow(r, nil, nil)
	if len(problems) != 2 || !strings.Contains(problems[1], fix+"lib.unused ") {
		t.Errorf("with an empty allow-list the gate reported %q, want b.shared and lib.unused by name", problems)
	}

	allow := []allowLine{
		{line: 1, name: fix + "lib.unused", kind: "oracle", test: "TestLinkReachabilityMatching"},
		{line: 2, name: fix + "b.shared", kind: "iface"},
		{line: 3, name: fix + "lib.Decode", kind: "iface"},
		{line: 4, name: fix + "lib.gone", kind: "iface"},
		{line: 5, name: fix + "lib.Named.Name", kind: "api", test: "TestNothing"},
	}
	tests := map[string]bool{"TestLinkReachabilityMatching": true}
	problems = checkAllow(r, allow, tests)
	wantProblems := []string{
		"linked.allow:3: " + fix + "lib.Decode is linked now; delete the line",
		"linked.allow:4: " + fix + "lib.gone is declared nowhere; delete the line",
		"linked.allow:5: " + fix + "lib.Named.Name is linked now; delete the line",
		"linked.allow:5: covering test TestNothing is declared in no _test.go file",
	}
	if strings.Join(problems, "\n") != strings.Join(wantProblems, "\n") {
		t.Errorf("stale allow-list lines reported as\n%s\nwant\n%s", strings.Join(problems, "\n"), strings.Join(wantProblems, "\n"))
	}
}

// linkModule is one module directory and the package patterns whose
// main packages are built and whose declarations are checked.
type linkModule struct {
	dir      string
	patterns []string
}

// declFunc is one function declared in a non-test file.
type declFunc struct {
	// name is the symbol with its package's import path, also for a
	// main package: what linked.allow names.
	name string
	// syms are the linker symbols that count as this function, with
	// type arguments dropped: the method itself and, for a value
	// receiver, its (*T) wrapper.
	syms []string
	// bin is the main package's import path, whose binary alone can
	// link the function; "" for a library function, which any binary
	// may link.
	bin   string
	pkg   string
	pos   token.Position
	lines int
}

type linkReport struct {
	decls  []declFunc
	pkgs   map[string]bool            // every listed import path
	shared map[string]bool            // library symbols any binary links
	mains  map[string]map[string]bool // main package → its main. symbols
}

func (r *linkReport) linked(d declFunc) bool {
	set := r.shared
	if d.bin != "" {
		set = r.mains[d.bin]
	}
	for _, s := range d.syms {
		if set[s] {
			return true
		}
	}
	return false
}

func (r *linkReport) unlinked() []declFunc {
	var out []declFunc
	for _, d := range r.decls {
		if !r.linked(d) {
			out = append(out, d)
		}
	}
	return out
}

// buildLinkReport lists each module's packages, builds their main
// packages into a temporary directory with inlining off for the
// repository's own packages (the standard library builds as usual, so
// the build cache tier-1 fills is reused), reads each binary's text
// symbols with go tool nm, and parses every non-test declaration.
func buildLinkReport(t *testing.T, mods ...linkModule) *linkReport {
	t.Helper()
	r := &linkReport{pkgs: map[string]bool{}, shared: map[string]bool{}, mains: map[string]map[string]bool{}}
	out := t.TempDir()
	for mi, m := range mods {
		listed, err := goList(m.dir, nil, m.patterns)
		if err != nil {
			t.Fatal(err)
		}
		bins := filepath.Join(out, fmt.Sprint(mi))
		var mains []string
		for _, lp := range listed {
			r.pkgs[lp.ImportPath] = true
			if lp.Name == "main" {
				mains = append(mains, lp.ImportPath)
			}
			if err := parseDecls(r, lp); err != nil {
				t.Fatal(err)
			}
		}
		if len(mains) == 0 {
			continue
		}
		root := strings.SplitN(listed[0].Module.Path, "/", 2)[0]
		build := exec.Command("go", append([]string{"build", "-gcflags=" + root + "/...=-l", "-ldflags=-w", "-o", bins + string(filepath.Separator)}, mains...)...)
		build.Dir = m.dir
		if b, err := build.CombinedOutput(); err != nil {
			t.Fatalf("go build %v: %v\n%s", mains, err, b)
		}
		for _, mp := range mains {
			syms, err := textSymbols(filepath.Join(bins, path.Base(mp)), root)
			if err != nil {
				t.Fatal(err)
			}
			main := map[string]bool{}
			for _, s := range syms {
				if rest, ok := strings.CutPrefix(s, "main."); ok {
					main[rest] = true
				} else {
					r.shared[s] = true
				}
			}
			r.mains[mp] = main
		}
	}
	return r
}

// nmText matches a defined text symbol in go tool nm output. The name
// is the rest of the line: an instantiation over a struct type prints
// with spaces inside its brackets.
var nmText = regexp.MustCompile(`^\s*[0-9a-f]+ [Tt] (.+)$`)

// textSymbols returns the binary's text symbols in the module tree
// rooted at root, plus its main. symbols, with type arguments dropped.
func textSymbols(bin, root string) ([]string, error) {
	b, err := exec.Command("go", "tool", "nm", bin).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool nm %s: %v", bin, err)
	}
	var syms []string
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		m := nmText.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		s := dropTypeArgs(m[1])
		if strings.HasPrefix(s, "main.") || strings.HasPrefix(s, root+".") || strings.HasPrefix(s, root+"/") {
			syms = append(syms, s)
		}
	}
	return syms, sc.Err()
}

// dropTypeArgs removes every bracketed type-argument list:
// "p.(*Set[go.shape.int]).Add" becomes "p.(*Set).Add".
func dropTypeArgs(s string) string {
	if !strings.Contains(s, "[") {
		return s
	}
	var b strings.Builder
	depth := 0
	for _, c := range s {
		switch {
		case c == '[':
			depth++
		case c == ']':
			depth--
		case depth == 0:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// parseDecls adds every function declared in the package's non-test
// files, other than init and blank functions, to r.
func parseDecls(r *linkReport, lp *listedPackage) error {
	fset := token.NewFileSet()
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
				continue
			}
			syms := []string{fd.Name.Name}
			if fd.Recv != nil {
				recv, ptr := fd.Recv.List[0].Type, false
				if star, ok := recv.(*ast.StarExpr); ok {
					recv, ptr = star.X, true
				}
				switch x := recv.(type) {
				case *ast.IndexExpr:
					recv = x.X
				case *ast.IndexListExpr:
					recv = x.X
				}
				typ := recv.(*ast.Ident).Name
				syms = []string{"(*" + typ + ")." + fd.Name.Name}
				if !ptr {
					syms = []string{typ + "." + fd.Name.Name, syms[0]}
				}
			}
			d := declFunc{name: lp.ImportPath + "." + syms[0], pkg: lp.ImportPath, pos: fset.Position(fd.Pos())}
			d.lines = fset.Position(fd.End()).Line - d.pos.Line + 1
			if lp.Name == "main" {
				d.bin = lp.ImportPath
				d.syms = syms
			} else {
				for _, s := range syms {
					d.syms = append(d.syms, lp.ImportPath+"."+s)
				}
			}
			r.decls = append(r.decls, d)
		}
	}
	return nil
}

// allowLine is one line of linked.allow: a function (or, for kind
// testonly, a package) the gate lets stay unlinked.
type allowLine struct {
	line             int
	name, kind, test string
}

// allowKinds says which kinds exist and whether each must name the
// test, Example or fuzz target that covers the function.
var allowKinds = map[string]bool{
	"api":        true,  // an export of the root package or client, or what one calls
	"oracle":     true,  // the reference a named test compares against
	"instrument": false, // a measurement waiting for the code that will wire it
	"iface":      false, // a method an interface requires
	"scheduled":  false, // dead with its tests, deleted by a later change
	"testonly":   false, // a package only tests import
}

// readAllow parses linked.allow: "name kind [covering-test] reason",
// with blank lines and #-comments ignored.
func readAllow(file string) ([]allowLine, error) {
	b, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	var out []allowLine
	for i, text := range strings.Split(string(b), "\n") {
		f := strings.Fields(text)
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		needTest, ok := false, len(f) >= 3
		if ok {
			needTest, ok = allowKinds[f[1]]
		}
		if !ok || (needTest && len(f) < 4) {
			return nil, fmt.Errorf("%s:%d: want \"name kind [covering-test] reason\" with a known kind, got %q", file, i+1, text)
		}
		a := allowLine{line: i + 1, name: f[0], kind: f[1]}
		if needTest {
			a.test = f[2]
		}
		out = append(out, a)
	}
	return out, nil
}

// testFuncNames returns every top-level function declared in a
// _test.go file under root.
func testFuncNames(root string) (map[string]bool, error) {
	decl := regexp.MustCompile(`(?m)^func ([A-Za-z0-9_]+)\(`)
	names := map[string]bool{}
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, "_test.go") {
			return err
		}
		b, err := os.ReadFile(p)
		for _, m := range decl.FindAllSubmatch(b, -1) {
			names[string(m[1])] = true
		}
		return err
	})
	return names, err
}

// checkAllow returns the gate's findings: each unlinked function the
// allow-list does not name, then each allow-list line that no longer
// holds.
func checkAllow(r *linkReport, allow []allowLine, tests map[string]bool) []string {
	byName := map[string]bool{}
	for _, a := range allow {
		byName[a.name] = true
	}
	var problems []string
	for _, d := range r.unlinked() {
		if !byName[d.name] && !byName[d.pkg] {
			problems = append(problems, fmt.Sprintf("%s (%s:%d, %d lines) is linked into no binary: delete it, or name it in linked.allow with a kind and a reason",
				d.name, d.pos.Filename, d.pos.Line, d.lines))
		}
	}
	decls := map[string]declFunc{}
	pkgLinked := map[string]bool{}
	for _, d := range r.decls {
		decls[d.name] = d
		pkgLinked[d.pkg] = pkgLinked[d.pkg] || r.linked(d)
	}
	for _, a := range allow {
		d, declared := decls[a.name]
		switch {
		case a.kind == "testonly" && !r.pkgs[a.name]:
			problems = append(problems, fmt.Sprintf("linked.allow:%d: package %s is listed nowhere; delete the line", a.line, a.name))
		case a.kind == "testonly" && pkgLinked[a.name]:
			problems = append(problems, fmt.Sprintf("linked.allow:%d: package %s is linked now; delete the line", a.line, a.name))
		case a.kind == "testonly":
		case !declared:
			problems = append(problems, fmt.Sprintf("linked.allow:%d: %s is declared nowhere; delete the line", a.line, a.name))
		case r.linked(d):
			problems = append(problems, fmt.Sprintf("linked.allow:%d: %s is linked now; delete the line", a.line, a.name))
		}
		if a.test != "" && !tests[a.test] {
			problems = append(problems, fmt.Sprintf("linked.allow:%d: covering test %s is declared in no _test.go file", a.line, a.test))
		}
	}
	return problems
}
