// Command oreovet runs the repo's standing-invariant analyzers over
// the named packages and exits non-zero on any finding. It is the
// compile-time half of the invariant story: golden files and property
// tests catch violations at runtime on exercised paths; oreovet
// catches the same classes of violation on every path, before a test
// runs.
//
// Usage:
//
//	go run ./cmd/oreovet ./...            # analyze, exit 1 on findings
//	go run ./cmd/oreovet -list            # describe the suite
//	go run ./cmd/oreovet -update-wire-manifest
//
// Suppressions are written in the source as
//
//	//oreovet:ignore <analyzer> <reason>
//
// on the flagged line or the line directly above. The reason is
// mandatory and reviewed like code: a reason-less directive is itself
// a diagnostic and suppresses nothing.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"oreo/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	updateManifest := flag.Bool("update-wire-manifest", false,
		"regenerate the frozen /v1 wire manifest from the current source (review the diff!)")
	flag.Parse()

	if *list {
		for _, a := range analysis.Suite() {
			fmt.Printf("%-17s %s\n", a.Name, a.Doc)
		}
		return
	}

	if *updateManifest {
		if err := writeWireManifest(); err != nil {
			fmt.Fprintln(os.Stderr, "oreovet:", err)
			os.Exit(2)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load("", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "oreovet:", err)
		os.Exit(2)
	}
	diags := analysis.Run(pkgs, analysis.Suite())
	cwd, _ := os.Getwd()
	for _, d := range diags {
		pos := d.Pos
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
				pos.Filename = rel
			}
		}
		fmt.Printf("%s:%d:%d: %s: %s\n", pos.Filename, pos.Line, pos.Column, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "oreovet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// writeWireManifest regenerates the frozen wire manifest of
// internal/wire in place.
func writeWireManifest() error {
	cfg := analysis.ServeWirefreeze
	pkgs, err := analysis.Load("", "./internal/wire")
	if err != nil {
		return err
	}
	if len(pkgs) != 1 {
		return fmt.Errorf("expected 1 package for ./internal/wire, got %d", len(pkgs))
	}
	text, err := analysis.WireManifest(pkgs[0], cfg.Types)
	if err != nil {
		return err
	}
	path := filepath.Join(pkgs[0].Dir, cfg.ManifestRel)
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d frozen types)\n", path, len(cfg.Types))
	return nil
}
