package b2b_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestClockDiscipline keeps every time read and every timer of the library
// on clock.Clock: outside internal/clock, no non-test file of the root
// package or of internal/... may call or reference the time package's
// clock functions. Components take the clock they run on (a deployment's
// Wall, a test's Sim) instead, so a simulated clock drives every timeout,
// grace period, retry round and contention window there is. Program mains
// (cmd/, examples/) and the bench module choose a clock; they are not
// scanned, and neither are the analyzers' testdata fixtures.
//
// The scan is syntactic, so it stays cheap under the race detector: per
// file it finds the name the time package is imported under and flags
// every selector of a banned function on that name. A dot-import of time
// would hide the calls, so it is flagged itself.
func TestClockDiscipline(t *testing.T) {
	banned := map[string]bool{"Now": true, "Since": true, "Until": true, "After": true,
		"AfterFunc": true, "NewTimer": true, "NewTicker": true, "Tick": true, "Sleep": true}
	fset := token.NewFileSet()
	timed := 0 // scanned files that import time
	scan := func(path string) {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		name := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "time" {
				name = "time"
				if imp.Name != nil {
					name = imp.Name.Name
				}
			}
		}
		if name == "." {
			t.Errorf("%s: dot-imports time; read and wait on time through a clock.Clock", path)
		}
		if name == "" || name == "_" || name == "." {
			return
		}
		timed++
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || !banned[sel.Sel.Name] {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == name {
				t.Errorf("%s: time.%s outside internal/clock; read and wait on time through a clock.Clock",
					fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
	}
	library := func(path string) bool {
		return strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go")
	}
	roots, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range roots {
		if library(path) {
			scan(path)
		}
	}
	err = filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == filepath.Join("internal", "clock") || d.Name() == "testdata" ||
				strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_") {
				return filepath.SkipDir
			}
			return nil
		}
		if library(path) {
			scan(path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if timed == 0 {
		t.Fatal("no library file imports time (scan broken?)")
	}
}
