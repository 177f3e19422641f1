package autostats

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// panicAllowlist maps files permitted to call panic to the number of calls
// they may contain. internal/datagen/schema.go panics only while building
// the static TPC-D schema from literals — a programming error, not a data
// error — and predates the no-panic policy.
var panicAllowlist = map[string]int{
	filepath.Join("internal", "datagen", "schema.go"): 3,
}

// TestNoPanicsInLibraryCode enforces the repo policy that library code under
// internal/ returns errors instead of panicking: a panic in the optimizer or
// statistics manager takes down the host process, while an error surfaces as
// a failed query. Test files are exempt, as are the allowlisted legacy calls.
func TestNoPanicsInLibraryCode(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, path, src, 0)
		if err != nil {
			return err
		}
		count := 0
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				count++
				if count > panicAllowlist[path] {
					t.Errorf("%s: panic call at %s — library code must return an error", path, fset.Position(call.Pos()))
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// pairAllowlist names the exported X / XCtx pairs that may remain, as
// package directory, receiver type and X. The benchmark under perfbench/
// calls the context-less spelling of each, so they fold when it changes.
var pairAllowlist = map[string]bool{
	"autostats.System.Exec":         true,
	"internal/stats.Manager.Ensure": true,
	"internal/datagen.Generate":     true,
}

// TestOneSpellingPerOperation enforces one exported spelling per operation:
// no package outside perfbench/ may export a function or method XCtx beside
// an exported X in the same package, or on the same receiver type, beyond
// the allowlisted pairs, and every allowlisted pair must still exist.
func TestOneSpellingPerOperation(t *testing.T) {
	fset := token.NewFileSet()
	funcs := map[string]bool{} // "dir.Recv.Name" or "dir.Name"
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || path == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(filepath.Dir(path))
		if pkg == "." {
			pkg = "autostats"
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			key := pkg + "."
			if fn.Recv != nil {
				typ := fn.Recv.List[0].Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				if id, ok := typ.(*ast.Ident); ok {
					key += id.Name + "."
				}
			}
			funcs[key+fn.Name.Name] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for name := range funcs {
		base, ok := strings.CutSuffix(name, "Ctx")
		if !ok || !funcs[base] {
			continue
		}
		found[base] = true
		if !pairAllowlist[base] {
			t.Errorf("%s and %sCtx both exported: keep the one that takes a context first", base, base)
		}
	}
	for base := range pairAllowlist {
		if !found[base] {
			t.Errorf("allowlisted pair %s / %sCtx is gone: delete its allowlist entry", base, base)
		}
	}
}
