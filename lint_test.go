package autostats

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
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
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
	walkLibraryFiles(t, fset, func(path string, f *ast.File) {
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
	})
}

// foldAllowlist maps the files permitted to fold identifier case to the
// exact number of strings.ToLower / ToUpper / EqualFold calls each makes.
// Names are folded where they enter the program: the catalog's table
// definitions and exported lookups, the SQL parser's tokens, the statistic
// ID, and the storage lookup. query/aggregate.go renders an aggregate's
// output-column key, and oracle/naiveexec.go is the reference evaluator,
// which must not share the code it checks.
var foldAllowlist = map[string]int{
	filepath.Join("internal", "catalog", "schema.go"):   6,
	filepath.Join("internal", "sqlparser", "parser.go"): 1,
	filepath.Join("internal", "stats", "stats.go"):      1,
	filepath.Join("internal", "storage", "database.go"): 1,
	filepath.Join("internal", "query", "aggregate.go"):  1,
	filepath.Join("internal", "oracle", "naiveexec.go"): 8,
}

// TestIdentifierCaseFoldedAtBoundary enforces that names are canonical
// (lower case) below the boundary: identifiers are case-insensitive, and only
// the allowlisted files decide it. Everything under them compares names with
// ==. A file's count must match its allowlist entry exactly, so an entry
// goes stale the moment a fold is removed.
func TestIdentifierCaseFoldedAtBoundary(t *testing.T) {
	fset := token.NewFileSet()
	counts := map[string]int{}
	walkLibraryFiles(t, fset, func(path string, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "strings" {
				switch sel.Sel.Name {
				case "ToLower", "ToUpper", "EqualFold":
					counts[path]++
					if _, ok := foldAllowlist[path]; !ok {
						t.Errorf("%s: strings.%s at %s — names below the catalog and the parser are canonical; compare with ==", path, sel.Sel.Name, fset.Position(call.Pos()))
					}
				}
			}
			return true
		})
	})
	for path, want := range foldAllowlist {
		if got := counts[path]; got != want {
			t.Errorf("%s: %d case-folding calls, allowlist says %d — update the entry", path, got, want)
		}
	}
}

// walkLibraryFiles parses every non-test Go file under internal/ and hands
// it to fn with its path.
func walkLibraryFiles(t *testing.T, fset *token.FileSet, fn func(path string, f *ast.File)) {
	t.Helper()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		fn(path, f)
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

// readerAllowlist maps the exported names under internal/ that only another
// package's tests read to the test function that reads them, and its file.
// Entries may only be removed: a new name a test needs belongs in the test's
// own package, or the test switches to an API that has a reader.
var readerAllowlist = map[string]testReader{
	// The no-poisoned-plan oracles inspect every cached entry.
	"internal/optimizer.PlanCache.Keys": {"internal/oracle/faultinject_test.go", "assertNoPoisonedEntries"},
	// The fault-injection oracle's stale-epoch provider reaches the
	// optimizer through it.
	"internal/optimizer.Session.SetStatsProvider": {"internal/oracle/faultinject_test.go", "TestStaleEpochProviderCannotPoisonSharedCache"},
	"internal/stats.Manager.Refresh":              {"internal/oracle/faultinject_test.go", "TestRefreshFailpointLeavesManagerClean"},
	// The snapshot-leak tests prove a cancelled build releases its guard.
	"internal/storage.TableData.OpenSnapshots": {"internal/stats/streaming_test.go", "TestStreamingCancelMidStream"},
}

// testReader names a function in a test file that reads an allowlisted name.
type testReader struct{ file, fn string }

// listedPackage is the part of `go list -json` output TestExportedHaveReaders
// reads. Module is nil for standard-library packages.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Module     *struct{ Path string }
}

// readerInterfaces names the standard-library interfaces a method may
// implement to need no reader of its own, besides every package-level
// interface of the module. "io.*" stands for every interface in package io.
var readerInterfaces = []string{"error", "fmt.Stringer", "encoding/json.Marshaler", "io.*", "sort.Interface", "net/http.Handler"}

// TestExportedHaveReaders enforces that exported means read outside its
// package: every exported top-level const, var, type and func, and every
// exported method of an exported type, in a non-test file under internal/
// needs a reader in a non-test file of another package of the module (the
// facade, client, cmd/*, examples/* and perfbench count). A name also passes
// if it is a type reachable from the signature or exported fields of a
// passing name, a constant of a passing named type, or a method that
// implements an interface of the module or one of readerInterfaces. Anything
// else is unexported or deleted, or allowlisted with the test that reads it.
// With -v it logs each package's count of exported names.
func TestExportedHaveReaders(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "-export", "-json", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}

	// Type-check the module's packages from source, in the dependency order
	// go list prints, and import the standard library from export data.
	fset := token.NewFileSet()
	exports := map[string]string{}
	for _, p := range pkgs {
		exports[p.ImportPath] = p.Export
	}
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})}
	var module []*types.Package
	var modulePath string
	read := map[types.Object]bool{}
	for _, p := range pkgs {
		if p.Module == nil {
			continue
		}
		modulePath = p.Module.Path
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatal(err)
		}
		checked[p.ImportPath] = pkg
		module = append(module, pkg)
		for _, obj := range info.Uses {
			if obj.Pkg() != nil && obj.Pkg() != pkg {
				read[origin(obj)] = true
			}
		}
	}

	// The names under review, keyed as in readerAllowlist, and the
	// interfaces that exempt a method.
	names := map[types.Object]string{}
	var ifaces []*types.Interface
	for _, pkg := range module {
		scope := pkg.Scope()
		rel := strings.TrimPrefix(pkg.Path(), modulePath+"/")
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			named, isNamed := obj.Type().(*types.Named)
			_, isType := obj.(*types.TypeName)
			if it, ok := obj.Type().Underlying().(*types.Interface); ok && isType && isNamed && named.TypeParams() == nil {
				ifaces = append(ifaces, it)
			}
			if !strings.HasPrefix(rel, "internal/") || !obj.Exported() {
				continue
			}
			names[obj] = rel + "." + name
			if isType && isNamed && named.Obj() == obj {
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); m.Exported() {
						names[m] = rel + "." + name + "." + m.Name()
					}
				}
			}
		}
	}
	for _, qual := range readerInterfaces {
		scope, want := types.Universe, qual
		if i := strings.LastIndexByte(qual, '.'); i >= 0 {
			pkg, err := std.Import(qual[:i])
			if err != nil {
				t.Fatal(err)
			}
			scope, want = pkg.Scope(), qual[i+1:]
		}
		for _, name := range scope.Names() {
			if name != want && (want != "*" || !token.IsExported(name)) {
				continue
			}
			if it, ok := scope.Lookup(name).Type().Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, it)
			}
		}
	}

	// passing returns the names that pass when the names in allow count as
	// read: the read, exempt and allowed names, and everything reachable
	// from them.
	passing := func(allow map[string]testReader) map[types.Object]bool {
		pass := map[types.Object]bool{}
		var queue []types.Object
		mark := func(obj types.Object) {
			if _, ok := names[obj]; ok && !pass[obj] {
				pass[obj] = true
				queue = append(queue, obj)
			}
		}
		for obj, name := range names {
			if _, allowed := allow[name]; allowed || read[obj] || implementsInterface(obj, ifaces) {
				mark(obj)
			}
		}
		seen := map[types.Type]bool{}
		var walk func(types.Type)
		walk = func(typ types.Type) {
			if seen[typ] {
				return
			}
			seen[typ] = true
			switch typ := typ.(type) {
			case *types.Alias:
				walk(types.Unalias(typ))
			case *types.Named:
				mark(typ.Obj())
				if pkg := typ.Obj().Pkg(); pkg != nil && checked[pkg.Path()] == pkg {
					walk(typ.Underlying())
				}
				for i := 0; i < typ.TypeArgs().Len(); i++ {
					walk(typ.TypeArgs().At(i))
				}
			case *types.Pointer:
				walk(typ.Elem())
			case *types.Slice:
				walk(typ.Elem())
			case *types.Array:
				walk(typ.Elem())
			case *types.Chan:
				walk(typ.Elem())
			case *types.Map:
				walk(typ.Key())
				walk(typ.Elem())
			case *types.Signature:
				walk(typ.Params())
				walk(typ.Results())
			case *types.Tuple:
				for i := 0; i < typ.Len(); i++ {
					walk(typ.At(i).Type())
				}
			case *types.Struct:
				for i := 0; i < typ.NumFields(); i++ {
					if f := typ.Field(i); f.Exported() {
						walk(f.Type())
					}
				}
			case *types.Interface:
				for i := 0; i < typ.NumEmbeddeds(); i++ {
					walk(typ.EmbeddedType(i))
				}
				for i := 0; i < typ.NumExplicitMethods(); i++ {
					walk(typ.ExplicitMethod(i).Type())
				}
			}
		}
		for len(queue) > 0 {
			obj := queue[0]
			queue = queue[1:]
			walk(obj.Type())
			if tn, ok := obj.(*types.TypeName); ok {
				scope := tn.Pkg().Scope()
				for _, name := range scope.Names() {
					if c, ok := scope.Lookup(name).(*types.Const); ok && types.Identical(c.Type(), tn.Type()) {
						mark(c)
					}
				}
			}
		}
		return pass
	}

	bare, allowed := passing(nil), passing(readerAllowlist)
	exists := map[string]bool{}
	var failures []string
	for obj, name := range names {
		exists[name] = true
		_, listed := readerAllowlist[name]
		switch {
		case listed && bare[obj]:
			failures = append(failures, fmt.Sprintf("%s is read outside its package: delete its readerAllowlist entry", name))
		case !allowed[obj]:
			failures = append(failures, fmt.Sprintf("%s (%s) has no reader outside its package: unexport or delete it", name, fset.Position(obj.Pos())))
		}
	}
	for name, r := range readerAllowlist {
		if !exists[name] {
			failures = append(failures, fmt.Sprintf("allowlisted %s no longer exists: delete its readerAllowlist entry", name))
		} else if !testReads(t, r, name[strings.LastIndexByte(name, '.')+1:]) {
			failures = append(failures, fmt.Sprintf("allowlisted %s: %s in %s does not read it", name, r.fn, r.file))
		}
	}
	sort.Strings(failures)
	for _, f := range failures {
		t.Error(f)
	}

	perPkg := map[string]int{}
	for _, name := range names {
		perPkg[name[:strings.IndexByte(name, '.')]]++
	}
	var pkgNames []string
	for p := range perPkg {
		pkgNames = append(pkgNames, p)
	}
	sort.Strings(pkgNames)
	for _, p := range pkgNames {
		t.Logf("%-20s %3d exported", p, perPkg[p])
	}
	t.Logf("%-20s %3d exported, %d allowlisted", "internal/ total", len(names), len(readerAllowlist))
}

// testReads reports whether function r.fn in r.file selects sel.
func testReads(t *testing.T, r testReader, sel string) bool {
	f, err := parser.ParseFile(token.NewFileSet(), r.file, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, decl := range f.Decls {
		if fn, ok := decl.(*ast.FuncDecl); ok && fn.Name.Name == r.fn && fn.Body != nil {
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if s, ok := n.(*ast.SelectorExpr); ok && s.Sel.Name == sel {
					found = true
				}
				return !found
			})
		}
	}
	return found
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// origin maps an object of an instantiated generic type or function to its
// generic declaration.
func origin(obj types.Object) types.Object {
	switch obj := obj.(type) {
	case *types.Func:
		return obj.Origin()
	case *types.Var:
		return obj.Origin()
	}
	return obj
}

// implementsInterface reports whether obj is a method of one of ifaces that
// its receiver type, or a pointer to it, implements.
func implementsInterface(obj types.Object, ifaces []*types.Interface) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	typ := recv.Type()
	if ptr, ok := typ.(*types.Pointer); ok {
		typ = ptr.Elem()
	}
	for _, it := range ifaces {
		if m, _, _ := types.LookupFieldOrMethod(it, false, fn.Pkg(), fn.Name()); m == nil {
			continue
		}
		if types.Implements(typ, it) || types.Implements(types.NewPointer(typ), it) {
			return true
		}
	}
	return false
}
