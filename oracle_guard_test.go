package wrht

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// walkSources parses every non-test Go file of the module rooted at root,
// or every _test.go file when tests is set, skipping testdata, hidden
// directories and nested modules, and hands each to visit with its
// slash-separated directory relative to root.
func walkSources(t *testing.T, fset *token.FileSet, root string, tests bool, visit func(dir string, f *ast.File)) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // a nested module is not this module
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") != tests {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		visit(filepath.ToSlash(rel), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBoxedRunnersAreTestOnly: production prices only through the classed
// runners. runner.RunOptical and runner.RunElectrical are the boxed
// reference oracle; outside internal/runner no non-test file of the module
// may call them.
func TestBoxedRunnersAreTestOnly(t *testing.T) {
	fset := token.NewFileSet()
	walkSources(t, fset, ".", false, func(dir string, f *ast.File) {
		if dir == "internal/runner" {
			return
		}
		names := map[string]bool{}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "wrht/internal/runner" {
				name := "runner"
				if imp.Name != nil {
					name = imp.Name.Name
				}
				names[name] = true
			}
		}
		if len(names) == 0 {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && names[x.Name] &&
				(sel.Sel.Name == "RunOptical" || sel.Sel.Name == "RunElectrical") {
				t.Errorf("%s: production code uses the boxed reference runner %s.%s; price through the classed runner",
					fset.Position(sel.Pos()), x.Name, sel.Sel.Name)
			}
			return true
		})
	})
}

// exportsWithoutCallers lists, with the reason each stays, the exported
// functions and methods under internal/ that no non-test file names.
var exportsWithoutCallers = map[string]string{
	"runner.RunOptical":         "boxed reference oracle the classed runners are held to",
	"runner.RunElectrical":      "boxed reference oracle the classed runners are held to",
	"wdm.Assign":                "A2 First Fit vs Best Fit ablation (BenchmarkAblationFitPolicy) and the wdm/core tests",
	"analysis.loader.Import":    "implements go/types.Importer; called through the interface",
	"ring.MustNew":              "test-support constructor",
	"obs.Recorder.FloatCounter": "test-support accessor",
	"stats.JainIndex":           "reference the fabric's fairness tally is checked against",
	"tensor.Scale":              "test-support: buffer scaling for reduction property tests",
	"dnn.Model.TotalFLOPs":      "catalog data checked against published GMACs",
}

// namedIn calls add with every identifier f names, except that a function
// does not name itself, in its body or its declaration.
func namedIn(f *ast.File, add func(name string)) {
	for _, d := range f.Decls {
		self := ""
		if fn, ok := d.(*ast.FuncDecl); ok {
			self = fn.Name.Name
		}
		ast.Inspect(d, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name != self {
				add(id.Name)
			}
			return true
		})
	}
}

// TestInternalExportsHaveCallers: every exported top-level function or
// method declared under internal/ is named by some non-test file of the
// module or of perfbench/, or is listed in exportsWithoutCallers with the
// reason it stays. A listed export must not be named only by the tests of
// its own package: such a reference belongs in one of those _test.go
// files. Names are matched as identifiers, so a method counts as named
// wherever any same-named identifier appears, except inside a function or
// method of that same name: a wrapper that calls its namesake keeps
// neither alive.
func TestInternalExportsHaveCallers(t *testing.T) {
	type decl struct {
		key string // pkg.Func or pkg.Type.Method
		dir string
		pos token.Position
	}
	fset := token.NewFileSet()
	var decls []decl
	named := map[string]bool{}
	testDirs := map[string]map[string]bool{} // name -> directories of the test files naming it
	for _, root := range []string{".", "perfbench"} {
		walkSources(t, fset, root, true, func(dir string, f *ast.File) {
			dir = filepath.ToSlash(filepath.Join(root, dir))
			namedIn(f, func(name string) {
				if testDirs[name] == nil {
					testDirs[name] = map[string]bool{}
				}
				testDirs[name][dir] = true
			})
		})
		walkSources(t, fset, root, false, func(dir string, f *ast.File) {
			namedIn(f, func(name string) { named[name] = true })
			if root != "." || !strings.HasPrefix(dir, "internal/") {
				return
			}
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || !fn.Name.IsExported() {
					continue
				}
				key := f.Name.Name + "." + fn.Name.Name
				if fn.Recv != nil {
					typ := fn.Recv.List[0].Type
					if star, ok := typ.(*ast.StarExpr); ok {
						typ = star.X
					}
					switch ix := typ.(type) {
					case *ast.IndexExpr:
						typ = ix.X
					case *ast.IndexListExpr:
						typ = ix.X
					}
					key = f.Name.Name + "." + typ.(*ast.Ident).Name + "." + fn.Name.Name
				}
				decls = append(decls, decl{key, dir, fset.Position(fn.Name.Pos())})
			}
		})
	}
	declaredKeys := map[string]bool{}
	for _, d := range decls {
		declaredKeys[d.key] = true
		_, allowed := exportsWithoutCallers[d.key]
		name := d.key[strings.LastIndex(d.key, ".")+1:]
		ownTestsOnly := len(testDirs[name]) == 1 && testDirs[name][d.dir]
		switch {
		case named[name] && allowed:
			t.Errorf("%s is listed in exportsWithoutCallers but a non-test file names it; drop the entry", d.key)
		case !named[name] && ownTestsOnly:
			t.Errorf("%s: %s is named only by its own package's tests; move it into a _test.go file", d.pos, d.key)
		case !named[name] && !allowed:
			t.Errorf("%s: %s has no caller outside tests; delete it or list it in exportsWithoutCallers with a reason", d.pos, d.key)
		}
	}
	for key := range exportsWithoutCallers {
		if !declaredKeys[key] {
			t.Errorf("exportsWithoutCallers lists %s, which is not declared under internal/", key)
		}
	}
}
