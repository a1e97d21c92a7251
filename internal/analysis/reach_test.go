package analysis

import (
	"bufio"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// ledgerTags are the reasons a name may stay unreached by every program:
// façade API or a stdlib-protocol method, a test oracle another package's
// tests use, or a helper behind a property test of one of the paper's
// equivalences.
var ledgerTags = map[string]bool{"api": true, "oracle": true, "paper": true}

// unreached lists the module's package-level funcs and types that no non-test
// file references, and its methods whose name is neither selected in non-test
// code nor declared in a module interface. Every main under cmd/, examples/
// and benchmark/ is in the module, so "referenced" means reached from some
// program. Objects are keyed by import path plus name: Load type-checks each
// package against export data, so a use from another package resolves to a
// different types.Object than the definition.
func unreached(fset *token.FileSet, pkgs []*Package) map[string]token.Position {
	key := func(obj types.Object) string {
		return obj.Pkg().Path() + "." + obj.Name()
	}
	methodKey := func(fn *types.Func) string {
		t := fn.Type().(*types.Signature).Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		return key(t.(*types.Named).Obj()) + "." + fn.Name()
	}
	used := map[string]bool{}     // funcs and types referenced outside their own declarations
	selected := map[string]bool{} // method names selected or declared in an interface
	decls := map[string]token.Position{}
	methods := map[string]token.Position{}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				// owner is the key a use inside d does not count for: a
				// function calling itself, or a type named by its own methods.
				var owner string
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn := p.Info.Defs[d.Name].(*types.Func)
					switch {
					case d.Recv != nil:
						owner = strings.TrimSuffix(methodKey(fn), "."+fn.Name())
						methods[methodKey(fn)] = fset.Position(d.Name.Pos())
					case fn.Name() != "main" && fn.Name() != "init":
						owner = key(fn)
						decls[owner] = fset.Position(d.Name.Pos())
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						if ts, ok := s.(*ast.TypeSpec); ok {
							owner = key(p.Info.Defs[ts.Name])
							decls[owner] = fset.Position(ts.Name.Pos())
						}
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.Ident:
						if obj := p.Info.Uses[n]; obj != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() && key(obj) != owner {
							used[key(obj)] = true
						}
					case *ast.SelectorExpr:
						if s := p.Info.Selections[n]; s != nil && s.Kind() != types.FieldVal {
							selected[n.Sel.Name] = true
						}
					case *ast.InterfaceType:
						for _, m := range n.Methods.List {
							for _, name := range m.Names {
								selected[name.Name] = true
							}
						}
					}
					return true
				})
			}
		}
	}
	out := map[string]token.Position{}
	for k, pos := range decls {
		if !used[k] {
			out[k] = pos
		}
	}
	for k, pos := range methods {
		if !selected[k[strings.LastIndex(k, ".")+1:]] {
			out[k] = pos
		}
	}
	return out
}

// TestUnreachedLedger fails when production code is reached by no program
// and carries no tag in testdata/unreached.txt, and when a ledger line names
// something that is now reached or gone. A new helper either gets a caller,
// moves into the _test.go files of the one package whose tests use it, or is
// ledgered as api, oracle or paper.
func TestUnreachedLedger(t *testing.T) {
	// The ... pattern skips testdata directories, so the analyzers'
	// violation packages are not loaded.
	fset := token.NewFileSet()
	pkgs, err := Load(fset, []string{"repro/..."})
	if err != nil {
		t.Fatal(err)
	}
	got := unreached(fset, pkgs)
	root, err := ModuleRoot()
	if err != nil {
		t.Fatal(err)
	}

	const ledger = "testdata/unreached.txt"
	f, err := os.Open(ledger)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	listed := map[string]bool{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		tag, name, ok := strings.Cut(text, " ")
		switch {
		case !ok || !ledgerTags[tag]:
			t.Errorf("%s:%d: %q: want \"<api|oracle|paper> <import-path>.<[Type.]Name>\"", ledger, line, text)
		case listed[name]:
			t.Errorf("%s:%d: %s listed twice", ledger, line, name)
		case got[name].Filename == "":
			t.Errorf("%s:%d: %s is reached by a program or no longer exists; delete the line", ledger, line, name)
		}
		listed[name] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	var missing []string
	for _, name := range slices.Sorted(maps.Keys(got)) {
		if listed[name] {
			continue
		}
		pos := got[name]
		if rel, err := filepath.Rel(root, pos.Filename); err == nil {
			pos.Filename = rel
		}
		t.Errorf("%s: %s is reached by no program: call it, move it into its package's _test.go files, or ledger it", pos, name)
		missing = append(missing, "<api|oracle|paper> "+name)
	}
	if len(missing) > 0 {
		t.Logf("lines for %s, once each has its tag:\n%s", ledger, strings.Join(missing, "\n"))
	}
}
