// Package analysis is the repo-specific static-analysis suite behind
// cmd/repolint. It enforces, at compile time, the invariants the test suite
// proves after the fact: fixed floating-point reduction order and no hidden
// nondeterminism sources in the numeric and engine packages (determinism),
// strict tensor.Arena Get/Put buffer ownership (arenaowner), ctx/stop-aware
// channel operations in the engine goroutines (ctxselect), and a closed
// budget of goroutine-spawning sites (goroutinebudget). DESIGN.md §11 is the
// invariant catalog.
//
// The suite is built on the stdlib go/ast + go/parser + go/types only — the
// module is dependency-free and the build environment is offline — with a
// small multichecker harness (Load + Run) that loads packages via
// `go list -json -export -deps` and type-checks them against the compiler's
// export data.
//
// A finding is suppressed per site with a
//
//	//lint:allow(<rule>) <reason>
//
// comment on the offending line or the line directly above it. The reason is
// mandatory: an allow without one is itself a diagnostic, so every
// suppression in the tree documents why the invariant does not apply.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding: a rule violation at a file position.
type Diagnostic struct {
	Rule    string         `json:"rule"`
	Pos     token.Position `json:"-"`
	File    string         `json:"file"`
	Line    int            `json:"line"`
	Col     int            `json:"col"`
	Message string         `json:"message"`
}

// String formats the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Rule, d.Message)
}

// Pass hands one type-checked package to an analyzer's Run function.
type Pass struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *Package
	TypesPkg  *types.Package
	TypesInfo *types.Info

	report func(token.Pos, string)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(pos, fmt.Sprintf(format, args...))
}

// Analyzer is one rule of the suite: a per-package AST analysis.
type Analyzer struct {
	Name string
	// Doc is the one-line invariant statement shown by `repolint -rules`.
	Doc string
	// Scope reports whether the rule applies to a package import path.
	// nil means every package. Packages under internal/analysis/testdata/
	// are handled by the harness instead (see InScope).
	Scope func(pkgPath string) bool
	Run   func(*Pass)
}

// testdataSeg is the marker path segment: a package under
// internal/analysis/testdata/<rule>/ is checked by exactly that rule, so
// each testdata package is an executable spec for one analyzer.
const testdataSeg = "internal/analysis/testdata/"

// InScope decides whether the analyzer runs on a package. Testdata packages
// pin the rule from their path; everything else asks the rule's Scope.
func (a *Analyzer) InScope(pkgPath string) bool {
	if rule, ok := testdataRule(pkgPath); ok {
		return rule == a.Name
	}
	if a.Scope == nil {
		return true
	}
	return a.Scope(pkgPath)
}

// testdataRule extracts the rule name from a testdata package path.
func testdataRule(pkgPath string) (string, bool) {
	i := strings.Index(pkgPath, testdataSeg)
	if i < 0 {
		return "", false
	}
	rule, _, _ := strings.Cut(pkgPath[i+len(testdataSeg):], "/")
	return rule, true
}

// Analyzers returns the full suite in stable (sorted) order.
func Analyzers() []*Analyzer {
	all := []*Analyzer{
		ArenaOwner,
		CtxSelect,
		Determinism,
		GoroutineBudget,
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Name < all[j].Name })
	return all
}

// ByName resolves a rule name, for flag parsing and allow validation.
func ByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// pathHasSuffix reports whether pkgPath equals suffix or ends in "/"+suffix
// — the scope test used by rules that name repo packages.
func pathHasSuffix(pkgPath, suffix string) bool {
	if pkgPath == suffix {
		return true
	}
	n := len(pkgPath) - len(suffix)
	return n > 0 && pkgPath[n-1] == '/' && pkgPath[n:] == suffix
}
