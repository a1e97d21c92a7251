package analysis

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os/exec"
	"strings"
	"testing"
)

// TestRepoCleanWithAllows pins the repo-wide contract behind the CI gate:
// the full suite over every package in the module reports zero
// diagnostics. Every legitimate invariant exception in the tree must
// therefore carry its per-site //lint:allow annotation — deleting one, or
// introducing a new violation anywhere, fails this test.
func TestRepoCleanWithAllows(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := Load(fset, []string{"repro/..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("suspiciously few packages loaded (%d); loader broken?", len(pkgs))
	}
	diags := Run(fset, pkgs, Analyzers())
	for _, d := range diags {
		t.Errorf("repo not clean: %s", d)
	}
}

// TestCLIFindsTestdataViolations pins cmd/repolint end to end: pointed at
// an analyzer's violation package it must exit nonzero and print correct
// file:line diagnostics.
func TestCLIFindsTestdataViolations(t *testing.T) {
	root, err := ModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		pkg, needle string
	}{
		{"determinism", "determinism.go:14:8: determinism: time.Now is a nondeterminism source"},
		{"arenaowner", "arenaowner.go:10:9: arenaowner:"},
		{"ctxselect", "ctxselect.go:12:8: ctxselect: blocking channel receive"},
		{"goroutinebudget", "goroutinebudget.go:8:2: goroutinebudget: goroutine outside"},
	} {
		cmd := exec.Command("go", "run", "./cmd/repolint", "./internal/analysis/testdata/"+tc.pkg)
		cmd.Dir = root
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Errorf("%s: expected nonzero exit, got success:\n%s", tc.pkg, out)
			continue
		}
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
			t.Errorf("%s: expected exit code 1, got %v:\n%s", tc.pkg, err, out)
			continue
		}
		if !strings.Contains(string(out), tc.needle) {
			t.Errorf("%s: output missing %q:\n%s", tc.pkg, tc.needle, out)
		}
	}
}

// TestAllowAnnotationContract pins the malformed-annotation diagnostics:
// a missing reason, an unknown rule, and a typo'd form each surface as an
// unsuppressable "allow" finding.
func TestAllowAnnotationContract(t *testing.T) {
	src := `package p

import "time"

func a() time.Time {
	return time.Now() //lint:allow(determinism)
}

func b() time.Time {
	return time.Now() //lint:allow(nosuchrule) reason text
}

//lint:allowtypo(determinism) reason
func c() {}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "allow_spec.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var diags []Diagnostic
	collectAllows(fset, []*ast.File{f}, func(d Diagnostic) { diags = append(diags, d) })
	wantSubstrings := []string{
		`allow annotation for "determinism" needs a reason`,
		`allow annotation names unknown rule "nosuchrule"`,
		"malformed allow annotation",
	}
	if len(diags) != len(wantSubstrings) {
		t.Fatalf("got %d allow diagnostics, want %d:\n%s", len(diags), len(wantSubstrings), diagList(diags))
	}
	for i, sub := range wantSubstrings {
		if !strings.Contains(diags[i].Message, sub) {
			t.Errorf("diag %d = %q, want contains %q", i, diags[i].Message, sub)
		}
		if diags[i].Rule != "allow" {
			t.Errorf("diag %d rule = %q, want \"allow\"", i, diags[i].Rule)
		}
	}
}

// ModuleRoot returns the directory of the enclosing module.
func ModuleRoot() (string, error) {
	out, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		return "", fmt.Errorf("analysis: go list -m: %v", err)
	}
	return string(bytes.TrimSpace(out)), nil
}
