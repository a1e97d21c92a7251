// Command repolint runs the repo-specific static-analysis suite
// (internal/analysis) over the given package patterns and reports every
// invariant violation as file:line:col diagnostics. It is wired into CI
// between `go vet` and the tests; DESIGN.md §11 catalogs the rules and the
// //lint:allow(<rule>) <reason> suppression contract.
//
// Usage:
//
//	go run ./cmd/repolint [packages]
//
// Every rule runs. Patterns default to ./... . Exit status: 0 clean,
// 1 findings, 2 load errors.
package main

import (
	"fmt"
	"go/token"
	"os"

	"repro/internal/analysis"
)

func main() {
	patterns := os.Args[1:]
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	fset := token.NewFileSet()
	pkgs, err := analysis.Load(fset, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repolint:", err)
		os.Exit(2)
	}
	diags := analysis.Run(fset, pkgs, analysis.Analyzers())
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "repolint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
