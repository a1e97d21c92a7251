// Command repolint runs the repo-specific static-analysis suite
// (internal/analysis) over the given package patterns and reports every
// invariant violation as file:line:col diagnostics. It is wired into CI
// between `go vet` and the tests; DESIGN.md §11 catalogs the rules and the
// //lint:allow(<rule>) <reason> suppression contract.
//
// Usage:
//
//	go run ./cmd/repolint [flags] [packages]
//
//	-json            machine-readable diagnostics (file, line, col, rule, message)
//	-rules           print the rule catalog and exit
//	-enable  a,b,c   run only the named rules
//	-disable a,b,c   skip the named rules
//
// Patterns default to ./... . Exit status: 0 clean, 1 findings, 2 usage or
// load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"os"
	"strings"

	"repro/internal/analysis"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as JSON")
	listRules := flag.Bool("rules", false, "print the rule catalog and exit")
	enable := flag.String("enable", "", "comma-separated rules to run (default: all)")
	disable := flag.String("disable", "", "comma-separated rules to skip")
	flag.Parse()

	if *listRules {
		for _, a := range analysis.Analyzers() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers, err := selectRules(*enable, *disable)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repolint:", err)
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	fset := token.NewFileSet()
	pkgs, err := analysis.Load(fset, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repolint:", err)
		os.Exit(2)
	}
	diags := analysis.Run(fset, pkgs, analyzers)

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(os.Stderr, "repolint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "repolint: %d finding(s)\n", len(diags))
		}
		os.Exit(1)
	}
}

// selectRules resolves the enable/disable flags against the registry.
func selectRules(enable, disable string) ([]*analysis.Analyzer, error) {
	all := analysis.Analyzers()
	chosen := all
	if enable != "" {
		chosen = nil
		for _, name := range strings.Split(enable, ",") {
			name = strings.TrimSpace(name)
			a := analysis.ByName(name)
			if a == nil {
				return nil, fmt.Errorf("unknown rule %q in -enable (see -rules)", name)
			}
			chosen = append(chosen, a)
		}
	}
	if disable != "" {
		skip := map[string]bool{}
		for _, name := range strings.Split(disable, ",") {
			name = strings.TrimSpace(name)
			if analysis.ByName(name) == nil {
				return nil, fmt.Errorf("unknown rule %q in -disable (see -rules)", name)
			}
			skip[name] = true
		}
		var kept []*analysis.Analyzer
		for _, a := range chosen {
			if !skip[a.Name] {
				kept = append(kept, a)
			}
		}
		chosen = kept
	}
	if len(chosen) == 0 {
		return nil, fmt.Errorf("no rules selected")
	}
	return chosen, nil
}
