package analysis

import (
	"go/token"
	"sort"
)

// Run applies the enabled analyzers to the loaded packages and returns the
// surviving (non-suppressed) diagnostics, sorted by position then rule.
func Run(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	report := func(d Diagnostic) { diags = append(diags, d) }

	for _, pkg := range pkgs {
		allows := collectAllows(fset, pkg.Files, report)
		for _, a := range analyzers {
			if !a.InScope(pkg.ImportPath) {
				continue
			}
			rule := a.Name
			pass := &Pass{
				Fset:      fset,
				Files:     pkg.Files,
				Pkg:       pkg,
				TypesPkg:  pkg.Types,
				TypesInfo: pkg.Info,
				report: func(pos token.Pos, msg string) {
					p := fset.Position(pos)
					if allows.allowed(p.Filename, rule, p.Line) {
						return
					}
					diags = append(diags, Diagnostic{
						Rule: rule, Pos: p, File: p.Filename, Line: p.Line, Col: p.Column,
						Message: msg,
					})
				},
			}
			a.Run(pass)
		}
	}

	sort.Slice(diags, func(i, j int) bool {
		if diags[i].File != diags[j].File {
			return diags[i].File < diags[j].File
		}
		if diags[i].Line != diags[j].Line {
			return diags[i].Line < diags[j].Line
		}
		if diags[i].Col != diags[j].Col {
			return diags[i].Col < diags[j].Col
		}
		return diags[i].Rule < diags[j].Rule
	})
	return diags
}
