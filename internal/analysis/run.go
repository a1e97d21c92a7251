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
					diags = append(diags, Diagnostic{Rule: rule, Pos: p, Message: msg})
				},
			}
			a.Run(pass)
		}
	}

	sort.Slice(diags, func(i, j int) bool {
		pi, pj := diags[i].Pos, diags[j].Pos
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Rule < diags[j].Rule
	})
	return diags
}
