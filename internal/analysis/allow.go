package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"strings"
)

// allowRe matches the per-site suppression annotation:
//
//	//lint:allow(<rule>) <reason>
//
// The reason is part of the contract — an annotation without one is a
// malformed-allow diagnostic, never a suppression.
var allowRe = regexp.MustCompile(`^//lint:allow\(([^)]*)\)(.*)$`)

// allowSet records, per file, the lines on which each rule is allowed.
// A diagnostic on line L is suppressed when its rule is allowed on L (a
// trailing comment) or on any line of the comment group that ends on L−1
// (a preceding comment).
type allowSet struct {
	// lines maps file -> rule -> allowed line numbers.
	lines map[string]map[string]map[int]bool
}

// collectAllows scans the files' comments. Malformed annotations (no
// reason, unknown rule) are reported as "allow" diagnostics through report.
func collectAllows(fset *token.FileSet, files []*ast.File, report func(Diagnostic)) *allowSet {
	as := &allowSet{lines: map[string]map[string]map[int]bool{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			// A comment group suppresses the line after its end, so every
			// line of the group maps to the same effective lines.
			for _, c := range cg.List {
				m := allowRe.FindStringSubmatch(c.Text)
				if m == nil {
					if strings.HasPrefix(c.Text, "//lint:allow") {
						reportAt(fset, c.Pos(), report, "malformed allow annotation: want //lint:allow(<rule>) <reason>")
					}
					continue
				}
				rule := strings.TrimSpace(m[1])
				reason := strings.TrimSpace(m[2])
				if ByName(rule) == nil {
					reportAt(fset, c.Pos(), report, fmt.Sprintf("allow annotation names unknown rule %q", rule))
					continue
				}
				if reason == "" {
					reportAt(fset, c.Pos(), report, fmt.Sprintf("allow annotation for %q needs a reason", rule))
					continue
				}
				pos := fset.Position(c.Pos())
				end := fset.Position(cg.End())
				as.add(pos.Filename, rule, pos.Line)
				// The whole group's annotations also cover the line the
				// group precedes.
				as.add(pos.Filename, rule, end.Line+1)
			}
		}
	}
	return as
}

// reportAt emits a malformed-annotation diagnostic under the pseudo-rule
// "allow", which cannot itself be suppressed.
func reportAt(fset *token.FileSet, pos token.Pos, report func(Diagnostic), msg string) {
	report(Diagnostic{Rule: "allow", Pos: fset.Position(pos), Message: msg})
}

func (as *allowSet) add(file, rule string, line int) {
	byRule := as.lines[file]
	if byRule == nil {
		byRule = map[string]map[int]bool{}
		as.lines[file] = byRule
	}
	byLine := byRule[rule]
	if byLine == nil {
		byLine = map[int]bool{}
		byRule[rule] = byLine
	}
	byLine[line] = true
}

// allowed reports whether a diagnostic of rule at file:line is suppressed.
func (as *allowSet) allowed(file, rule string, line int) bool {
	return as.lines[file][rule][line]
}
