package analysis

import (
	"bufio"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// want is one expectation parsed from a `// want "regexp"` comment in a
// testdata file: the named rule must report on exactly that line with a
// message matching the pattern.
type want struct {
	file string // base name
	line int
	re   *regexp.Regexp
}

var wantRe = regexp.MustCompile(`// want "([^"]+)"`)

// parseWants scans the .go files of a testdata directory for expectations.
func parseWants(t *testing.T, dir string) []want {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read %s: %v", dir, err)
	}
	var wants []want
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			for _, m := range wantRe.FindAllStringSubmatch(sc.Text(), -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", e.Name(), line, m[1], err)
				}
				wants = append(wants, want{file: e.Name(), line: line, re: re})
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	if len(wants) == 0 {
		t.Fatalf("no want expectations found under %s", dir)
	}
	return wants
}

// loadAndRun runs one rule over one package pattern.
func loadAndRun(t *testing.T, rule, pattern string) []Diagnostic {
	t.Helper()
	a := ByName(rule)
	if a == nil {
		t.Fatalf("unknown rule %q", rule)
	}
	fset := token.NewFileSet()
	pkgs, err := Load(fset, []string{pattern})
	if err != nil {
		t.Fatalf("Load(%s): %v", pattern, err)
	}
	return Run(fset, pkgs, []*Analyzer{a})
}

// TestGolden checks every AST analyzer against its testdata package: the
// reported set must equal the want set exactly — same files, same lines,
// matching messages, nothing extra, nothing missing.
func TestGolden(t *testing.T) {
	for _, rule := range []string{"arenaowner", "ctxselect", "determinism", "goroutinebudget"} {
		t.Run(rule, func(t *testing.T) {
			diags := loadAndRun(t, rule, "repro/internal/analysis/testdata/"+rule)
			wants := parseWants(t, filepath.Join("testdata", rule))

			used := make([]bool, len(diags))
			for _, w := range wants {
				found := false
				for i, d := range diags {
					if used[i] || filepath.Base(d.File) != w.file || d.Line != w.line {
						continue
					}
					if !w.re.MatchString(d.Message) {
						t.Errorf("%s:%d: got %q, want match for %q", w.file, w.line, d.Message, w.re)
					}
					if d.Rule != rule {
						t.Errorf("%s:%d: reported under rule %q, want %q", w.file, w.line, d.Rule, rule)
					}
					used[i] = true
					found = true
					break
				}
				if !found {
					t.Errorf("missing diagnostic at %s:%d matching %q", w.file, w.line, w.re)
				}
			}
			for i, d := range diags {
				if !used[i] {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
		})
	}
}

func diagList(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		fmt.Fprintf(&b, "  %s\n", d)
	}
	return b.String()
}
