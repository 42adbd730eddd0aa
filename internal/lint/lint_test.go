package lint

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// testLoader is shared across tests: the standard-library source importer
// memoizes type-checked packages, so one loader keeps the suite fast.
var (
	loaderOnce sync.Once
	loader     *Loader
	loaderErr  error
)

func sharedLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		loader, loaderErr = NewLoader(filepath.Join("..", ".."))
	})
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	return loader
}

// want is one expectation comment: `// want "regexp"` on the line a
// diagnostic must appear on. Several quoted patterns may share one
// comment.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

var wantPattern = regexp.MustCompile(`"([^"]*)"`)

// collectWants scans a loaded package's comments for expectations.
func collectWants(t *testing.T, pkg *Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				ms := wantPattern.FindAllStringSubmatch(rest, -1)
				if len(ms) == 0 {
					t.Fatalf("%s:%d: want comment with no quoted pattern", pos.Filename, pos.Line)
				}
				for _, m := range ms {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, m[1], err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re, raw: m[1]})
				}
			}
		}
	}
	return wants
}

// runGolden loads testdata/src/<dir>, runs the given analyzers, and
// checks the diagnostics against the files' want comments exactly: every
// want must match a diagnostic on its line, and every diagnostic must be
// claimed by a want.
func runGolden(t *testing.T, dir string, analyzers []*Analyzer) {
	t.Helper()
	l := sharedLoader(t)
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", dir))
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", dir, err)
	}
	diags := Run([]*Package{pkg}, analyzers)
	wants := collectWants(t, pkg)

	for _, d := range diags {
		claimed := false
		for _, w := range wants {
			if w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				claimed = true
			}
		}
		if !claimed {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.raw)
		}
	}
}

func TestWallClockGolden(t *testing.T)    { runGolden(t, "wallclock", []*Analyzer{WallClock}) }
func TestGlobalRandGolden(t *testing.T)   { runGolden(t, "globalrand", []*Analyzer{GlobalRand}) }
func TestMapOrderGolden(t *testing.T)     { runGolden(t, "maporder", []*Analyzer{MapOrder}) }
func TestFloatOrderGolden(t *testing.T)   { runGolden(t, "floatorder", []*Analyzer{FloatOrder}) }
func TestSealedReportGolden(t *testing.T) { runGolden(t, "sealedreport", []*Analyzer{SealedReport}) }
func TestEffectsFlowGolden(t *testing.T) {
	runGolden(t, "effects", []*Analyzer{WallClockFlow, RandFlow})
}
func TestParCaptureGolden(t *testing.T) { runGolden(t, "parcapture", []*Analyzer{ParCapture}) }

// TestWallClockFlowGenerics: effects behind methods of instantiated generic
// types and instantiated generic functions are seen (their uses resolve to
// the origin declaration).
func TestWallClockFlowGenerics(t *testing.T) {
	runGolden(t, "wallclockflow", []*Analyzer{WallClockFlow})
}

// TestIgnoreDirectives pins the suppression engine's semantics on
// testdata/src/ignore: two justified directives silence their findings,
// while a stale, an unknown-analyzer and a reasonless directive are each
// themselves diagnosed — suppressions must pay rent.
func TestIgnoreDirectives(t *testing.T) {
	l := sharedLoader(t)
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", "ignore"))
	if err != nil {
		t.Fatalf("LoadDir(ignore): %v", err)
	}
	diags := Run([]*Package{pkg}, All())

	for _, d := range diags {
		if d.Analyzer != IgnoreCheck {
			t.Errorf("finding survived a valid suppression: %s", d)
		}
	}
	expect := []string{
		"suppresses no diagnostic",
		"unknown analyzer",
		"malformed //lint:ignore",
	}
	for _, sub := range expect {
		found := false
		for _, d := range diags {
			if d.Analyzer == IgnoreCheck && strings.Contains(d.Message, sub) {
				found = true
			}
		}
		if !found {
			t.Errorf("expected an ignorecheck diagnostic containing %q, got:\n%s", sub, renderDiags(diags))
		}
	}
	if got := len(diags); got != len(expect) {
		t.Errorf("want exactly %d ignorecheck diagnostics, got %d:\n%s", len(expect), got, renderDiags(diags))
	}
}

// TestRunDeterministic pins the linter's own output contract: two runs
// over the same package yield byte-identical diagnostic listings.
func TestRunDeterministic(t *testing.T) {
	l := sharedLoader(t)
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", "maporder"))
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	a := renderDiags(Run([]*Package{pkg}, All()))
	b := renderDiags(Run([]*Package{pkg}, All()))
	if a != b {
		t.Fatalf("diagnostic output not deterministic:\n--- run 1\n%s\n--- run 2\n%s", a, b)
	}
}

func renderDiags(diags []Diagnostic) string {
	var sb strings.Builder
	for _, d := range diags {
		fmt.Fprintf(&sb, "  %s\n", d)
	}
	return sb.String()
}
