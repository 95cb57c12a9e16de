package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The golden harness: each fixture package under testdata/src carries
// `want` comments naming, as a regexp, the finding expected on that
// line. The harness runs the full analyzer stack over the fixtures and
// demands an exact bidirectional match — every finding needs a want,
// every want needs a finding. The fixtures double as the acceptance
// demonstrations: exhaust.Missing is a switch with a deleted case arm,
// determ.Anchor is a bare time.Now() in deterministic scope, and both
// must fail lint.

const fixtureRoot = "testdata/src"

var fixtures = []string{"determ", "exhaust", "conc", "errs", "poollife", "lockdisc", "goroutine", "buildtag", "unused"}

// fixtureConfig scopes the analyzers to the fixture packages the way
// DefaultConfig scopes them to the repo.
func fixtureConfig(module string) Config {
	p := func(name string) string {
		return module + "/internal/lint/" + fixtureRoot + "/" + name
	}
	return Config{
		Deterministic: map[string][]string{p("determ"): nil},
		HotPath:       map[string]bool{p("conc"): true},
		Lifecycle: map[string]bool{
			p("poollife"):  true,
			p("lockdisc"):  true,
			p("goroutine"): true,
		},
		Unused: []string{p("unused")},
	}
}

// expectation is one want comment: the finding regexp and whether a
// finding matched it.
type expectation struct {
	file    string // base name
	line    int
	pattern *regexp.Regexp
	matched bool
}

// wantRe matches `// want "..."` with an optional +N line offset for
// expectations that cannot share the flagged line (pragma findings fire
// on the pragma's own comment line).
var wantRe = regexp.MustCompile("// want(\\+[0-9]+)? (`[^`]*`)")

// collectWants parses the want comments of every fixture file.
func collectWants(t *testing.T) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, name := range fixtures {
		dir := filepath.Join(fixtureRoot, name)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			for i, lineText := range strings.Split(string(data), "\n") {
				m := wantRe.FindStringSubmatch(lineText)
				if m == nil {
					continue
				}
				line := i + 1
				if m[1] != "" {
					off, err := strconv.Atoi(m[1])
					if err != nil {
						t.Fatalf("%s/%s:%d: bad want offset %q", dir, e.Name(), line, m[1])
					}
					line += off
				}
				pat, err := regexp.Compile(strings.Trim(m[2], "`"))
				if err != nil {
					t.Fatalf("%s/%s:%d: bad want pattern: %v", dir, e.Name(), line, err)
				}
				wants = append(wants, &expectation{file: e.Name(), line: line, pattern: pat})
			}
		}
	}
	return wants
}

// The repository is loaded once per test binary: the self-check, the
// pragma budget and the benchmarks all read the same packages.
var (
	repoOnce   sync.Once
	repoLoader *Loader
	repoPkgs   []*Package
	repoErr    error
)

func repoLoad(tb testing.TB) (*Loader, []*Package) {
	tb.Helper()
	repoOnce.Do(func() {
		if repoLoader, repoErr = NewLoader("../.."); repoErr == nil {
			repoPkgs, repoErr = repoLoader.Load(nil)
		}
	})
	if repoErr != nil {
		tb.Fatal(repoErr)
	}
	return repoLoader, repoPkgs
}

// fixtureResult runs the analyzer stack over the fixture packages once
// per test binary; both fixture tests read the same result.
var fixtureResult *Result

func fixtureRun(t *testing.T) *Result {
	t.Helper()
	if fixtureResult != nil {
		return fixtureResult
	}
	loader, err := NewLoader("../..")
	if err != nil {
		t.Fatal(err)
	}
	var patterns []string
	for _, name := range fixtures {
		patterns = append(patterns, "internal/lint/"+fixtureRoot+"/"+name)
	}
	pkgs, err := loader.Load(patterns)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != len(fixtures) {
		t.Fatalf("loaded %d fixture packages, want %d", len(pkgs), len(fixtures))
	}
	fixtureResult = Run(loader.Fset, pkgs, fixtureConfig(loader.Module))
	return fixtureResult
}

// TestFixtures runs every analyzer over the fixture packages and
// matches findings against the want comments in both directions.
func TestFixtures(t *testing.T) {
	res := fixtureRun(t)
	wants := collectWants(t)
	if len(wants) == 0 {
		t.Fatal("no want comments found under testdata/src")
	}
	for _, f := range res.Findings {
		rendered := fmt.Sprintf("[%s] %s", f.Check, f.Msg)
		base := filepath.Base(f.Pos.Filename)
		matched := false
		for _, w := range wants {
			if w.matched || w.file != base || w.line != f.Pos.Line {
				continue
			}
			if w.pattern.MatchString(rendered) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected finding matching %q, got none", w.file, w.line, w.pattern)
		}
	}
}

// TestFixtureChecksCovered guards the harness itself: the fixture run
// must exercise every check identifier, so an analyzer that silently
// stops firing cannot hide behind a passing fixture test.
func TestFixtureChecksCovered(t *testing.T) {
	res := fixtureRun(t)
	seen := make(map[string]bool)
	for _, f := range res.Findings {
		seen[f.Check] = true
	}
	var missing []string
	for _, check := range KnownChecks {
		if !seen[check] {
			missing = append(missing, check)
		}
	}
	if len(missing) > 0 {
		t.Errorf("fixture run produced no %s findings", strings.Join(missing, ", "))
	}
}

// TestSelfCheckRepoIsClean is the CI gate's mirror image: the suite run
// over the whole repository must report nothing, so any finding a
// future change introduces fails this test as well as make lint.
func TestSelfCheckRepoIsClean(t *testing.T) {
	loader, pkgs := repoLoad(t)
	res := Run(loader.Fset, pkgs, DefaultConfig(loader.Module))
	for _, f := range res.Findings {
		t.Errorf("repo is not lint-clean: %s", f)
	}
	if res.Packages < 10 {
		t.Errorf("self-check covered only %d packages; the load looks broken", res.Packages)
	}
	// ./... reaches into the nested benchmark module, which go list run
	// at the root alone would not.
	bench := loader.Module + "/bench"
	if !slices.ContainsFunc(pkgs, func(p *Package) bool { return p.Path == bench }) {
		t.Errorf("self-check did not load %s", bench)
	}
}
