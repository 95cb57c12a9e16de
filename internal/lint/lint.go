// Package lint is the repo's in-tree static-analysis suite. The
// paper's pipeline (§3) is only credible because every run over the
// synthetic Internet is reproducible and every nameserver response
// lands in exactly one outcome bucket; past PRs each shipped a bug that
// violated one of those invariants (map-order nondeterminism in
// ecosystem generation, outcome-switch misclassification in
// classify/report, phantom retry counters). The analyzers here turn
// those one-off fixes into machine-checked invariants that gate every
// future change:
//
//   - nondeterminism: no wall-clock or process-global randomness, and
//     no order-sensitive map iteration, in the packages whose output
//     must be byte-identical across runs.
//   - exhaustive: every switch over a marked outcome/verdict enum
//     covers all declared constants or carries an explicit default, so
//     adding a constant fails lint until every aggregation site is
//     updated.
//   - concurrency: sync/atomic fields are accessed atomically
//     everywhere, ctx parameters are threaded (never replaced with
//     context.Background) on the resolver/scan hot paths, and
//     goroutine closures do not capture loop variables implicitly.
//   - errcompare / errwrap: sentinel errors go through errors.Is, and
//     fmt.Errorf keeps error chains intact with %w.
//   - poollife / lockdiscipline / goroutinelife: the lifecycle
//     analyzers, path-sensitive over the function-local dataflow layer
//     (dataflow.go). In the lifecycle packages every pool.Get reaches
//     a Put on all paths without use-after-Put or escape, every held
//     mutex is released on every return path with nothing blocking
//     under it, and every goroutine carries join evidence.
//   - unused: every package-level declaration under internal/ and cmd/
//     is reachable from some program's main, init or package-level var
//     (unused.go). It needs the whole tree loaded and is skipped on a
//     partial load.
//
// Findings print as "file:line: [check] message". A site can opt out
// with a trailing or preceding pragma comment:
//
//	//lint:allow <check> <reason>
//
// The reason is mandatory; a reasonless pragma is itself a finding and
// suppresses nothing. Enum types opt in to exhaustiveness checking with
// a "lint:exhaustive" marker in their doc comment.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"slices"
	"sort"
	"strings"
)

// Check identifiers, used in findings and in allow pragmas.
const (
	CheckNondeterminism = "nondeterminism"
	CheckExhaustive     = "exhaustive"
	CheckConcurrency    = "concurrency"
	CheckErrCompare     = "errcompare"
	CheckErrWrap        = "errwrap"
	CheckPoolLife       = "poollife"
	CheckLockDiscipline = "lockdiscipline"
	CheckGoroutineLife  = "goroutinelife"
	CheckPragma         = "pragma"
	CheckUnused         = "unused"
)

// KnownChecks lists the valid check identifiers, sorted; pragmas naming
// anything else are reported rather than silently ignored.
var KnownChecks = []string{
	CheckConcurrency, CheckErrCompare, CheckErrWrap, CheckExhaustive, CheckGoroutineLife,
	CheckLockDiscipline, CheckNondeterminism, CheckPoolLife, CheckPragma, CheckUnused,
}

// Finding is one diagnostic.
type Finding struct {
	Pos   token.Position
	Check string
	Msg   string
}

// String renders the canonical "file:line: [check] message" form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Check, f.Msg)
}

// Config scopes the analyzers to the module's layout.
type Config struct {
	// Deterministic maps import paths to the file basenames covered by
	// the nondeterminism analyzer. A nil slice covers the whole package.
	Deterministic map[string][]string
	// HotPath lists the import paths whose ctx-threading rule is
	// enforced (the resolver/scan hot paths).
	HotPath map[string]bool
	// Lifecycle lists the import paths covered by the dataflow
	// analyzers (poollife, lockdiscipline, goroutinelife): everywhere
	// pooled scratch, bare mutexes, or worker goroutines live.
	Lifecycle map[string]bool
	// Unused lists the import-path prefixes whose unreached
	// declarations the unused check reports, testdata below them
	// excluded. Reachability needs every package that could use one
	// loaded, so Analyze clears it unless the patterns cover the
	// module's tree.
	Unused []string
}

// DefaultConfig returns the repo's scoping: the packages whose output
// feeds the paper's deterministic artefacts, and the concurrent hot
// paths. module is the module path from go.mod.
func DefaultConfig(module string) Config {
	p := func(s string) string { return module + "/" + s }
	return Config{
		Deterministic: map[string][]string{
			p("internal/ecosystem"): nil,
			p("internal/classify"):  nil,
			p("internal/report"):    nil,
			p("internal/dnssec"):    nil,
			p("internal/zone"):      nil,
			// ingest's reduction must be a pure function of the dump
			// bytes: stats and targets feed golden fixtures.
			p("internal/ingest"): nil,
			// scan's export paths must serialise identically across
			// runs; the scanner itself is allowed wall-clock state.
			p("internal/scan"): {"export.go", "observation.go", "checkpoint.go"},
			// shard's merge and partition feed the cross-shard
			// byte-equality battery; the coordinator itself is allowed
			// wall-clock state (stall detection, progress reports).
			p("internal/shard"): {"merge.go", "partition.go"},
		},
		HotPath: map[string]bool{
			p("internal/resolver"): true,
			p("internal/scan"):     true,
			p("internal/ingest"):   true,
			// the one fan-out both of the above run through
			p("internal/ordered"): true,
		},
		Lifecycle: map[string]bool{
			p("internal/resolver"):  true,
			p("internal/scan"):      true,
			p("internal/ingest"):    true,
			p("internal/dnswire"):   true,
			p("internal/transport"): true,
			p("internal/server"):    true,
			p("internal/rate"):      true,
			p("internal/shard"):     true,
			p("internal/ordered"):   true,
		},
		Unused: []string{p("internal/"), p("cmd/"), p("internal/lint/testdata/src/unused")},
	}
}

// Result is one analysis run over a set of packages.
type Result struct {
	Findings []Finding
	Packages int
}

// Analyze loads patterns, relative to the root of the module containing
// dir, and runs every analyzer under DefaultConfig, returning the
// surviving findings sorted by position.
func Analyze(dir string, patterns []string) (*Result, error) {
	loader, err := NewLoader(dir)
	if err != nil {
		return nil, err
	}
	pkgs, err := loader.Load(patterns)
	if err != nil {
		return nil, err
	}
	cfg := DefaultConfig(loader.Module)
	if !loader.wholeTree(patterns) {
		cfg.Unused = nil
	}
	return Run(loader.Fset, pkgs, cfg), nil
}

// Run executes every analyzer over the loaded packages and applies
// pragma suppression.
func Run(fset *token.FileSet, pkgs []*Package, cfg Config) *Result {
	allows, pragmaFindings := collectPragmas(fset, pkgs)
	enums := collectEnums(pkgs)

	var raw []Finding
	for _, pkg := range pkgs {
		raw = append(raw, analyzeDeterminism(fset, pkg, cfg)...)
		raw = append(raw, analyzeExhaustive(fset, pkg, enums)...)
		raw = append(raw, analyzeConcurrency(fset, pkg, cfg)...)
		raw = append(raw, analyzeErrDiscipline(fset, pkg)...)
		raw = append(raw, analyzePoolLife(fset, pkg, cfg)...)
		raw = append(raw, analyzeLockDiscipline(fset, pkg, cfg)...)
		raw = append(raw, analyzeGoroutineLife(fset, pkg, cfg)...)
	}
	if len(cfg.Unused) > 0 {
		raw = append(raw, analyzeUnused(fset, pkgs, cfg.Unused, allows)...)
	}

	var kept []Finding
	seen := make(map[Finding]bool)
	for _, f := range raw {
		if allows.suppresses(f) || seen[f] {
			continue
		}
		seen[f] = true
		kept = append(kept, f)
	}
	kept = append(kept, pragmaFindings...)
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Check < b.Check
	})
	return &Result{Findings: kept, Packages: len(pkgs)}
}

// allowSet records every well-formed allow pragma by file, line and
// check. A pragma suppresses findings of its check on its own line
// (trailing comment) and on the line directly below it (standalone
// comment above the site).
type allowSet map[allowKey]bool

type allowKey struct {
	file  string
	line  int
	check string
}

func (a allowSet) suppresses(f Finding) bool {
	return a[allowKey{f.Pos.Filename, f.Pos.Line, f.Check}] || a[allowKey{f.Pos.Filename, f.Pos.Line - 1, f.Check}]
}

// pragmaPrefix introduces an allow pragma inside a comment.
const pragmaPrefix = "lint:allow"

// collectPragmas scans every comment for allow pragmas. Malformed
// pragmas (no check name, or no reason) are reported and ignored: an
// unexplained suppression is exactly the kind of silent exception this
// suite exists to prevent.
func collectPragmas(fset *token.FileSet, pkgs []*Package) (allowSet, []Finding) {
	allows := make(allowSet)
	var findings []Finding
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					text := strings.TrimPrefix(c.Text, "//")
					text = strings.TrimPrefix(text, "/*")
					text = strings.TrimSpace(strings.TrimSuffix(text, "*/"))
					rest, ok := strings.CutPrefix(text, pragmaPrefix)
					if !ok {
						continue
					}
					pos := fset.Position(c.Pos())
					fields := strings.Fields(rest)
					if len(fields) == 0 {
						findings = append(findings, Finding{Pos: pos, Check: CheckPragma,
							Msg: "allow pragma names no check: want //lint:allow <check> <reason>"})
						continue
					}
					if !slices.Contains(KnownChecks, fields[0]) {
						findings = append(findings, Finding{Pos: pos, Check: CheckPragma,
							Msg: fmt.Sprintf("allow pragma names unknown check %q; the pragma is ignored", fields[0])})
						continue
					}
					if len(fields) < 2 {
						findings = append(findings, Finding{Pos: pos, Check: CheckPragma,
							Msg: fmt.Sprintf("allow pragma for %q has no reason; the reason is mandatory and the pragma is ignored", fields[0])})
						continue
					}
					allows[allowKey{pos.Filename, pos.Line, fields[0]}] = true
				}
			}
		}
	}
	return allows, findings
}

// inspectFiles walks every file of pkg.
func inspectFiles(pkg *Package, fn func(ast.Node) bool) {
	for _, f := range pkg.Files {
		ast.Inspect(f, fn)
	}
}
