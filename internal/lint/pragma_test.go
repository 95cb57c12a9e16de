package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// Direct tests for pragma parsing: the fixture harness exercises the
// happy path, these pin the edge cases — adjacency (a pragma only
// covers its own line and the line below), unknown check names, and
// the reasonless self-report.

// pragmaSource parses src as a lone file and collects its pragmas.
func pragmaSource(t *testing.T, src string) (allowSet, []Finding, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "pragma_case.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkg := &Package{Path: "pragmacase", Files: []*ast.File{file}}
	allows, findings := collectPragmas(fset, []*Package{pkg})
	return allows, findings, fset
}

func TestPragmaAdjacency(t *testing.T) {
	allows, findings, _ := pragmaSource(t, `package p

//lint:allow nondeterminism seeded generator, fixed in config
var a = 1

var b = 2
`)
	if len(findings) != 0 {
		t.Fatalf("well-formed pragma produced findings: %v", findings)
	}
	at := func(line int) Finding {
		f := Finding{Check: CheckNondeterminism}
		f.Pos.Filename = "pragma_case.go"
		f.Pos.Line = line
		return f
	}
	if !allows.suppresses(at(3)) {
		t.Error("pragma does not suppress its own line")
	}
	if !allows.suppresses(at(4)) {
		t.Error("pragma does not suppress the line directly below")
	}
	if allows.suppresses(at(5)) || allows.suppresses(at(6)) {
		t.Error("pragma on the wrong line suppresses a distant finding")
	}
	wrongCheck := at(4)
	wrongCheck.Check = CheckPoolLife
	if allows.suppresses(wrongCheck) {
		t.Error("pragma suppresses a check it does not name")
	}
}

func TestPragmaUnknownCheck(t *testing.T) {
	allows, findings, _ := pragmaSource(t, `package p

//lint:allow poollfe a reason that cannot save a typo
var a = 1
`)
	if len(allows) != 0 {
		t.Errorf("unknown-check pragma was recorded: %v", allows)
	}
	if len(findings) != 1 || findings[0].Check != CheckPragma ||
		!strings.Contains(findings[0].Msg, `unknown check "poollfe"`) {
		t.Errorf("unknown-check pragma findings = %v, want one [pragma] unknown-check report", findings)
	}
}

func TestPragmaMissingReason(t *testing.T) {
	allows, findings, _ := pragmaSource(t, `package p

//lint:allow poollife
var a = 1
`)
	if len(allows) != 0 {
		t.Errorf("reasonless pragma was recorded: %v", allows)
	}
	if len(findings) != 1 || findings[0].Check != CheckPragma ||
		!strings.Contains(findings[0].Msg, "has no reason") {
		t.Errorf("reasonless pragma findings = %v, want one [pragma] no-reason report", findings)
	}
}

// pragmaBudget is the number of reviewed //lint:allow suppressions in
// production code (testdata fixtures excluded). Adding a suppression
// is a reviewed decision: justify it in the pragma's reason and bump
// this count in the same change. Three are the deliberate ownership
// transfers poollife cannot see locally — dnswire's newBuilder/newParser
// constructors and the server's UDP reader-to-worker buffer handoff.
// Five keep test seams and oracles that no program reaches alive under
// unused: dnssec.CheckDenial and CheckDenialNSEC3, resolver's
// Cache.SetClock, server's Server.Zones and ecosystem's
// SignalZoneFootprint.
const pragmaBudget = 8

// TestPragmaBudget holds the suppression count exactly at the budget,
// in both directions, and rejects malformed pragmas. This is the CI
// budget check: a new pragma without a reason fails collectPragmas, a
// new pragma with one still fails here until the budget is bumped.
func TestPragmaBudget(t *testing.T) {
	loader, pkgs := repoLoad(t)
	allows, findings := collectPragmas(loader.Fset, pkgs)
	for _, f := range findings {
		t.Errorf("malformed pragma: %s", f)
	}
	count := len(allows)
	switch {
	case count > pragmaBudget:
		t.Errorf("%d lint:allow pragmas in production code, budget is %d; a new suppression needs review and a budget bump", count, pragmaBudget)
	case count < pragmaBudget:
		t.Errorf("%d lint:allow pragmas in production code, budget is %d; lower the budget so it stays exact", count, pragmaBudget)
	}
}

func TestPragmaNamesNoCheck(t *testing.T) {
	_, findings, _ := pragmaSource(t, `package p

//lint:allow
var a = 1
`)
	if len(findings) != 1 || findings[0].Check != CheckPragma ||
		!strings.Contains(findings[0].Msg, "names no check") {
		t.Errorf("bare pragma findings = %v, want one [pragma] names-no-check report", findings)
	}
}
