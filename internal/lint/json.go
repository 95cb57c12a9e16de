package lint

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
)

// Machine-readable output: `dnssec-lint -json` emits one JSON object
// per finding (JSONL), so CI annotators and editors can consume the
// suite without scraping the human format. The schema is the flat
// four-field object below; Finding round-trips through it losslessly
// (column information is presentation-only and deliberately dropped).

// jsonFinding is the wire form of one finding.
type jsonFinding struct {
	File  string `json:"file"`
	Line  int    `json:"line"`
	Check string `json:"check"`
	Msg   string `json:"msg"`
}

// JSONLine renders f as a single-line JSON object.
func (f Finding) JSONLine() ([]byte, error) {
	return json.Marshal(jsonFinding{File: f.Pos.Filename, Line: f.Pos.Line, Check: f.Check, Msg: f.Msg})
}

// ParseCheckList parses a comma-separated list of check names (the
// -checks flag), rejecting names no analyzer owns so a typo cannot
// silently filter everything out.
func ParseCheckList(s string) (map[string]bool, error) {
	keep := make(map[string]bool)
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if !slices.Contains(KnownChecks, name) {
			return nil, fmt.Errorf("lint: unknown check %q (known: %s)", name, strings.Join(KnownChecks, ", "))
		}
		keep[name] = true
	}
	if len(keep) == 0 {
		return nil, fmt.Errorf("lint: -checks names no checks")
	}
	return keep, nil
}

// Filter drops findings whose check is not in keep. A nil keep keeps
// everything.
func (r *Result) Filter(keep map[string]bool) {
	if keep == nil {
		return
	}
	kept := r.Findings[:0]
	for _, f := range r.Findings {
		if keep[f.Check] {
			kept = append(kept, f)
		}
	}
	r.Findings = kept
}
