// Command reanalyze re-runs the paper's classification offline over a
// JSONL observation dump produced by `dnssec-scan -dump` — the
// workflow the authors describe in Appendix D (they retained all scan
// data and analysed it after the campaign).
//
// Usage:
//
//	dnssec-scan -scale 20000 -dump obs.jsonl
//	reanalyze -in obs.jsonl -out figure1
//
// The tables come from the fold a resumed scan uses, so the dump must
// be as -dump writes it: one record per line, each ending in a newline.
//
// With -out body it prints the dump itself with each record's trailing
// cost object cut (scan.Body): the part of a dump that is identical
// between a single-process, a sharded and a resumed run, ready for cmp.
//
// With -trace it instead validates and summarises a -trace-out JSONL
// stream (the CI round-trip check for the trace format).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"dnssecboot/internal/obs"
	"dnssecboot/internal/report"
	"dnssecboot/internal/scan"
)

func main() {
	var (
		in    = flag.String("in", "-", "JSONL observation dump (- for stdin)")
		out   = flag.String("out", "all", "artefact: "+report.ArtefactChoices()+", or body: the records without their cost objects")
		now   = flag.String("now", "2025-04-15T12:00:00Z", "validation timestamp (RFC 3339) matching the scan")
		trace = flag.String("trace", "", "validate and summarise a -trace-out JSONL stream instead of reclassifying")
	)
	flag.Parse()
	if err := report.CheckArtefact(*out, "body"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *trace != "" {
		summarizeTrace(*trace)
		return
	}

	ts, err := time.Parse(time.RFC3339, *now)
	if err != nil {
		fatal(err)
	}
	f := os.Stdin
	if *in != "-" {
		f, err = os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
	}
	if *out == "body" {
		if err := scan.Bodies(os.Stdout, f); err != nil {
			fatal(err)
		}
		return
	}
	// Fold classifies in parallel and adds in order, in constant memory;
	// a line that is not a complete record is an error, not a tail to cut.
	r := report.NewAggregate()
	count, _, err := r.Fold(f, ts, nil)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "reanalyze: classified %d observations\n", count)
	if err := r.WriteArtefact(os.Stdout, *out); err != nil {
		fatal(err)
	}
}

// summarizeTrace round-trips a -trace-out artefact through the trace
// reader and prints per-stage/event counts. Any malformed line is fatal,
// so CI can use this as a format check.
func summarizeTrace(path string) {
	f := os.Stdin
	if path != "-" {
		var err error
		f, err = os.Open(path)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
	}
	events, err := obs.ReadTrace(f)
	if err != nil {
		fatal(err)
	}
	zones := make(map[string]bool)
	byKind := make(map[string]int)
	for _, ev := range events {
		zones[ev.Zone] = true
		byKind[ev.Stage+"/"+ev.Event]++
	}
	fmt.Printf("trace: %d events across %d zones\n", len(events), len(zones))
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Printf("  %-28s %d\n", k, byKind[k])
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "reanalyze:", err)
	os.Exit(1)
}
