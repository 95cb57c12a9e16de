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
// With -out explain it prints why each record was classified the way
// the tables count it: one JSON line per record, in dump order, with
// the zone, its parent, status, Figure 1 bucket, CDS flags, operator,
// Table 3 rung and RFC 9615 violations. The lines come from the same
// fold and classification the tables do, so a tally of them by bucket
// or by rung and operator is Figure 1 or Table 3:
//
//	reanalyze -in obs.jsonl -out explain | grep '"zone":"example.com."'
//
// With -trace it instead validates and summarises a -trace-out JSONL
// stream, one line per wire exchange, by outcome (the CI round-trip
// check for the trace format).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"dnssecboot/internal/classify"
	"dnssecboot/internal/obs"
	"dnssecboot/internal/report"
	"dnssecboot/internal/scan"
)

func main() {
	var (
		in    = flag.String("in", "-", "JSONL observation dump (- for stdin)")
		out   = flag.String("out", "all", "artefact: "+report.ArtefactChoices()+", body: the records without their cost objects, or explain: one line per record saying why it was classified so")
		now   = flag.String("now", "2025-04-15T12:00:00Z", "validation timestamp (RFC 3339) matching the scan")
		trace = flag.String("trace", "", "validate and summarise a -trace-out JSONL stream instead of reclassifying")
	)
	flag.Parse()
	if err := report.CheckArtefact(*out, "body", "explain"); err != nil {
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
	switch *out {
	case "body":
		if err := scan.Bodies(os.Stdout, f); err != nil {
			fatal(err)
		}
		return
	case "explain":
		if err := explain(os.Stdout, f, ts); err != nil {
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

// explanation is one -out explain line.
type explanation struct {
	Zone          string                     `json:"zone"`
	Status        string                     `json:"status"`
	Parent        string                     `json:"parent,omitempty"`
	Bucket        string                     `json:"bucket,omitempty"`
	CDS           *classify.CDSInfo          `json:"cds,omitempty"`
	Operator      string                     `json:"operator,omitempty"`
	MultiOperator bool                       `json:"multi_operator,omitempty"`
	Rung          string                     `json:"rung,omitempty"`
	Violations    []classify.SignalViolation `json:"violations,omitempty"`
}

// explain writes the explanation of every record of the dump r, in
// dump order, as the fold that builds the tables classifies it. A line
// that is not a complete record stops it with the fold's error, after
// the lines before it are written.
func explain(w io.Writer, r io.Reader, now time.Time) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	_, _, err := report.NewAggregate().Fold(r, now, func(_ int, res *classify.Result) error {
		return enc.Encode(explain1(res))
	})
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	return err
}

// explain1 is the explanation of one classification. An unresolved zone
// has a status only: it is in no figure or table.
func explain1(res *classify.Result) explanation {
	e := explanation{Zone: res.Zone, Status: res.Status.String(), Parent: res.Parent}
	if res.Status == classify.StatusUnresolved {
		return e
	}
	e.Bucket, e.CDS = res.Bucket.String(), &res.CDS
	e.Operator, e.MultiOperator = res.Operator.Operator, res.Operator.MultiOperator
	e.Rung, e.Violations = rung(res.Signal), res.Signal.Violations
	return e
}

// rung names the Table 3 rung a zone whose signals were probed landed
// on; "" when they were not.
func rung(s classify.SignalInfo) string {
	switch {
	case !s.Probed:
		return ""
	case !s.HasSignal:
		return "no signal"
	case s.AlreadySecured:
		return "already secured"
	case s.DeletionRequest:
		return "deletion request"
	case s.InvalidDNSSEC:
		return "invalid dnssec"
	case s.Correct:
		return "correct"
	default:
		return "violations"
	}
}

// summarizeTrace round-trips a -trace-out artefact through the trace
// reader and prints how many exchanges ended in each rcode, or in an
// error. Any malformed line is fatal, so CI can use this as a format
// check.
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
	exchanges := 0
	zones := make(map[string]bool)
	byOutcome := make(map[string]int)
	err := obs.ReadTrace(f, func(ev obs.TraceEvent) error {
		exchanges++
		zones[ev.Zone] = true
		if ev.Err != "" {
			byOutcome["error"]++
		} else {
			byOutcome[ev.Rcode]++
		}
		return nil
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("trace: %d exchanges across %d zones\n", exchanges, len(zones))
	outcomes := make([]string, 0, len(byOutcome))
	for k := range byOutcome {
		outcomes = append(outcomes, k)
	}
	sort.Strings(outcomes)
	for _, k := range outcomes {
		fmt.Printf("  %-10s %d\n", k, byOutcome[k])
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "reanalyze:", err)
	os.Exit(1)
}
