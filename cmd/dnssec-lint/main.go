// Command dnssec-lint runs the repo's static-analysis suite (see
// internal/lint and docs/LINTS.md) over the module. Findings print as
// "file:line: [check] message" — or as JSONL objects
// {file,line,check,msg} under -json — and any finding exits nonzero,
// so the command gates CI:
//
//	go run ./cmd/dnssec-lint ./...
//	go run ./cmd/dnssec-lint -json -checks poollife,lockdiscipline ./...
package main

import (
	"flag"
	"fmt"
	"os"

	"dnssecboot/internal/lint"
)

func main() {
	quiet := flag.Bool("q", false, "suppress the ok summary line")
	asJSON := flag.Bool("json", false, "emit findings as JSONL objects {file,line,check,msg}")
	checks := flag.String("checks", "", "comma-separated subset of checks to report (default: all)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: dnssec-lint [-q] [-json] [-checks a,b] [packages]\n\npackages default to ./... relative to the module root\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	var keep map[string]bool
	if *checks != "" {
		var err error
		if keep, err = lint.ParseCheckList(*checks); err != nil {
			fatal(err)
		}
	}

	res, err := lint.Analyze(".", flag.Args())
	if err != nil {
		fatal(err)
	}
	res.Filter(keep)
	for _, f := range res.Findings {
		if *asJSON {
			line, err := f.JSONLine()
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%s\n", line)
			continue
		}
		fmt.Println(f)
	}
	if len(res.Findings) > 0 {
		fmt.Fprintf(os.Stderr, "dnssec-lint: %d finding(s) in %d package(s)\n", len(res.Findings), res.Packages)
		os.Exit(1)
	}
	if !*quiet && !*asJSON {
		fmt.Printf("dnssec-lint: ok (%d packages, 0 findings)\n", res.Packages)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
