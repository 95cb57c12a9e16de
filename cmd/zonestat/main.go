// Command zonestat inspects zone dumps through the streaming ingest
// pipeline without scanning anything: it prints, as JSON, exactly what
// dnssec-scan -zonefile would reduce the dump to — record and line
// counts, the per-reason skip tallies, and the number of registrable
// scan targets — so an operator can audit a CZDS download before
// committing query budget to it.
//
// Usage:
//
//	zonestat [-origin tld.] [-strict] [-targets-out file] dump.zone[.gz]...
//
// One JSON object is printed per input file, one per line. Every field
// is a deterministic function of the input bytes and flags (timing goes
// to stderr), so the output is byte-stable and diffable in CI.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"dnssecboot/internal/ingest"
)

func main() {
	var (
		origin     = flag.String("origin", "", "apex of the dump (default: autodetect from $ORIGIN or the first SOA)")
		strict     = flag.Bool("strict", false, "abort on the first malformed record instead of counting and skipping it")
		targetsOut = flag.String("targets-out", "", "write the reduced target list (one registrable name per line) to this file")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: zonestat [flags] dump.zone[.gz]...")
		os.Exit(2)
	}

	var targetsFile *os.File
	if *targetsOut != "" {
		f, err := os.Create(*targetsOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "zonestat: %v\n", err)
			os.Exit(1)
		}
		targetsFile = f
	}

	enc := json.NewEncoder(os.Stdout)
	for _, path := range flag.Args() {
		start := time.Now()
		res, err := ingest.File(context.Background(), path, ingest.Config{
			Origin: *origin,
			Strict: *strict,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "zonestat: %s: %v\n", path, err)
			os.Exit(1)
		}
		elapsed := time.Since(start)

		if err := enc.Encode(struct {
			File string `json:"file"`
			ingest.Stats
		}{File: path, Stats: res.Stats}); err != nil {
			fmt.Fprintf(os.Stderr, "zonestat: %v\n", err)
			os.Exit(1)
		}
		rps := float64(res.Stats.Records) / elapsed.Seconds()
		fmt.Fprintf(os.Stderr, "%s: %d records -> %d targets in %v (%.0f records/s)\n",
			path, res.Stats.Records, res.Stats.Targets, elapsed.Round(time.Millisecond), rps)

		if targetsFile != nil {
			for _, t := range res.Targets {
				if _, err := fmt.Fprintln(targetsFile, t); err != nil {
					fmt.Fprintf(os.Stderr, "zonestat: %v\n", err)
					os.Exit(1)
				}
			}
		}
	}
	if targetsFile != nil {
		if err := targetsFile.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "zonestat: %v\n", err)
			os.Exit(1)
		}
	}
}
