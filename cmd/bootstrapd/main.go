// Command bootstrapd plays the registry side of RFC 9615: it generates
// the synthetic ecosystem, walks every delegation that shows
// Authenticated-Bootstrapping signals, runs the full acceptance
// algorithm, and installs DS records for the zones that qualify —
// exactly what .ch/.li/.swiss do in production. It then re-scans and
// reports how the DNSSEC population changed.
//
// Usage:
//
//	bootstrapd [-scale 20000] [-seed 1] [-dry-run]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"

	"dnssecboot/internal/bootstrap"
	"dnssecboot/internal/classify"
	"dnssecboot/internal/core"
	"dnssecboot/internal/ecosystem"
)

func main() {
	var (
		seed   = flag.Int64("seed", 1, "world seed")
		scale  = flag.Int("scale", 20000, "population scale divisor")
		dryRun = flag.Bool("dry-run", false, "evaluate without installing DS records")
	)
	flag.Parse()

	world, err := ecosystem.Generate(ecosystem.Config{Seed: *seed, ScaleDivisor: *scale})
	if err != nil {
		fatal(err)
	}
	ctx := context.Background()

	// Pass 1: measure, using the registry short-circuit from Appendix D.
	before, err := core.Run(ctx, core.Options{
		Seed: *seed, World: world,
		Concurrency:          runtime.NumCPU(),
		SignalOnlyCandidates: true,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println("before bootstrapping:")
	fmt.Println(before.Report.Headline())

	// Pass 2: run the RFC 9615 registry over every signal-bearing
	// island.
	scanner := core.NewScanner(world, core.Options{Seed: *seed})
	installed, rejected := 0, 0
	reasons := map[string]int{}
	for _, r := range before.Results {
		if !r.Signal.Potential {
			continue
		}
		truth := world.Truth[r.Zone]
		reg := &bootstrap.Registry{
			Parent:  world.TLDZone(truth.TLD),
			Scanner: scanner,
			Now:     world.Now,
			DryRun:  *dryRun,
		}
		d, err := reg.Bootstrap(ctx, r.Zone)
		if err != nil {
			fatal(err)
		}
		if d.Eligible {
			installed++
		} else {
			rejected++
			for _, reason := range d.Reasons {
				reasons[trim(reason)]++
			}
		}
	}
	fmt.Printf("\nregistry processed %d candidate zones: %d bootstrapped, %d rejected\n",
		installed+rejected, installed, rejected)
	var keys []string
	for k := range reasons {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %4d × %s\n", reasons[k], k)
	}
	if *dryRun {
		return
	}

	// Pass 3: re-measure. The bootstrapped islands are now secured.
	after, err := core.Run(ctx, core.Options{Seed: *seed, World: world})
	if err != nil {
		fatal(err)
	}
	fmt.Println("\nafter bootstrapping:")
	fmt.Println(after.Report.Headline())
	deltaSecured := after.Report.ByStatus[classify.StatusSecured] - before.Report.ByStatus[classify.StatusSecured]
	fmt.Printf("secured zones grew by %d (islands completed via RFC 9615)\n", deltaSecured)
}

// trim normalises per-zone details out of a rejection reason so they
// aggregate: a parenthesised detail goes (the address in "nameserver
// ns1.example. (192.0.2.1) failed the CDS query"), and so does
// everything after a colon (an error's text).
func trim(reason string) string {
	if before, rest, ok := strings.Cut(reason, " ("); ok {
		_, after, _ := strings.Cut(rest, ")")
		reason = before + after
	}
	reason, _, _ = strings.Cut(reason, ":")
	return reason
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bootstrapd:", err)
	os.Exit(1)
}
