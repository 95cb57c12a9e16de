package core

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"dnssecboot/internal/classify"
	"dnssecboot/internal/ecosystem"
	"dnssecboot/internal/report"
	"dnssecboot/internal/scan"
)

// TestScanSurvivesPacketLoss injects heavy packet loss into the
// simulated network and checks the pipeline degrades gracefully: no
// panics, no bogus classifications, failures surface as unresolved
// zones or failed per-NS outcomes.
func TestScanSurvivesPacketLoss(t *testing.T) {
	world, err := ecosystem.Generate(ecosystem.Config{Seed: 21, ScaleDivisor: 400_000})
	if err != nil {
		t.Fatal(err)
	}
	study, err := Run(context.Background(), Options{Seed: 21, World: world, LossRate: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	unresolved, resolved := 0, 0
	for _, r := range study.Results {
		if r.Status == classify.StatusUnresolved {
			unresolved++
			continue
		}
		resolved++
	}
	if resolved == 0 {
		t.Fatal("nothing resolved under 25% loss")
	}
	// With retries at the queryAny level most zones should still make
	// it; the point is that failures are contained, not that they are
	// absent.
	t.Logf("under 25%% loss: %d resolved, %d unresolved", resolved, unresolved)
	if unresolved == 0 {
		t.Log("note: loss fully absorbed by retries at this scale")
	}
}

// TestLossLeavesWorldUnchanged: a scanner built with packet loss
// injects it into its own exchanges only, so a later lossless run on
// the same world reads the headline of a fresh world.
func TestLossLeavesWorldUnchanged(t *testing.T) {
	headline := func(world *ecosystem.Ecosystem) string {
		study, err := Run(context.Background(), Options{Seed: 1, World: world})
		if err != nil {
			t.Fatal(err)
		}
		return study.Report.Headline()
	}
	generate := func() *ecosystem.Ecosystem {
		world, err := ecosystem.Generate(ecosystem.Config{Seed: 1, ScaleDivisor: 500_000})
		if err != nil {
			t.Fatal(err)
		}
		return world
	}
	world := generate()
	NewScanner(world, Options{Seed: 1, LossRate: 1})
	if got, want := headline(world), headline(generate()); got != want {
		t.Errorf("a lossy scanner changed the world; headline after it:\n%s\nfresh world:\n%s", got, want)
	}
}

// TestScanSurvivesTotalLossOfOneOperator blackholes one operator's
// servers entirely: its zones must classify as unresolved while the
// rest of the population is unaffected.
func TestScanSurvivesTotalLossOfOneOperator(t *testing.T) {
	world, err := ecosystem.Generate(ecosystem.Config{Seed: 22, ScaleDivisor: 400_000})
	if err != nil {
		t.Fatal(err)
	}
	// GoDaddy's two NS addresses are deterministic; unregister them.
	srv := world.OperatorServer("GoDaddy")
	if srv == nil {
		t.Fatal("no GoDaddy infra")
	}
	blackholed := 0
	for _, tr := range world.Truth {
		if tr.Operator == "GoDaddy" {
			blackholed++
		}
	}
	if blackholed == 0 {
		t.Skip("no GoDaddy zones at this scale")
	}
	// Blackhole by making the server drop everything.
	srv.Behavior.DropRate = 1.0

	study, err := Run(context.Background(), Options{Seed: 22, World: world})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range study.Results {
		tr := study.World.Truth[r.Zone]
		if tr.Operator == "GoDaddy" {
			if r.Status != classify.StatusUnresolved {
				t.Errorf("%s resolved despite blackholed operator (status %s)", r.Zone, r.Status)
			}
		} else if tr.Operator == "Cloudflare" && r.Status == classify.StatusUnresolved {
			t.Errorf("%s unresolved though its operator is healthy", r.Zone)
		}
	}
}

// TestPopulationShares checks the generated world reproduces the
// paper's §4.1 proportions at a moderate scale.
func TestPopulationShares(t *testing.T) {
	if testing.Short() {
		t.Skip("moderate-scale generation")
	}
	study, err := Run(context.Background(), Options{Seed: 1, ScaleDivisor: 50_000, Concurrency: 16})
	if err != nil {
		t.Fatal(err)
	}
	res := study.Report.Resolved()
	share := func(s classify.Status) float64 {
		return 100 * float64(study.Report.ByStatus[s]) / float64(res)
	}
	if got := share(classify.StatusUnsigned); got < 90 || got > 95 {
		t.Errorf("unsigned share = %.1f%%, paper 93.2%%", got)
	}
	if got := share(classify.StatusSecured); got < 4 || got > 8 {
		t.Errorf("secured share = %.1f%%, paper 5.5%%", got)
	}
	if got := share(classify.StatusIsland); got < 0.8 || got > 4 {
		t.Errorf("island share = %.1f%%, paper 1.1%%", got)
	}
	if got := share(classify.StatusInvalid); got < 0.1 || got > 1.5 {
		t.Errorf("invalid share = %.1f%%, paper 0.2%%", got)
	}
	// The per-operator delete-island concentration (§4.2: 96.7 % on
	// Cloudflare).
	cf := study.Report.Operators["Cloudflare"]
	if cf == nil || cf.DeleteIslands == 0 {
		t.Fatal("no Cloudflare delete islands")
	}
	// At moderate scales min-one flooring inflates the other operators'
	// single delete islands, so assert the plurality rather than the
	// paper's 96.7 % share (which TestScale smoke runs confirm at
	// larger populations).
	for name, s := range study.Report.Operators {
		if name != "Cloudflare" && s.DeleteIslands >= cf.DeleteIslands {
			t.Errorf("%s has %d delete islands, ≥ Cloudflare's %d", name, s.DeleteIslands, cf.DeleteIslands)
		}
	}
}

// TestCoordinatedMultiSigner checks that RFC 8901 multi-signer setups
// that DO coordinate their CDS are classified as bootstrap-eligible
// (and flagged multi-operator), unlike the uncoordinated majority.
func TestCoordinatedMultiSigner(t *testing.T) {
	world, err := ecosystem.Generate(ecosystem.Config{Seed: 31, ScaleDivisor: 400_000})
	if err != nil {
		t.Fatal(err)
	}
	study, err := Run(context.Background(), Options{Seed: 31, World: world})
	if err != nil {
		t.Fatal(err)
	}
	foundGood, foundBad := false, false
	for _, r := range study.Results {
		tr := world.Truth[r.Zone]
		if tr.Spec.MultiOperator == "" || tr.Spec.State != ecosystem.StateIsland || tr.Spec.Signal {
			continue
		}
		if tr.Spec.CDSInconsistent {
			foundBad = true
			if r.Bucket != classify.PotentialIslandInvalidCDS {
				t.Errorf("%s: uncoordinated multi-signer bucket = %s", r.Zone, r.Bucket)
			}
			if !r.Operator.MultiOperator {
				t.Errorf("%s: multi-operator not identified", r.Zone)
			}
		} else {
			foundGood = true
			if r.Bucket != classify.PotentialBootstrap {
				t.Errorf("%s: coordinated multi-signer bucket = %s (CDS %+v)", r.Zone, r.Bucket, r.CDS)
			}
			if !r.Operator.MultiOperator {
				t.Errorf("%s: multi-operator not identified", r.Zone)
			}
		}
	}
	if !foundGood || !foundBad {
		t.Fatalf("fixtures missing: good=%v bad=%v", foundGood, foundBad)
	}
}

// TestOfflineReanalysisMatchesLive locks in the equality resume and the
// shard merge rest on: at every 64th record boundary of a streaming run,
// the fold of the dump's prefix renders every artefact and CSV series
// exactly as the live accumulator did at that point, and so does the
// fold of the whole dump at the end.
func TestOfflineReanalysisMatchesLive(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"scale 300000", Options{Seed: 3, ScaleDivisor: 300_000, Concurrency: 8}},
		{"scale 20000", Options{Seed: 1, ScaleDivisor: 20_000}},
		{"scale 20000 under loss", Options{Seed: 1, ScaleDivisor: 20_000, LossRate: 0.1, RetryAttempts: 3}},
	} {
		live := report.NewAggregate()
		var dump bytes.Buffer
		jw := scan.NewJSONLWriter(&dump)
		var snapshots []string
		study, err := RunStream(context.Background(), StreamOptions{
			Options: tc.opts,
			Resume:  live,
			Sink: func(i int, zo *scan.ZoneObservation, _ *classify.Result) error {
				if (i+1)%64 == 0 {
					snapshots = append(snapshots, renderAll(t, live))
				}
				return jw.Write(zo)
			},
		})
		if err == nil {
			err = jw.Flush()
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		snapshots = append(snapshots, renderAll(t, live))

		offline := report.NewAggregate()
		records, _, err := offline.Fold(&dump, study.World.Now, func(k int, _ *classify.Result) error {
			if k > 0 && k%64 == 0 {
				if got, want := renderAll(t, offline), snapshots[k/64-1]; got != want {
					return fmt.Errorf("the fold of %d records diverged from the live accumulator:\nlive:\n%s\noffline:\n%s", k, want, got)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if records != study.TotalZones {
			t.Fatalf("%s: the fold read %d records, the scan wrote %d", tc.name, records, study.TotalZones)
		}
		if got, want := renderAll(t, offline), snapshots[len(snapshots)-1]; got != want {
			t.Errorf("%s: the fold of the whole dump diverged:\nlive:\n%s\noffline:\n%s", tc.name, want, got)
		}
	}
}

// renderAll is every artefact -out all prints, queries included, then
// the four CSV series.
func renderAll(t *testing.T, a *report.Aggregate) string {
	t.Helper()
	var b bytes.Buffer
	if err := a.WriteArtefact(&b, "all"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"table1", "table2", "table3", "figure1"} {
		if err := a.WriteCSV(&b, name); err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}
