// Chaos regression suite: the scan's classifications must be invariant
// under injected packet loss when the retry policy is enabled. Each run
// scans a freshly generated small world at a given loss rate and
// compares the full artefact set (headline, Figure 1, Tables 1–3, the
// CDS findings) byte-for-byte against the lossless run. Query counters
// are deliberately excluded — retries *should* move those.
package scan_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"dnssecboot/internal/core"
	"dnssecboot/internal/ecosystem"
	"dnssecboot/internal/scan"
)

// chaosScale keeps the chaos worlds small enough that three sequential
// scans stay fast: the paper's populations divided by 500k, a few
// hundred zones.
const chaosScale = 500_000

type chaosOutcome struct {
	artefacts string // classification-bearing artefacts, concatenated
	queries   int64
	retries   int64
	gaveUp    int64
}

// chaosRun generates a fresh world and scans it under the given fault
// configuration. Concurrency is 1: the per-tuple fault sequences are
// deterministic on their own, but shared retry/health state makes raw
// query *counts* depend on goroutine interleaving, and the
// determinism assertions below compare exact counts.
func chaosRun(t *testing.T, loss float64, retryAttempts int, chaosSeed int64) chaosOutcome {
	t.Helper()
	return chaosRunOpts(t, core.Options{
		Seed:          3,
		ScaleDivisor:  chaosScale,
		Concurrency:   1,
		LossRate:      loss,
		RetryAttempts: retryAttempts,
		ChaosSeed:     chaosSeed,
	})
}

// chaosRunOpts is chaosRun with full control over the study options.
func chaosRunOpts(t *testing.T, opts core.Options) chaosOutcome {
	t.Helper()
	study, err := core.Run(context.Background(), opts)
	if err != nil {
		t.Fatalf("chaos run (%+v): %v", opts, err)
	}
	r := study.Report
	return chaosOutcome{
		artefacts: classificationArtefacts(r),
		queries:   r.Queries,
		retries:   r.Retries,
		gaveUp:    r.GaveUp,
	}
}

// chaosRetries gives each exchange 8 attempts: at 10 % loss the chance
// of a query failing all of them is 1e-8, far below one expected
// misclassification across the suite's few thousand exchanges.
const chaosRetries = 8

func TestChaosClassificationLossInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("three full scans")
	}
	baseline := chaosRun(t, 0, chaosRetries, 42)
	if baseline.retries != 0 || baseline.gaveUp != 0 {
		t.Fatalf("lossless run retried (%d) or gave up (%d) — ecosystem failures should be deterministic",
			baseline.retries, baseline.gaveUp)
	}
	for _, loss := range []float64{0.02, 0.10} {
		lossy := chaosRun(t, loss, chaosRetries, 42)
		if lossy.artefacts != baseline.artefacts {
			t.Errorf("loss=%g: classification artefacts diverged from the lossless run\n%s",
				loss, firstDiff(baseline.artefacts, lossy.artefacts))
		}
		// Non-vacuity: the fault layer must actually have been biting.
		if lossy.retries == 0 {
			t.Errorf("loss=%g: no retries recorded — loss was not injected", loss)
		}
		if lossy.queries <= baseline.queries {
			t.Errorf("loss=%g: %d queries vs lossless %d — retries should cost queries",
				loss, lossy.queries, baseline.queries)
		}
	}
}

// TestChaosRequiresRetries is the negative control: with the retry
// policy disabled the same 10 % loss must visibly corrupt the
// classifications, proving the invariance above is earned by the retry
// engine rather than by the suite comparing too little.
func TestChaosRequiresRetries(t *testing.T) {
	if testing.Short() {
		t.Skip("two full scans")
	}
	baseline := chaosRun(t, 0, 1, 42)
	lossy := chaosRun(t, 0.10, 1, 42)
	if lossy.artefacts == baseline.artefacts {
		t.Error("10% loss without retries left every artefact identical — fault injection is not reaching the scan")
	}
}

func TestChaosDeterministicUnderSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("two full scans")
	}
	a := chaosRun(t, 0.10, chaosRetries, 7)
	b := chaosRun(t, 0.10, chaosRetries, 7)
	if a.queries != b.queries || a.retries != b.retries || a.gaveUp != b.gaveUp {
		t.Errorf("identical chaos seeds diverged: queries %d/%d retries %d/%d gaveUp %d/%d",
			a.queries, b.queries, a.retries, b.retries, a.gaveUp, b.gaveUp)
	}
	if a.artefacts != b.artefacts {
		t.Error("identical chaos seeds produced different artefacts")
	}
	// A different chaos seed reshuffles which packets drop (different
	// retry totals) without touching the conclusions.
	c := chaosRun(t, 0.10, chaosRetries, 8)
	if c.artefacts != a.artefacts {
		t.Error("chaos seed changed the classifications, not just the fault pattern")
	}
	if c.queries == a.queries && c.retries == a.retries {
		t.Error("different chaos seeds produced the identical query accounting — seed unused?")
	}
}

// TestChaosCacheInvariant proves the shared cache is an optimisation,
// not a behaviour change: a scan through one scanner and a scan that
// gives every zone a fresh scanner (a cold cache, nothing shared — the
// isolation a fresh Resolver means) must render byte-identical
// classification artefacts — both on a clean network and under loss
// with retries — while the shared scanner must issue measurably fewer
// queries (non-vacuity).
func TestChaosCacheInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("four full scans")
	}
	for _, tc := range []struct {
		name          string
		loss          float64
		retryAttempts int
	}{
		{"lossless", 0, 1},
		{"lossy", 0.05, chaosRetries},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := core.Options{
				Seed:          3,
				ScaleDivisor:  chaosScale,
				Concurrency:   1,
				LossRate:      tc.loss,
				RetryAttempts: tc.retryAttempts,
				ChaosSeed:     42,
			}
			cached := chaosRunOpts(t, opts)

			world, err := ecosystem.Generate(ecosystem.Config{Seed: opts.Seed, ScaleDivisor: opts.ScaleDivisor})
			if err != nil {
				t.Fatal(err)
			}
			fresh := make([]*scan.ZoneObservation, 0, len(world.Targets))
			var freshQueries int64
			for _, zoneName := range world.Targets {
				zo := core.NewScanner(world, opts).ScanZone(context.Background(), zoneName)
				freshQueries += zo.Queries
				fresh = append(fresh, zo)
			}
			freshArts := classificationArtefacts(classifyEach(world.Now, fresh))
			if cached.artefacts != freshArts {
				t.Errorf("cache changed the classifications\n%s", firstDiff(freshArts, cached.artefacts))
			}
			if cached.queries >= freshQueries {
				t.Errorf("shared scanner used %d queries vs %d with a fresh scanner per zone — cache not biting",
					cached.queries, freshQueries)
			}
		})
	}
}

// firstDiff renders the first differing line of two artefact dumps.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  lossless: %s\n  lossy:    %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}
