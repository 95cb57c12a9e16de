//go:build !race

// Allocation-regression guard for the streaming scan, beside the exact
// codec and resolver budgets in internal/dnswire and internal/resolver.
// Excluded under the race detector, whose instrumentation inflates
// allocation counts.
package scan_test

import (
	"context"
	"io"
	"testing"

	"dnssecboot/internal/core"
	"dnssecboot/internal/ecosystem"
	"dnssecboot/internal/scan"
)

// TestScanStreamAllocBudget pins the allocations of one ScanStream over
// the 512-zone prefix of the scale-20000 seed-1 world. A stream through
// a warm scanner measures 18 180–18 580 (≈ 36 per zone: observations,
// RRset slices, one allocation per decoded response plus its RDATA; the
// server answers into a reused reply, and singleflight calls, chain
// contexts, validated denials and signature checks allocate nothing or
// one buffer); the ceiling, 15 % above that, leaves headroom for noise
// but not for a reintroduced per-message allocation in the codec, the
// server or the resolver, which costs about 8 exchanges × 512 zones at
// a time.
func TestScanStreamAllocBudget(t *testing.T) {
	world, err := ecosystem.Generate(ecosystem.Config{Seed: 1, ScaleDivisor: 20000})
	if err != nil {
		t.Fatal(err)
	}
	scanner := core.NewScanner(world, core.Options{Seed: 2, Concurrency: 16})
	targets := world.Targets[:512]
	// AllocsPerRun's own warm-up call fills the resolver cache and pools.
	avg := testing.AllocsPerRun(3, func() {
		res, err := scanner.ScanStream(context.Background(), targets, scan.StreamOptions{})
		if err != nil || res.Next != len(targets) {
			t.Fatalf("stream stopped at %d/%d: %v", res.Next, len(targets), err)
		}
	})
	t.Logf("ScanStream over %d zones: %.0f allocations", len(targets), avg)
	if avg > 21_400 {
		t.Errorf("ScanStream allocates %.0f per %d-zone stream, budget 21400", avg, len(targets))
	}
}

// TestJSONLWriteAllocBudget pins the export of those 512 observations:
// once its line buffers have grown, JSONLWriter.Write appends every
// member and record in place and allocates nothing per record.
func TestJSONLWriteAllocBudget(t *testing.T) {
	world, err := ecosystem.Generate(ecosystem.Config{Seed: 1, ScaleDivisor: 20000})
	if err != nil {
		t.Fatal(err)
	}
	scanner := core.NewScanner(world, core.Options{Seed: 2, Concurrency: 16})
	var observations []*scan.ZoneObservation
	_, err = scanner.ScanStream(context.Background(), world.Targets[:512], scan.StreamOptions{
		Sink: func(_ int, o *scan.ZoneObservation) error {
			observations = append(observations, o)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	jw := scan.NewJSONLWriter(io.Discard)
	avg := testing.AllocsPerRun(3, func() {
		for _, o := range observations {
			if err := jw.Write(o); err != nil {
				t.Fatal(err)
			}
		}
	})
	perRecord := avg / float64(len(observations))
	t.Logf("JSONLWriter.Write over %d records: %.3f allocations per record", len(observations), perRecord)
	if perRecord > 0.05 {
		t.Errorf("JSONLWriter.Write allocates %.3f per record, budget 0.05", perRecord)
	}
}
