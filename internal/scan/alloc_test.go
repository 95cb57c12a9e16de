//go:build !race

// Allocation-regression guard for the streaming scan, beside the exact
// codec and resolver budgets in internal/dnswire and internal/resolver.
// Excluded under the race detector, whose instrumentation inflates
// allocation counts.
package scan_test

import (
	"context"
	"testing"

	"dnssecboot/internal/core"
	"dnssecboot/internal/ecosystem"
	"dnssecboot/internal/scan"
)

// TestScanStreamAllocBudget pins the allocations of one ScanStream over
// the 512-zone prefix of the scale-20000 seed-1 world. A stream through
// a warm scanner measures about 107 400 (≈ 210 per zone: observations,
// RRset slices, response messages); the ceiling leaves headroom for noise
// but not for a reintroduced per-message allocation in the codec or the
// resolver, which costs 10 exchanges × 512 zones at a time.
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
	if avg > 250_000 {
		t.Errorf("ScanStream allocates %.0f per %d-zone stream, budget 250000", avg, len(targets))
	}
}
