//go:build !race

// Retained-state guard for the scan. Excluded under the race detector,
// whose instrumentation inflates heap usage.
package core

import (
	"context"
	"runtime"
	"testing"

	"dnssecboot/internal/classify"
	"dnssecboot/internal/ecosystem"
	"dnssecboot/internal/scan"
)

// maxRetainedPerZone bounds what a scan keeps live above the world,
// per zone scanned, at its last zone.
const maxRetainedPerZone = 32

// TestScanRetainsLittle: what a scan holds at its last zone, after a
// forced GC, above the world it scans. A first pass warms the world:
// signatures are made on first read and kept by their zones, which is
// world state. A second scan of the same world then forces a GC at its
// last zone; the live heap then exceeds the warm world's by the scan's
// retained state alone — caches, denial store, tallies, the reorder
// window — which must stay within maxRetainedPerZone bytes per zone.
// What RSS shows above the world at peak is GC headroom and floating
// garbage, not this.
func TestScanRetainsLittle(t *testing.T) {
	if testing.Short() {
		t.Skip("scale 20000 is skipped under -short")
	}
	world, err := ecosystem.Generate(ecosystem.Config{Seed: 1, ScaleDivisor: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	opts := StreamOptions{Options: Options{Seed: 1, World: world, Concurrency: 4}}
	if _, err := RunStream(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	worldHeap := liveHeap()
	zones := len(world.Targets)
	var atLast uint64
	opts.Sink = func(index int, _ *scan.ZoneObservation, _ *classify.Result) error {
		if index == zones-1 {
			atLast = liveHeap()
		}
		return nil
	}
	if _, err := RunStream(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(world)
	perZone := (float64(atLast) - float64(worldHeap)) / float64(zones)
	t.Logf("%d zones: world %.1f MB live, the scan %.0f B per zone above it at its last zone",
		zones, float64(worldHeap)/(1<<20), perZone)
	if perZone > maxRetainedPerZone {
		t.Errorf("scan retains %.0f B per zone above the world, budget %d", perZone, maxRetainedPerZone)
	}
}

// liveHeap returns the heap's live bytes after two full collections:
// the second frees what sync.Pools kept through the first.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
