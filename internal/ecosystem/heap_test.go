//go:build !race

// Memory guard for the generated world. Excluded under the race
// detector, whose instrumentation inflates heap usage.
package ecosystem

import (
	"runtime"
	"testing"
)

// TestWorldHeapBudget bounds what the in-memory world costs to hold:
// the live heap right after Generate at scale 20000, per scan target.
// The world's zones dominate it, so this pins the zone store's
// footprint — bytes and heap objects, the latter being what a GC mark
// has to walk.
func TestWorldHeapBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("scale 20000 is skipped under -short")
	}
	const (
		maxBytesPerZone   = 1100
		maxObjectsPerZone = 11
	)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	w, err := Generate(Config{Seed: 1, ScaleDivisor: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	zones := float64(len(w.Targets))
	runtime.KeepAlive(w)

	bytesPerZone := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / zones
	objectsPerZone := float64(int64(after.HeapObjects)-int64(before.HeapObjects)) / zones
	t.Logf("%.0f zones: %.0f B and %.1f heap objects live per zone", zones, bytesPerZone, objectsPerZone)
	if bytesPerZone > maxBytesPerZone {
		t.Errorf("world holds %.0f B per zone, budget %d", bytesPerZone, maxBytesPerZone)
	}
	if objectsPerZone > maxObjectsPerZone {
		t.Errorf("world holds %.1f heap objects per zone, budget %d", objectsPerZone, maxObjectsPerZone)
	}
}

// TestGenerateAllocBudget bounds what Generate allocates at scale 20000
// per scan target, bytes and heap objects, live or not: each zone is
// built once, from its records in one step, and signed in one pass, so
// a change that copies zones again shows here before it shows as GC
// time.
func TestGenerateAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("scale 20000 is skipped under -short")
	}
	const (
		maxBytesPerZone   = 1530
		maxObjectsPerZone = 13
	)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	w, err := Generate(Config{Seed: 1, ScaleDivisor: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	zones := float64(len(w.Targets))
	bytesPerZone := float64(after.TotalAlloc-before.TotalAlloc) / zones
	objectsPerZone := float64(after.Mallocs-before.Mallocs) / zones
	t.Logf("%.0f zones: Generate allocates %.0f B and %.1f heap objects per zone", zones, bytesPerZone, objectsPerZone)
	if bytesPerZone > maxBytesPerZone {
		t.Errorf("Generate allocates %.0f B per zone, budget %d", bytesPerZone, maxBytesPerZone)
	}
	if objectsPerZone > maxObjectsPerZone {
		t.Errorf("Generate allocates %.1f heap objects per zone, budget %d", objectsPerZone, maxObjectsPerZone)
	}
}
