//go:build !race

// Memory-budget guard for the streaming ingest path. Excluded under
// the race detector, whose instrumentation inflates heap usage.
package ingest

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dnssecboot/internal/zone"
)

// syntheticDump renders n delegations under "test." with periodic glue
// and non-NS clutter — big enough (~10 MB at 150k records) that
// buffering it as parsed records visibly dwarfs the streaming window.
func syntheticDump(n int) string {
	var sb strings.Builder
	sb.Grow(n * 70)
	sb.WriteString("$ORIGIN test.\n$TTL 3600\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "zone%06d.test. IN NS ns%d.hoster%03d.test.\n", i, i%4+1, i%97)
		if i%5 == 0 {
			fmt.Fprintf(&sb, "ns1.hoster%03d.test. IN A 192.0.2.%d\n", i%97, i%250+1)
		}
		if i%50 == 0 {
			fmt.Fprintf(&sb, "zone%06d.test. IN TXT \"v=spf1 -all\"\n", i)
		}
	}
	return sb.String()
}

// peakHeap runs fn while a sampler goroutine tracks the high-water
// HeapAlloc, and returns that peak relative to the baseline at entry.
func peakHeap(fn func()) uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc

	var peak atomic.Uint64
	done := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			runtime.ReadMemStats(&ms)
			if h := ms.HeapAlloc; h > peak.Load() {
				peak.Store(h)
			}
			select {
			case <-done:
				return
			case <-time.After(200 * time.Microsecond):
			}
		}
	}()
	fn()
	close(done)
	<-sampled
	if p := peak.Load(); p > base {
		return p - base
	}
	return 0
}

// TestIngestPeakHeapBudget pins the constant-memory claim: streaming a
// ~150k-record dump through the full pipeline must peak at under 2x the
// heap of the plain buffer-everything zone.Parse of the same input. The
// streaming peak is not a small fraction of the parse peak — the dedup
// set, the batch window and the garbage made between collections all
// count: on a 2-vCPU box it measured 33.3–34.1 MB against 45.0 MB
// (0.75x).
func TestIngestPeakHeapBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hundred-MB allocation churn in -short mode")
	}
	dump := syntheticDump(150_000)

	var parsed *zone.Zone
	parsePeak := peakHeap(func() {
		z, err := zone.Parse(strings.NewReader(dump), "test.")
		if err != nil {
			t.Errorf("zone.Parse: %v", err)
		}
		parsed = z
	})
	if t.Failed() {
		t.FailNow()
	}
	runtime.KeepAlive(parsed)
	parsed = nil

	var res *Result
	ingestPeak := peakHeap(func() {
		withProcs(4, func() {
			r, err := Ingest(context.Background(), strings.NewReader(dump), Config{})
			if err != nil {
				t.Errorf("Ingest: %v", err)
			}
			res = r
		})
	})
	if t.Failed() {
		t.FailNow()
	}
	if res.Stats.Targets != 150_000 {
		t.Fatalf("targets = %d, want 150000", res.Stats.Targets)
	}

	t.Logf("peak heap: ingest %.1f MB vs buffered parse %.1f MB",
		float64(ingestPeak)/1e6, float64(parsePeak)/1e6)
	if ingestPeak >= 2*parsePeak {
		t.Errorf("ingest peak heap %d B >= 2x buffered parse peak %d B", ingestPeak, parsePeak)
	}
}
