package core

import (
	"bytes"
	"context"
	"io"
	"strings"
	"testing"

	"dnssecboot/internal/classify"
	"dnssecboot/internal/ecosystem"
	"dnssecboot/internal/obs"
	"dnssecboot/internal/scan"
)

// TestTraceZoneIslandDecisionTrace is the acceptance fixture for
// -trace-zone: tracing a known secure island must yield a decision
// trace that names the parent zone, records the missing DS at the
// parent, and carries the final classification decision.
func TestTraceZoneIslandDecisionTrace(t *testing.T) {
	world, err := ecosystem.Generate(ecosystem.Config{Seed: 7, ScaleDivisor: 300_000})
	if err != nil {
		t.Fatal(err)
	}
	island := ""
	for z, tr := range world.Truth {
		if tr.Spec.State == ecosystem.StateIsland {
			island = z
			break
		}
	}
	if island == "" {
		t.Fatal("no island zone at this scale")
	}

	var buf bytes.Buffer
	tracer := obs.NewTracer(&buf, island)
	if _, err := Run(context.Background(), Options{Seed: 7, World: world, Tracer: tracer}); err != nil {
		t.Fatal(err)
	}
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadTrace(&buf)
	if err != nil {
		t.Fatalf("trace does not round-trip: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("zone filter produced no events")
	}

	var sawParent, sawMissingDS, sawDecision bool
	parent := parentOf(island)
	for _, ev := range events {
		if ev.Zone != island {
			t.Fatalf("zone filter leaked an event for %q: %+v", ev.Zone, ev)
		}
		switch {
		case ev.Stage == "resolve" && ev.Event == "delegation" && strings.Contains(ev.Detail, "parent="+parent):
			sawParent = true
		case ev.Stage == "resolve" && ev.Event == "ds_absent" && ev.Qtype == "DS":
			sawMissingDS = true
			if !strings.Contains(ev.Detail, parent) {
				t.Errorf("ds_absent event does not name the parent zone: %+v", ev)
			}
		case ev.Stage == "classify" && ev.Event == "decision":
			sawDecision = true
			if ev.Outcome != classify.StatusIsland.String() {
				t.Errorf("classification decision = %q, want %q", ev.Outcome, classify.StatusIsland)
			}
		}
	}
	if !sawParent {
		t.Error("trace never names the parent zone in a delegation event")
	}
	if !sawMissingDS {
		t.Error("trace never records the missing DS at the parent")
	}
	if !sawDecision {
		t.Error("trace never records the classification decision")
	}
}

func parentOf(zone string) string {
	if i := strings.Index(zone, "."); i >= 0 && i+1 < len(zone) {
		return zone[i+1:]
	}
	return "."
}

// TestObservabilityIsBehaviourNeutral locks in the zero-interference
// contract: a chaos scan (loss + retries) must produce byte-identical
// observation exports whether or not metrics and tracing are enabled.
// Concurrency 1 keeps the baseline itself deterministic — at higher
// concurrency the per-zone cache accounting depends on which goroutine
// wins the singleflight race, with or without observability.
func TestObservabilityIsBehaviourNeutral(t *testing.T) {
	export := func(registry *obs.Registry, tracer *obs.Tracer) []byte {
		t.Helper()
		world, err := ecosystem.Generate(ecosystem.Config{Seed: 11, ScaleDivisor: 300_000})
		if err != nil {
			t.Fatal(err)
		}
		study, err := Run(context.Background(), Options{
			Seed: 11, World: world, Concurrency: 1,
			LossRate: 0.05, RetryAttempts: 4,
			Registry: registry, Tracer: tracer,
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		jw := scan.NewJSONLWriter(&buf)
		for _, o := range study.Observations {
			if err := jw.Write(o); err != nil {
				t.Fatal(err)
			}
		}
		if err := jw.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	plain := export(nil, nil)
	traced := export(obs.NewRegistry(), obs.NewTracer(io.Discard, ""))
	if !bytes.Equal(plain, traced) {
		t.Fatalf("observability changed scan behaviour: exports differ (%d vs %d bytes)",
			len(plain), len(traced))
	}
}

// TestMetricsSnapshotAgreesWithObservations checks the registry's
// counters against the per-zone accounting the scan already reports.
func TestMetricsSnapshotAgreesWithObservations(t *testing.T) {
	registry := obs.NewRegistry()
	world, err := ecosystem.Generate(ecosystem.Config{Seed: 3, ScaleDivisor: 300_000})
	if err != nil {
		t.Fatal(err)
	}
	study, err := Run(context.Background(), Options{Seed: 3, World: world, Registry: registry})
	if err != nil {
		t.Fatal(err)
	}
	var queries, hits int64
	for _, o := range study.Observations {
		queries += o.Queries
		hits += o.CacheHits
	}
	snap := registry.Snapshot()
	if got := snap.Counters["resolver_queries_total"]; got != queries {
		t.Errorf("registry queries = %d, per-zone sum = %d", got, queries)
	}
	if got := snap.Counters["resolver_cache_hits_total"]; got != hits {
		t.Errorf("registry cache hits = %d, per-zone sum = %d", got, hits)
	}
	h, ok := snap.Histograms["resolver_query_seconds"]
	if !ok {
		t.Fatal("no query latency histogram in snapshot")
	}
	if h.Count != queries {
		t.Errorf("latency histogram count = %d, queries = %d", h.Count, queries)
	}
}
