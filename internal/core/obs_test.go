package core

import (
	"bytes"
	"context"
	"io"
	"testing"

	"dnssecboot/internal/ecosystem"
	"dnssecboot/internal/obs"
	"dnssecboot/internal/scan"
	"dnssecboot/internal/transport"
)

// TestExchangeTraceCountsEveryQuery: the exchange trace writes one line
// per wire query, the resolver's own count of them, through the loss
// the Faults wrapper injects, each for a zone the scan covered.
func TestExchangeTraceCountsEveryQuery(t *testing.T) {
	world, err := ecosystem.Generate(ecosystem.Config{Seed: 11, ScaleDivisor: 300_000})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	registry, tracer := obs.NewRegistry(), obs.NewTracer(&buf)
	study, err := Run(context.Background(), Options{
		Seed: 11, World: world, Concurrency: 2,
		LossRate: 0.05, RetryAttempts: 4,
		Registry: registry, Tracer: tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadTrace(&buf)
	if err != nil {
		t.Fatalf("trace does not round-trip: %v", err)
	}
	var queries int64
	scanned := make(map[string]bool)
	for _, o := range study.Observations {
		queries += o.Queries
		scanned[o.Zone] = true
	}
	if got := registry.Snapshot().Counters["resolver_queries_total"]; int64(len(events)) != queries || got != queries {
		t.Errorf("trace lines = %d, per-zone queries = %d, resolver_queries_total = %d; want all equal", len(events), queries, got)
	}
	lost := 0
	for _, ev := range events {
		if !scanned[ev.Zone] {
			t.Fatalf("trace line for a zone the scan did not cover: %+v", ev)
		}
		if ev.Err != "" {
			lost++
		}
	}
	if lost == 0 {
		t.Error("5 % loss left no error line in the trace")
	}
}

// TestExchangeTraceOnlyWhenTracing: with no Tracer nothing sits between
// the resolver and the network; with one, the trace is outermost, around
// the injected faults.
func TestExchangeTraceOnlyWhenTracing(t *testing.T) {
	world, err := ecosystem.Generate(ecosystem.Config{Seed: 11, ScaleDivisor: 300_000})
	if err != nil {
		t.Fatal(err)
	}
	if net := NewScanner(world, Options{}).Validator().R.Net; net != transport.Exchanger(world.Net) {
		t.Errorf("untraced scanner exchanges through %T, want the world's network", net)
	}
	net := NewScanner(world, Options{LossRate: 0.05, Tracer: obs.NewTracer(io.Discard)}).Validator().R.Net
	if tn, ok := net.(tracedNet); !ok {
		t.Errorf("traced scanner exchanges through %T, want the exchange trace", net)
	} else if _, ok := tn.inner.(*transport.Faults); !ok {
		t.Errorf("the exchange trace wraps %T, want the injected faults", tn.inner)
	}
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
	traced := export(obs.NewRegistry(), obs.NewTracer(io.Discard))
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
