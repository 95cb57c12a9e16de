// Shard-range conformance suite. The sharded orchestration rests on two
// properties proven here at the pipeline level (cmd/scanctl's process
// battery in internal/shard re-proves them across process boundaries):
// the record bodies of shard ranges [lo, hi), each scanned by its own
// scanner with its own cold cache and concatenated in shard order, are
// byte-identical to those of one uninterrupted full-range export, and
// the fold of that concatenation (report.Aggregate.Fold) renders the
// exact classification artefacts the single run renders. Cost (the
// records' trailing object, -out queries) depends on the layout and is
// not compared.
package scan_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"dnssecboot/internal/classify"
	"dnssecboot/internal/core"
	"dnssecboot/internal/ecosystem"
	"dnssecboot/internal/report"
	"dnssecboot/internal/scan"
	"dnssecboot/internal/shard"
)

// shardRangeRun scans zones [start, stop) of a shared world into buf
// and returns the run's accumulator. opts carries what the case varies
// (concurrency, loss, retries); world and seed are set here.
func shardRangeRun(t *testing.T, world *ecosystem.Ecosystem, opts core.Options, start, stop int, buf *bytes.Buffer) *report.Aggregate {
	t.Helper()
	opts.Seed, opts.World = 1, world
	w := scan.NewJSONLWriter(buf)
	study, err := core.RunStream(context.Background(), core.StreamOptions{
		Options:    opts,
		StartIndex: start,
		EndIndex:   stop,
		Sink: func(i int, zo *scan.ZoneObservation, _ *classify.Result) error {
			return w.Write(zo)
		},
	})
	if err != nil {
		t.Fatalf("RunStream([%d, %d)): %v", start, stop, err)
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if study.Drained {
		t.Fatalf("range run [%d, %d) reported Drained", start, stop)
	}
	if study.NextIndex != stop {
		t.Fatalf("range run [%d, %d) stopped at %d", start, stop, study.NextIndex)
	}
	return study.Report
}

func TestShardedConformance(t *testing.T) {
	// Two world scales × two shard counts, per the acceptance criteria.
	for _, scale := range []int{500_000, 150_000} {
		world, err := ecosystem.Generate(ecosystem.Config{Seed: 1, ScaleDivisor: scale})
		if err != nil {
			t.Fatalf("generating world: %v", err)
		}
		total := len(world.Targets)

		// Reference: one uninterrupted full-range run.
		var ref bytes.Buffer
		opts := core.Options{Concurrency: 8}
		refAgg := shardRangeRun(t, world, opts, 0, total, &ref)

		for _, shards := range []int{2, 4} {
			t.Run(fmt.Sprintf("scale=%d/shards=%d", scale, shards), func(t *testing.T) {
				var merged bytes.Buffer
				for _, rng := range shard.Partition(total, shards) {
					shardRangeRun(t, world, opts, rng.Lo, rng.Hi, &merged)
				}
				mergedAgg := fold(t, merged.Bytes(), world.Now)
				if got, want := bodies(t, merged.Bytes()), bodies(t, ref.Bytes()); !bytes.Equal(got, want) {
					t.Errorf("concatenated shard dumps' bodies differ from the single-run export's:\n%s",
						firstDiff(string(want), string(got)))
				}
				for name, render := range map[string]func(*report.Aggregate) string{
					"headline": (*report.Aggregate).Headline,
					"table3":   (*report.Aggregate).Table3,
					"cds":      (*report.Aggregate).CDSFindings,
				} {
					if got, want := render(mergedAgg), render(refAgg); got != want {
						t.Errorf("%s differs after shard merge:\n got: %s\nwant: %s", name, got, want)
					}
				}
				var gotCSV, wantCSV bytes.Buffer
				for _, artefact := range []string{"table1", "table2", "table3", "figure1"} {
					gotCSV.Reset()
					wantCSV.Reset()
					if err := mergedAgg.WriteCSV(&gotCSV, artefact); err != nil {
						t.Fatalf("merged WriteCSV(%s): %v", artefact, err)
					}
					if err := refAgg.WriteCSV(&wantCSV, artefact); err != nil {
						t.Fatalf("reference WriteCSV(%s): %v", artefact, err)
					}
					if !bytes.Equal(gotCSV.Bytes(), wantCSV.Bytes()) {
						t.Errorf("%s CSV differs after shard merge:\n%s",
							artefact, firstDiff(wantCSV.String(), gotCSV.String()))
					}
				}
			})
		}
	}
}

// TestBodiesConcurrencyInvariant pins that what a record says does not
// depend on which zones were in flight beside it or had warmed the
// cache before it: three runs at concurrency 16 must reproduce the
// bodies of a strictly sequential run. Run under -race this is also
// the cache's and the validator memo's contention test.
func TestBodiesConcurrencyInvariant(t *testing.T) {
	world, err := ecosystem.Generate(ecosystem.Config{Seed: 1, ScaleDivisor: 500_000})
	if err != nil {
		t.Fatalf("generating world: %v", err)
	}
	total := len(world.Targets)
	var ref bytes.Buffer
	shardRangeRun(t, world, core.Options{Concurrency: 1}, 0, total, &ref)
	want := bodies(t, ref.Bytes())
	for run := 1; run <= 3; run++ {
		var got bytes.Buffer
		shardRangeRun(t, world, core.Options{Concurrency: 16}, 0, total, &got)
		if b := bodies(t, got.Bytes()); !bytes.Equal(b, want) {
			t.Errorf("run %d at concurrency 16: bodies differ from the sequential run's:\n%s",
				run, firstDiff(string(want), string(b)))
		}
	}
}

// TestShardedBodiesUnderLoss repeats the 2-shard conformance on a lossy
// network: at 2 % loss with 4 attempts per exchange retries absorb
// every drop, so which process warmed which cache entry — and which of
// them paid the retries — may move cost but not one body byte. Each run
// gets a fresh world because the fault layer's per-tuple sequence
// counters live on the network, as they do in separate worker processes.
func TestShardedBodiesUnderLoss(t *testing.T) {
	const scale = 500_000
	opts := core.Options{Concurrency: 8, LossRate: 0.02, RetryAttempts: 4, ChaosSeed: 42}
	lossyRun := func(shards int) ([]byte, *report.Aggregate) {
		var dump bytes.Buffer
		var now time.Time
		for i := 0; i < shards; i++ {
			world, err := ecosystem.Generate(ecosystem.Config{Seed: 1, ScaleDivisor: scale})
			if err != nil {
				t.Fatalf("generating world: %v", err)
			}
			rng := shard.Partition(len(world.Targets), shards)[i]
			shardRangeRun(t, world, opts, rng.Lo, rng.Hi, &dump)
			now = world.Now
		}
		return bodies(t, dump.Bytes()), fold(t, dump.Bytes(), now)
	}
	want, refAgg := lossyRun(1)
	got, mergedAgg := lossyRun(2)
	if !bytes.Equal(got, want) {
		t.Errorf("2-shard bodies differ from the single run's under loss:\n%s", firstDiff(string(want), string(got)))
	}
	if got, want := mergedAgg.Headline(), refAgg.Headline(); got != want {
		t.Errorf("headline differs under loss:\n got: %s\nwant: %s", got, want)
	}
	if refAgg.Retries == 0 {
		t.Error("no retries recorded — loss was not injected")
	}
}

// fold folds a whole dump, as a coordinator folds its shards' dumps.
func fold(t *testing.T, dump []byte, now time.Time) *report.Aggregate {
	t.Helper()
	agg := report.NewAggregate()
	if _, _, err := agg.Fold(bytes.NewReader(dump), now, nil); err != nil {
		t.Fatalf("folding the dump: %v", err)
	}
	return agg
}

// TestShardRangeStopBounds pins the Stop contract: out-of-range and
// inverted bounds clamp rather than panic or over-scan.
func TestShardRangeStopBounds(t *testing.T) {
	world, err := ecosystem.Generate(ecosystem.Config{Seed: 1, ScaleDivisor: 500_000})
	if err != nil {
		t.Fatalf("generating world: %v", err)
	}
	scanner := core.NewScanner(world, core.Options{Seed: 1, Concurrency: 4})
	var emitted []int
	res, err := scanner.ScanStream(context.Background(), world.Targets[:20], scan.StreamOptions{
		Start: 5,
		Stop:  12,
		Sink: func(i int, zo *scan.ZoneObservation) error {
			emitted = append(emitted, i)
			return nil
		},
	})
	if err != nil {
		t.Fatalf("ScanStream: %v", err)
	}
	if res.Drained {
		t.Error("bounded range reported Drained")
	}
	if res.Next != 12 {
		t.Errorf("Next = %d, want 12", res.Next)
	}
	if len(emitted) != 7 || emitted[0] != 5 || emitted[len(emitted)-1] != 11 {
		t.Errorf("emitted indices %v, want exactly [5, 12)", emitted)
	}

	// Stop past the end clamps to the list; Start past Stop is empty.
	res, err = scanner.ScanStream(context.Background(), world.Targets[:8], scan.StreamOptions{Stop: 99})
	if err != nil || res.Next != 8 {
		t.Errorf("Stop past end: next=%d err=%v, want 8 <nil>", res.Next, err)
	}
	res, err = scanner.ScanStream(context.Background(), world.Targets[:8], scan.StreamOptions{Start: 6, Stop: 3})
	if err != nil || res.Next != 3 {
		t.Errorf("inverted bounds: next=%d err=%v, want 3 <nil>", res.Next, err)
	}
}
