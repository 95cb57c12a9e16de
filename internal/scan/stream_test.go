// Streaming-pipeline regression suite. The contract under test is the
// one checkpoint/resume depends on: a drained or cancelled stream emits
// a prefix of the uninterrupted run's JSONL export whose record bodies
// (scan.Body: the line without its cost object) are byte-identical, a
// resume from StreamResult.Next completes it to the exact same bodies,
// and the pipeline's live memory stays bounded by the window regardless
// of how many zones are scanned. Cost is excluded on purpose: a resumed
// run starts with a cold resolver cache and pays for warming it again.
package scan_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"dnssecboot/internal/classify"
	"dnssecboot/internal/core"
	"dnssecboot/internal/ecosystem"
	"dnssecboot/internal/ordered"
	"dnssecboot/internal/report"
	"dnssecboot/internal/scan"
)

// streamScale matches chaosScale: a few hundred zones, fast enough to
// scan several times per test.
const streamScale = 500_000

// streamOpts are the options every run in this suite shares: the
// default scanner, shared cache on, at concurrency 8.
func streamOpts() core.Options {
	return core.Options{Seed: 1, ScaleDivisor: streamScale, Concurrency: 8}
}

// bodies reduces a JSONL export to its record bodies, the form in which
// two dumps are compared.
func bodies(t *testing.T, dump []byte) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := scan.Bodies(&out, bytes.NewReader(dump)); err != nil {
		t.Fatalf("reducing dump to bodies: %v", err)
	}
	return out.Bytes()
}

// streamRun executes a streaming run from startIndex, writing the JSONL
// export into buf. cut, when > 0, closes the drain channel as soon as
// the sink has emitted that many zones — the in-test equivalent of
// SIGINT. A fresh world is generated every call (World: nil) so the
// test also covers cross-run world determinism.
func streamRun(t *testing.T, buf *bytes.Buffer, startIndex, cut int, resume *report.Aggregate) *core.StreamStudy {
	t.Helper()
	drain := make(chan struct{})
	w := scan.NewJSONLWriter(buf)
	emitted := 0
	study, err := core.RunStream(context.Background(), core.StreamOptions{
		Options:    streamOpts(),
		StartIndex: startIndex,
		Resume:     resume,
		Drain:      drain,
		Sink: func(i int, zo *scan.ZoneObservation, _ *classify.Result) error {
			if err := w.Write(zo); err != nil {
				return err
			}
			emitted++
			if cut > 0 && emitted == cut {
				close(drain)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatalf("RunStream(start=%d, cut=%d): %v", startIndex, cut, err)
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	return study
}

func TestStreamDrainPrefixAndResume(t *testing.T) {
	// Reference: one uninterrupted run.
	var ref bytes.Buffer
	refStudy := streamRun(t, &ref, 0, 0, nil)
	if refStudy.Drained {
		t.Fatal("uninterrupted run reported Drained")
	}
	if refStudy.NextIndex != refStudy.TotalZones {
		t.Fatalf("uninterrupted run stopped at %d/%d", refStudy.NextIndex, refStudy.TotalZones)
	}

	// Interrupted run: drain after 100 emissions.
	const cut = 100
	var partial bytes.Buffer
	cutStudy := streamRun(t, &partial, 0, cut, nil)
	if !cutStudy.Drained {
		t.Fatal("drained run did not report Drained")
	}
	if cutStudy.NextIndex >= cutStudy.TotalZones {
		t.Fatalf("drain was a no-op: NextIndex %d of %d", cutStudy.NextIndex, cutStudy.TotalZones)
	}
	if cutStudy.NextIndex < cut {
		t.Fatalf("NextIndex %d below the %d zones the sink saw", cutStudy.NextIndex, cut)
	}
	if got := strings.Count(partial.String(), "\n"); got != cutStudy.NextIndex {
		t.Fatalf("partial dump has %d records, NextIndex says %d", got, cutStudy.NextIndex)
	}
	if !bytes.HasPrefix(bodies(t, ref.Bytes()), bodies(t, partial.Bytes())) {
		t.Fatal("drained export's bodies are not a byte prefix of the uninterrupted export's")
	}

	// Resume: round-trip the accumulator through its checkpoint wire
	// form, then continue from NextIndex appending to the partial dump.
	state, err := cutStudy.Report.MarshalState()
	if err != nil {
		t.Fatalf("MarshalState: %v", err)
	}
	restored, err := report.UnmarshalState(state)
	if err != nil {
		t.Fatalf("UnmarshalState: %v", err)
	}
	resumed := streamRun(t, &partial, cutStudy.NextIndex, 0, restored)
	if resumed.Drained {
		t.Fatal("resumed run reported Drained")
	}
	if resumed.NextIndex != resumed.TotalZones {
		t.Fatalf("resumed run stopped at %d/%d", resumed.NextIndex, resumed.TotalZones)
	}
	if got, want := bodies(t, partial.Bytes()), bodies(t, ref.Bytes()); !bytes.Equal(got, want) {
		t.Errorf("resumed export's bodies differ from the uninterrupted export's:\n%s",
			firstDiff(string(want), string(got)))
	}
	if got, want := resumed.Report.Headline(), refStudy.Report.Headline(); got != want {
		t.Errorf("resumed headline differs:\n  ref:     %s\n  resumed: %s", want, got)
	}
}

func TestStreamHardCancelCleanPrefix(t *testing.T) {
	var ref bytes.Buffer
	streamRun(t, &ref, 0, 0, nil)

	// Cancel the context mid-stream: unlike a drain this poisons
	// in-flight scans, but the emitter must discard them, so everything
	// already written is still a clean prefix.
	ctx, cancel := context.WithCancel(context.Background())
	var partial bytes.Buffer
	w := scan.NewJSONLWriter(&partial)
	emitted := 0
	study, err := core.RunStream(ctx, core.StreamOptions{
		Options: streamOpts(),
		Sink: func(i int, zo *scan.ZoneObservation, _ *classify.Result) error {
			if err := w.Write(zo); err != nil {
				return err
			}
			if emitted++; emitted == 50 {
				cancel()
			}
			return nil
		},
	})
	cancel()
	if err != nil {
		t.Fatalf("RunStream under cancellation: %v", err)
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if !study.Drained {
		t.Fatal("cancelled run did not report an early stop")
	}
	if study.NextIndex >= study.TotalZones {
		t.Fatalf("cancellation was a no-op: NextIndex %d of %d", study.NextIndex, study.TotalZones)
	}
	if got := strings.Count(partial.String(), "\n"); got != study.NextIndex {
		t.Fatalf("partial dump has %d records, NextIndex says %d", got, study.NextIndex)
	}
	if !bytes.HasPrefix(bodies(t, ref.Bytes()), bodies(t, partial.Bytes())) {
		t.Fatal("cancelled export's bodies are not a byte prefix of the uninterrupted export's")
	}
}

func TestStreamSinkErrorAborts(t *testing.T) {
	boom := errors.New("disk full")
	const failAt = 25
	seen := 0
	_, err := core.RunStream(context.Background(), core.StreamOptions{
		Options: streamOpts(),
		Sink: func(i int, zo *scan.ZoneObservation, _ *classify.Result) error {
			if i != seen {
				t.Errorf("out-of-order emission: got index %d, want %d", i, seen)
			}
			seen++
			if i == failAt {
				return boom
			}
			return nil
		},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("RunStream error = %v, want %v", err, boom)
	}
	if seen != failAt+1 {
		t.Fatalf("sink saw %d zones after failing at index %d", seen, failAt)
	}
}

// TestStreamBoundedWindow is the bounded-memory acceptance check: the
// peak number of live (dispatched-but-unemitted) observations must
// respect the window and stay flat as the zone count grows.
func TestStreamBoundedWindow(t *testing.T) {
	world, err := ecosystem.Generate(ecosystem.Config{Seed: 1, ScaleDivisor: streamScale})
	if err != nil {
		t.Fatalf("generating world: %v", err)
	}
	opts := streamOpts()
	opts.Concurrency = 4
	opts.World = world
	window := ordered.Window(opts.Concurrency)
	var peaks []int
	for _, n := range []int{40, 120, len(world.Targets)} {
		opts.MaxZones = n
		res, err := core.RunStream(context.Background(), core.StreamOptions{Options: opts})
		if err != nil {
			t.Fatalf("RunStream(%d zones): %v", n, err)
		}
		if res.NextIndex != n {
			t.Fatalf("scanned %d of %d zones", res.NextIndex, n)
		}
		if res.PeakLive > window {
			t.Errorf("%d zones: peak live %d exceeds window %d", n, res.PeakLive, window)
		}
		if res.PeakLive < 1 {
			t.Errorf("%d zones: implausible peak live %d", n, res.PeakLive)
		}
		peaks = append(peaks, res.PeakLive)
	}
	t.Logf("peak live observations across zone counts: %v (window %d)", peaks, window)
}
