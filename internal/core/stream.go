package core

import (
	"context"
	"fmt"
	"time"

	"dnssecboot/internal/classify"
	"dnssecboot/internal/ecosystem"
	"dnssecboot/internal/report"
	"dnssecboot/internal/scan"
)

// StreamSink receives each zone's observation and classification in
// strict target order. Returning an error aborts the run.
type StreamSink func(index int, zo *scan.ZoneObservation, res *classify.Result) error

// StreamOptions configure a streaming study run.
type StreamOptions struct {
	Options

	// StartIndex skips zones [0, StartIndex) — they were exported by an
	// earlier, interrupted run and their tallies arrive via Resume.
	StartIndex int
	// EndIndex bounds the run to zones [StartIndex, EndIndex); zero
	// means the end of the target list. A shard worker sets Start/End
	// to its contiguous partition of the zone space.
	EndIndex int
	// Resume is the report accumulator folded from the interrupted
	// run's dump (report.Aggregate.Fold); nil starts the tallies from
	// zero.
	Resume *report.Aggregate
	// Drain asks the run to stop dispatching new zones when closed;
	// in-flight zones complete and are emitted (SIGINT handling).
	Drain <-chan struct{}
	// Sink receives every in-order (observation, classification) pair
	// after it has been folded into the report accumulator. Nil is
	// allowed: the run then only accumulates.
	Sink StreamSink
}

// StreamStudy is the outcome of a streaming run. Unlike Study it holds
// no per-zone slices: observations and results exist only for the
// moment they pass through the sink.
type StreamStudy struct {
	// World is the scanned ecosystem.
	World *ecosystem.Ecosystem
	// Report aggregates every zone emitted so far, including the
	// resumed prefix.
	Report *report.Aggregate
	// NextIndex is the first zone NOT emitted: the sink saw exactly
	// zones [StartIndex, NextIndex).
	NextIndex int
	// TotalZones is the length of the (possibly truncated) target list.
	TotalZones int
	// Scanned counts the zones emitted by this run.
	Scanned int
	// Drained reports that the run stopped before its end bound (drain
	// signal or context cancellation) without a sink error.
	Drained bool
	// PeakLive is the maximum number of simultaneously dispatched-but-
	// unemitted zones — the pipeline's live-memory high-water mark.
	PeakLive int
	// Elapsed is the wall-clock scan duration of this run.
	Elapsed time.Duration
}

// RunStream executes the pipeline in streaming form: generate → scan →
// classify → accumulate, handing each zone to opts.Sink in order
// instead of materialising per-zone slices. Memory stays bounded by the
// scan window regardless of population size, which is what makes
// resume and SIGINT draining practical at the paper's 287.6M zone
// scale.
func RunStream(ctx context.Context, opts StreamOptions) (*StreamStudy, error) {
	world := opts.World
	if world == nil {
		var err error
		world, err = ecosystem.Generate(ecosystem.Config{
			Seed:         opts.Seed,
			ScaleDivisor: opts.ScaleDivisor,
		})
		if err != nil {
			return nil, fmt.Errorf("core: generating world: %w", err)
		}
	}
	targets := opts.Targets
	if targets == nil {
		targets = world.Targets
	}
	if opts.MaxZones > 0 && len(targets) > opts.MaxZones {
		targets = targets[:opts.MaxZones]
	}
	if opts.StartIndex < 0 || opts.StartIndex > len(targets) {
		return nil, fmt.Errorf("core: resume index %d outside [0, %d]", opts.StartIndex, len(targets))
	}
	if opts.EndIndex != 0 && (opts.EndIndex < opts.StartIndex || opts.EndIndex > len(targets)) {
		return nil, fmt.Errorf("core: end index %d outside [%d, %d]", opts.EndIndex, opts.StartIndex, len(targets))
	}

	agg := opts.Resume
	if agg == nil {
		agg = report.NewAggregate()
	}
	classifier := classify.New(world.Now)

	scanner := NewScanner(world, opts.Options)
	start := time.Now()
	res, err := scanner.ScanStream(ctx, targets, scan.StreamOptions{
		Start: opts.StartIndex,
		Stop:  opts.EndIndex,
		Drain: opts.Drain,
		Sink: func(i int, zo *scan.ZoneObservation) error {
			r := classifier.Classify(zo)
			agg.Add(r)
			if opts.Sink != nil {
				return opts.Sink(i, zo, r)
			}
			return nil
		},
	})
	elapsed := time.Since(start)
	study := &StreamStudy{
		World:      world,
		Report:     agg,
		NextIndex:  res.Next,
		TotalZones: len(targets),
		Scanned:    res.Next - opts.StartIndex,
		Drained:    res.Drained,
		PeakLive:   res.PeakLive,
		Elapsed:    elapsed,
	}
	return study, err
}
