package scan

import (
	"context"

	"dnssecboot/internal/obs"
	"dnssecboot/internal/ordered"
)

// The streaming scan pipeline. A batch scan would materialise every
// *ZoneObservation in one slice and hand the batch over only after the
// last zone finished, so memory would grow O(zones) and an interrupted
// run would lose everything. ScanStream instead hands each observation
// to a sink callback as soon as its turn in the input order arrives. The fan-out
// itself is ordered.Map, shared with the zone-dump ingester: each
// worker pulls its own zone, and whichever worker finishes the next
// zone in order runs the sink, so there is no dispatcher or emitter
// goroutine. Live state is bounded by its window (in-flight scans plus
// reordered completions, ordered.Window of the scanner's concurrency:
// 64 zones, or 2× the concurrency above 32), independent of the zone
// count — the shape large-scale scanners (YoDNS, OpenINTEL)
// use to survive 10^8-zone campaigns.

// StreamSink receives observations strictly in input order (index
// ascending, no gaps). Returning an error aborts the stream; in-flight
// zones are cancelled and ScanStream returns the error.
type StreamSink func(index int, zo *ZoneObservation) error

// StreamOptions configure one ScanStream run.
type StreamOptions struct {
	// Start is the index of the first zone to scan — zones before it
	// are assumed already exported (a resume).
	Start int
	// Stop bounds the scan to zones [Start, Stop). Zero (or anything
	// past the end of the list) means the whole remainder. A shard
	// worker sets Start/Stop to its contiguous partition of the zone
	// space, so N cooperating processes cover the list exactly once.
	Stop int
	// Drain, when it becomes readable (typically by closing it), stops
	// the stream gracefully: no new zones are dispatched, in-flight
	// zones finish cleanly, and the completed prefix is sunk.
	// This is the SIGINT path — unlike a context cancellation it never
	// poisons an in-flight scan, so the emitted prefix's record bodies
	// are byte-identical to the same prefix of an uninterrupted run.
	Drain <-chan struct{}
	// Sink receives every completed observation in order. Nil discards.
	Sink StreamSink
}

// StreamResult summarises how a stream ended.
type StreamResult struct {
	// Next is the first index NOT emitted: the sink received exactly
	// the contiguous range [Start, Next). A resumed stream should pass
	// Start = Next.
	Next int
	// Drained is true when the stream stopped before its Stop bound
	// (drain signal or context cancellation) without a sink error.
	Drained bool
	// PeakLive is the maximum number of zones that were dispatched but
	// not yet emitted at any point — the pipeline's live-memory bound,
	// ≤ ordered.Window(concurrency) by construction.
	PeakLive int
}

// ScanStream scans zones[opts.Start:opts.Stop] with bounded concurrency,
// emitting each observation to opts.Sink in input order as soon as its
// turn arrives. Memory is bounded by O(concurrency), not O(zones).
//
// The stream stops early on three events: the context is cancelled
// (in-flight results completed after the cancellation are discarded as
// poisoned, so everything emitted is a clean prefix), opts.Drain fires
// (in-flight zones finish cleanly and are emitted), or the sink returns
// an error (propagated as the return error). In every case the sink has
// received exactly the contiguous prefix [Start, Next).
func (s *Scanner) ScanStream(ctx context.Context, zones []string, opts StreamOptions) (StreamResult, error) {
	stop := opts.Stop
	if stop <= 0 || stop > len(zones) {
		stop = len(zones)
	}
	start := opts.Start
	if start < 0 {
		start = 0
	}
	if start > stop {
		start = stop
	}

	var progress *obs.Progress
	if s.cfg.ProgressWriter != nil {
		progress = obs.NewProgress(s.cfg.ProgressWriter, stop-start, s.cfg.ProgressInterval)
	}
	defer progress.Stop()

	// The source ends at the stop index or as soon as the drain signal
	// is readable: a drained stream is a source that reports done.
	at := start
	next := func() (string, bool) {
		select {
		case <-opts.Drain:
			return "", false
		default:
		}
		if at >= stop {
			return "", false
		}
		at++
		return zones[at-1], true
	}
	res, err := ordered.Map(ctx, s.cfg.Concurrency, next, s.ScanZone,
		func(i int, zo *ZoneObservation) error {
			if opts.Sink != nil {
				if err := opts.Sink(start+i, zo); err != nil {
					return err
				}
			}
			progress.Done(zo.ResolveErr != "")
			return nil
		})
	end := start + res.Emitted
	return StreamResult{Next: end, PeakLive: res.PeakLive, Drained: err == nil && end < stop}, err
}
