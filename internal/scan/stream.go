package scan

import (
	"context"
	"sync"
	"sync/atomic"

	"dnssecboot/internal/obs"
)

// The streaming scan pipeline. ScanAll used to materialise every
// *ZoneObservation in one slice and hand the batch over only after the
// last zone finished, so memory grew O(zones) and an interrupted run
// lost everything. ScanStream instead hands each observation to a sink
// callback as soon as its turn in the input order arrives: a producer
// feeds a bounded worker pool, completed zones park in a reorder
// buffer, and an order-restoring emitter drains the contiguous prefix.
// Live state is bounded by the dispatch window (in-flight scans plus
// reordered completions), independent of the zone count — the shape
// large-scale scanners (YoDNS, OpenINTEL) use to survive 10^8-zone
// campaigns.

// StreamSink receives observations strictly in input order (index
// ascending, no gaps). Returning an error aborts the stream; in-flight
// zones are cancelled and ScanStream returns the error.
type StreamSink func(index int, zo *ZoneObservation) error

// StreamOptions configure one ScanStream run.
type StreamOptions struct {
	// Start is the index of the first zone to scan — zones before it
	// are assumed already exported (checkpoint resume).
	Start int
	// Stop bounds the scan to zones [Start, Stop). Zero (or anything
	// past the end of the list) means the whole remainder. A shard
	// worker sets Start/Stop to its contiguous partition of the zone
	// space, so N cooperating processes cover the list exactly once.
	Stop int
	// Window bounds the number of zones dispatched but not yet emitted
	// (in-flight scans + completions parked for reordering). Zero means
	// 2× the scanner's concurrency.
	Window int
	// Drain, when it becomes readable (typically by closing it), stops
	// the producer gracefully: no new zones are dispatched, in-flight
	// zones finish cleanly, the emitter flushes the completed prefix.
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
	// ≤ Window by construction.
	PeakLive int
}

// streamJob and streamDone carry one zone through the pool.
type streamJob struct {
	i int
	z string
}

type streamDone struct {
	i  int
	zo *ZoneObservation
	// poisoned marks a scan that was still running when the context was
	// cancelled: its queries may have failed spuriously, so it must not
	// be emitted (a resume will re-scan it cleanly).
	poisoned bool
}

// ScanStream scans zones[opts.Start:opts.Stop] with bounded concurrency,
// emitting each observation to opts.Sink in input order as soon as its
// turn arrives. Memory is bounded by O(Window), not O(zones).
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
	window := opts.Window
	if window <= 0 {
		window = 2 * s.cfg.Concurrency
	}
	if window < s.cfg.Concurrency {
		// A window smaller than the pool would deadlock dispatch; the
		// pool itself is the hard floor on live zones.
		window = s.cfg.Concurrency
	}

	var progress *obs.Progress
	if s.cfg.ProgressWriter != nil {
		progress = obs.NewProgress(s.cfg.ProgressWriter, stop-start, s.cfg.ProgressInterval)
	}
	defer progress.Stop()

	// ictx aborts in-flight scans when the sink fails; it inherits the
	// caller's cancellation.
	ictx, icancel := context.WithCancel(ctx)
	defer icancel()

	jobs := make(chan streamJob)
	done := make(chan streamDone)
	// tokens is the dispatch window: acquired before a zone is handed to
	// the pool, released when its observation is emitted. It bounds
	// dispatched-but-unemitted zones to the window size.
	tokens := make(chan struct{}, window)
	var dispatched atomic.Int64

	// Producer: hands zones to the pool in order until the list ends,
	// the window is exhausted and nobody emits, the context dies, or the
	// drain signal fires.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(jobs)
		for i := start; i < stop; i++ {
			// Explicit pre-check: when ictx is already done, a select
			// with a free token would still dispatch zones at random.
			if ictx.Err() != nil {
				return
			}
			select {
			case <-ictx.Done():
				return
			case <-opts.Drain:
				return
			case tokens <- struct{}{}:
			}
			dispatched.Add(1)
			select {
			case <-ictx.Done():
				return
			case <-opts.Drain:
				return
			case jobs <- streamJob{i, zones[i]}:
			}
		}
	}()

	// Worker pool. Every job received is scanned and reported exactly
	// once; a result computed while the context was dying is marked
	// poisoned rather than judged clean by luck.
	var workers sync.WaitGroup
	for w := 0; w < s.cfg.Concurrency; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for job := range jobs {
				zo := s.ScanZone(ictx, job.z)
				done <- streamDone{i: job.i, zo: zo, poisoned: ictx.Err() != nil}
			}
		}()
	}
	go func() {
		wg.Wait()
		workers.Wait()
		close(done)
	}()

	// Order-restoring emitter, run on the calling goroutine: parks
	// out-of-order completions and hands the contiguous prefix to the
	// sink. A poisoned result caps emission just below its index — the
	// prefix stays clean, and a resume re-scans from there.
	pending := make(map[int]*ZoneObservation, window)
	next := start
	stopAt := stop
	peak := 0
	var sinkErr error
	for d := range done {
		if d.poisoned {
			if d.i < stopAt {
				stopAt = d.i
			}
		} else {
			pending[d.i] = d.zo
		}
		// Live zones = dispatched but not yet emitted: in-flight scans
		// plus completions parked in the reorder buffer. The token
		// semaphore caps this at window; record the observed peak so
		// tests can assert the bound holds independent of len(zones).
		if live := int(dispatched.Load()) - (next - start); live > peak {
			peak = live
		}
		for sinkErr == nil && next < stopAt {
			zo, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			if opts.Sink != nil {
				if err := opts.Sink(next, zo); err != nil {
					sinkErr = err
					icancel()
					break
				}
			}
			progress.Done(zo.ResolveErr != "")
			next++
			// Free one window slot for the producer.
			select {
			case <-tokens:
			default:
			}
		}
	}

	res := StreamResult{Next: next, PeakLive: peak, Drained: sinkErr == nil && next < stop}
	return res, sinkErr
}
