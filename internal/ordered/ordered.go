// Package ordered is the repository's one ordered fan-out: a sequential
// source feeds a bounded worker pool and the results come back to the
// caller in source order. The zone scan (scan.ScanStream) and the zone
// dump reduction (ingest.Ingest) are both callers, so the guarantees
// their byte-equality gates rest on — strict order, no gaps, bounded
// live items, a clean prefix after a cancellation — live here once.
package ordered

import (
	"context"
	"sync"
	"sync/atomic"
)

// Result summarises how a Map call ended.
type Result struct {
	// Emitted is the number of items sink accepted: it returned nil for
	// exactly items 0 .. Emitted-1. A resumed run starts at Emitted.
	Emitted int
	// PeakLive is the largest number of items observed pulled from the
	// source but not yet accepted by sink — the live-memory high-water
	// mark, at most 2×workers by construction.
	PeakLive int
}

// Map pulls items from next, runs fn over them on workers goroutines
// and hands the outputs to sink in pull order.
//
// next is called from one goroutine, never concurrently; item i is its
// i-th value, and ok == false ends the source. At most 2×workers items
// are pulled but not yet sunk, so a slow item stalls the source instead
// of growing a buffer. sink runs on the caller's goroutine for
// i = 0, 1, 2, … with no gaps.
//
// When ctx is cancelled pulling stops, and any fn that returns after the
// cancellation is dropped together with every item above it: its work
// may have been cut short, so the emitted prefix stays clean and a
// resume redoes the rest. A cancellation is not an error here — the
// caller knows its own context.
//
// A sink error cancels the context fn sees and is returned; sink is not
// called again, and it has seen a contiguous prefix. Every goroutine
// Map started has exited when it returns.
func Map[In, Out any](
	ctx context.Context,
	workers int,
	next func() (In, bool),
	fn func(context.Context, In) Out,
	sink func(i int, out Out) error,
) (Result, error) {
	if workers < 1 {
		workers = 1
	}
	window := 2 * workers
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type job struct {
		i  int
		in In
	}
	type done struct {
		i   int
		out Out
	}
	jobs := make(chan job)
	results := make(chan done)
	// slots is the window: one is taken before an item is pulled and
	// given back once sink has accepted it.
	slots := make(chan struct{}, window)
	var pulled atomic.Int64

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(jobs)
		for i := 0; ; i++ {
			// Checked first: with ctx dead and a slot free, the select
			// below would still pull items at random.
			if ctx.Err() != nil {
				return
			}
			select {
			case <-ctx.Done():
				return
			case slots <- struct{}{}:
			}
			in, ok := next()
			if !ok {
				return
			}
			pulled.Add(1)
			select {
			case <-ctx.Done():
				return
			case jobs <- job{i, in}:
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				// A result computed while ctx was dying is withheld. The
				// emitter cannot step over the gap, so nothing above it
				// is emitted either.
				if out := fn(ctx, j.in); ctx.Err() == nil {
					results <- done{j.i, out}
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Reorder buffer. Item i is pulled only while fewer than window
	// items are unsunk, so emitted <= i < emitted+window and i%window
	// names a free cell.
	type cell struct {
		out   Out
		ready bool
	}
	ring := make([]cell, window)
	var res Result
	var sinkErr error
	for d := range results {
		ring[d.i%window] = cell{d.out, true}
		res.PeakLive = max(res.PeakLive, int(pulled.Load())-res.Emitted)
		for sinkErr == nil && ring[res.Emitted%window].ready {
			c := &ring[res.Emitted%window]
			if err := sink(res.Emitted, c.out); err != nil {
				sinkErr = err
				cancel()
				break
			}
			*c = cell{}
			res.Emitted++
			<-slots
		}
	}
	return res, sinkErr
}
