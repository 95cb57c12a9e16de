// Package ordered is the repository's one ordered fan-out: a sequential
// source feeds a bounded set of workers and the results are sunk in
// source order. The zone scan (scan.ScanStream) and the zone dump
// reduction (ingest.Ingest) are both callers, so the guarantees their
// byte-equality gates rest on — strict order, no gaps, bounded live
// items, a clean prefix after a cancellation — live here once.
//
// There is no dispatcher or emitter goroutine: each worker pulls its
// own item, and the worker that completes the head of the order sinks
// every ready item from there on. On a box with as many cores as
// workers every core is running fn or sink, never passing items along.
package ordered

import (
	"context"
	"sync"
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

// Map pulls items from next, runs fn over them on workers goroutines —
// the caller's and workers-1 started ones — and hands the outputs to
// sink in pull order.
//
// next is never called concurrently; item i is its i-th value, and
// ok == false ends the source. At most 2×workers items are pulled but
// not yet sunk, so a slow item stalls the source instead of growing a
// buffer. sink sees i = 0, 1, 2, … with no gaps; its calls never
// overlap and each happens before the next, though they may run on
// different worker goroutines.
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
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// The pull side. pullMu is held across next — it exists to give the
	// source one caller at a time — and nothing else takes it, so a slow
	// source only delays other pulls, never a sink.
	var pullMu sync.Mutex
	pulled, peakLive := 0, 0

	// The flush side, guarded by mu. Item i is pulled only while fewer
	// than len(ring) items are unsunk, so emitted <= i < emitted+len(ring)
	// and ring[i%len(ring)] is free when it is parked there.
	type cell struct {
		out   Out
		ready bool
	}
	var (
		mu      sync.Mutex
		room    = sync.NewCond(&mu) // broadcast when emitted advances or stopped is set
		ring    = make([]cell, 2*workers)
		emitted int
		stopped bool // the source ended, an fn was withheld or sink failed
		sinkErr error
	)
	stop := func() {
		mu.Lock()
		stopped = true
		room.Broadcast()
		mu.Unlock()
	}
	pull := func() (i int, in In, ok bool) {
		pullMu.Lock()
		defer pullMu.Unlock()
		mu.Lock()
		for !stopped && pulled-emitted >= len(ring) {
			room.Wait()
		}
		live, done := pulled-emitted, stopped
		mu.Unlock()
		if done || ctx.Err() != nil {
			return 0, in, false
		}
		if in, ok = next(); !ok {
			stop()
			return 0, in, false
		}
		peakLive = max(peakLive, live+1)
		pulled++
		return pulled - 1, in, true
	}
	// park files out as item i and sinks the ready prefix from emitted
	// on, with mu released around each sink call. While item k is being
	// sunk its cell is already empty and emitted is still k, so a worker
	// parking meanwhile finds no ready head and leaves its item to the
	// one sinking: sink calls never overlap and come in order.
	park := func(i int, out Out) {
		mu.Lock()
		ring[i%len(ring)] = cell{out, true}
		for sinkErr == nil && ring[emitted%len(ring)].ready {
			k := emitted
			c := ring[k%len(ring)]
			ring[k%len(ring)] = cell{}
			mu.Unlock()
			err := sink(k, c.out)
			mu.Lock()
			if err != nil {
				sinkErr, stopped = err, true
				cancel()
			} else {
				emitted++
			}
			room.Broadcast()
		}
		mu.Unlock()
	}
	work := func() {
		for {
			i, in, ok := pull()
			if !ok {
				return
			}
			out := fn(ctx, in)
			if ctx.Err() != nil {
				// Withheld: fn may have been cut short. No flush can step
				// over the gap, so nothing above i is sunk either, and a
				// puller waiting for room the gap holds must give up.
				stop()
				return
			}
			park(i, out)
		}
	}

	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return Result{Emitted: emitted, PeakLive: peakLive}, sinkErr
}
