package ordered

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// source is a counting next(): it yields 0..n-1 (n < 0: endless), fails
// the test when entered concurrently, and checks the window on every
// pull against the number of items the sink has accepted so far.
type source struct {
	t      *testing.T
	n      int
	window int
	inside atomic.Bool
	pulled atomic.Int64
	sunk   atomic.Int64
	i      int // deliberately unsynchronised: next has one caller
}

func (s *source) next() (int, bool) {
	if !s.inside.CompareAndSwap(false, true) {
		s.t.Error("next entered concurrently")
	}
	defer s.inside.Store(false)
	if s.n >= 0 && s.i >= s.n {
		return 0, false
	}
	if live := s.pulled.Add(1) - s.sunk.Load(); int(live) > s.window {
		s.t.Errorf("pull %d: %d items live, window is %d", s.i, live, s.window)
	}
	s.i++
	return s.i - 1, true
}

// sink returns a sink that demands 0, 1, 2, … with no gap and
// records how many items it accepted.
func (s *source) sink(fail func(i int) error) func(int, int) error {
	want := 0
	return func(i, out int) error {
		if i != want || out != i*i {
			s.t.Errorf("sink got (%d, %d), want (%d, %d)", i, out, want, want*want)
		}
		want++
		if fail != nil {
			if err := fail(i); err != nil {
				return err
			}
		}
		s.sunk.Add(1)
		return nil
	}
}

func square(delay func(i int)) func(context.Context, int) int {
	return func(_ context.Context, i int) int {
		if delay != nil {
			delay(i)
		}
		return i * i
	}
}

func TestOrderAndWindowUnderRandomDelays(t *testing.T) {
	const n = 300
	for workers := 1; workers <= 8; workers++ {
		rng := rand.New(rand.NewSource(int64(workers)))
		delays := make([]time.Duration, n)
		for i := range delays {
			delays[i] = time.Duration(rng.Intn(200)) * time.Microsecond
		}
		src := &source{t: t, n: n, window: 2 * workers}
		res, err := Map(context.Background(), workers, src.next,
			square(func(i int) { time.Sleep(delays[i]) }), src.sink(nil))
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if res.Emitted != n {
			t.Errorf("workers %d: emitted %d of %d", workers, res.Emitted, n)
		}
		if res.PeakLive < 1 || res.PeakLive > 2*workers {
			t.Errorf("workers %d: PeakLive %d outside [1, %d]", workers, res.PeakLive, 2*workers)
		}
	}
}

// The case the old ingest reducer had no answer to: item 0 is slower
// than everything else together. The source must stall at the window
// instead of running ahead into the reorder buffer. It starts at two
// workers: a lone worker pulls only after sinking what it holds, so it
// cannot pull ahead of item 0 at all (and item 0, which waits for the
// window to fill, would wait forever).
func TestSlowFirstItemStallsTheSource(t *testing.T) {
	for workers := 2; workers <= 8; workers++ {
		window := 2 * workers
		src := &source{t: t, n: 20 * window, window: window}
		full := make(chan struct{})
		next := func() (int, bool) {
			i, ok := src.next()
			if ok && i == window-1 {
				close(full)
			}
			return i, ok
		}
		res, err := Map(context.Background(), workers, next, square(func(i int) {
			if i == 0 {
				// Hold item 0 until the window is full, then long
				// enough for an unbounded source to over-pull (which
				// src.next reports).
				<-full
				time.Sleep(20 * time.Millisecond)
			}
		}), src.sink(nil))
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if res.Emitted != src.n {
			t.Errorf("workers %d: emitted %d of %d", workers, res.Emitted, src.n)
		}
		if res.PeakLive > window {
			t.Errorf("workers %d: PeakLive %d exceeds %d", workers, res.PeakLive, window)
		}
		// The other workers finish items 1..window-1 while item 0
		// sleeps, so the observed peak is the whole window.
		if res.PeakLive != window {
			t.Errorf("workers %d: PeakLive %d, want the full window %d", workers, res.PeakLive, window)
		}
	}
}

func TestCancelLeavesCleanPrefix(t *testing.T) {
	for workers := 1; workers <= 8; workers++ {
		ctx, cancel := context.WithCancel(context.Background())
		const cancelAt = 40
		rng := rand.New(rand.NewSource(int64(workers)))
		var delays [64]time.Duration
		for i := range delays {
			delays[i] = time.Duration(rng.Intn(100)) * time.Microsecond
		}
		var mu sync.Mutex
		late := map[int]bool{} // items whose fn saw the dead context before returning
		src := &source{t: t, n: -1, window: 2 * workers}
		var emitted []int
		sink := src.sink(nil)
		res, err := Map(ctx, workers, src.next, func(ctx context.Context, i int) int {
			time.Sleep(delays[i%len(delays)])
			if i == cancelAt {
				cancel()
			}
			if ctx.Err() != nil {
				mu.Lock()
				late[i] = true
				mu.Unlock()
			}
			return i * i
		}, func(i, out int) error {
			emitted = append(emitted, i)
			return sink(i, out)
		})
		cancel()
		if err != nil {
			t.Fatalf("workers %d: cancellation surfaced as error %v", workers, err)
		}
		if res.Emitted != len(emitted) || res.Emitted > cancelAt {
			t.Errorf("workers %d: Emitted %d, sink saw %d, item %d cancelled", workers, res.Emitted, len(emitted), cancelAt)
		}
		for _, i := range emitted {
			if late[i] {
				t.Errorf("workers %d: item %d finished after the cancellation and was emitted", workers, i)
			}
		}
		for i := range late {
			if i < res.Emitted {
				t.Errorf("workers %d: late item %d lies inside the emitted prefix [0, %d)", workers, i, res.Emitted)
			}
		}
	}
}

func TestSinkErrorAbortsAndJoins(t *testing.T) {
	boom := errors.New("disk full")
	for workers := 1; workers <= 8; workers++ {
		const failAt = 25
		before := runtime.NumGoroutine()
		src := &source{t: t, n: -1, window: 2 * workers}
		calls := 0
		res, err := Map(context.Background(), workers, src.next, func(ctx context.Context, i int) int {
			if i > failAt {
				// Returns only because the sink error cancels ctx.
				<-ctx.Done()
			}
			return i * i
		}, src.sink(func(i int) error {
			calls++
			if i == failAt {
				return boom
			}
			return nil
		}))
		if !errors.Is(err, boom) {
			t.Fatalf("workers %d: error %v, want %v", workers, err, boom)
		}
		if calls != failAt+1 || res.Emitted != failAt {
			t.Errorf("workers %d: sink called %d times, Emitted %d; want %d and %d", workers, calls, res.Emitted, failAt+1, failAt)
		}
		// A worker's wg.Done is its last act before exiting; give the
		// scheduler a moment to retire it.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if now := runtime.NumGoroutine(); now > before {
			t.Errorf("workers %d: %d goroutines before Map, %d after", workers, before, now)
		}
	}
}

// Sink runs on whichever worker finished the head item, but never two
// at once and each call ordered before the next: the inside flag
// catches an overlap, and under -race a missing happens-before shows on
// got, which the sink grows unsynchronised and the test reads after Map
// returns.
func TestSinkCallsNeverOverlap(t *testing.T) {
	const n = 300
	for workers := 1; workers <= 8; workers++ {
		rng := rand.New(rand.NewSource(int64(workers)))
		delays := make([]time.Duration, n)
		for i := range delays {
			delays[i] = time.Duration(rng.Intn(50)) * time.Microsecond
		}
		src := &source{t: t, n: n, window: 2 * workers}
		sink := src.sink(nil)
		var inside atomic.Bool
		var got []int
		res, err := Map(context.Background(), workers, src.next,
			square(func(i int) { time.Sleep(delays[i]) }),
			func(i, out int) error {
				if !inside.CompareAndSwap(false, true) {
					t.Errorf("workers %d: sink entered concurrently at item %d", workers, i)
				}
				defer inside.Store(false)
				time.Sleep(delays[n-1-i])
				got = append(got, out)
				return sink(i, out)
			})
		if err != nil || res.Emitted != n || len(got) != n {
			t.Fatalf("workers %d: result %+v, error %v, sink kept %d; want %d", workers, res, err, len(got), n)
		}
	}
}

func TestAtMostWorkersFnInFlight(t *testing.T) {
	for workers := 1; workers <= 8; workers++ {
		var mu sync.Mutex
		inFlight, peak := 0, 0
		src := &source{t: t, n: 200, window: 2 * workers}
		_, err := Map(context.Background(), workers, src.next, square(func(i int) {
			mu.Lock()
			inFlight++
			peak = max(peak, inFlight)
			mu.Unlock()
			time.Sleep(time.Duration(i%5) * 20 * time.Microsecond)
			mu.Lock()
			inFlight--
			mu.Unlock()
		}), src.sink(nil))
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if peak > workers {
			t.Errorf("workers %d: %d fn calls in flight at once", workers, peak)
		}
	}
}

// goid names the calling goroutine, from the header runtime.Stack
// prints ("goroutine 7 [running]:").
func goid() string {
	buf := make([]byte, 64)
	return string(bytes.Fields(buf[:runtime.Stack(buf, false)])[1])
}

// Map starts workers-1 goroutines and no others: the caller is worker
// 0, and there is no producer, emitter or closer. With one worker
// nothing is started and next, fn and sink all run on the caller.
func TestNoGoroutinesBeyondTheWorkers(t *testing.T) {
	for workers := 1; workers <= 8; workers++ {
		before := runtime.NumGoroutine()
		caller := goid()
		var mu sync.Mutex
		peak := 0
		elsewhere := map[string]bool{}
		note := func(where string) {
			if workers == 1 && goid() != caller {
				mu.Lock()
				elsewhere[where] = true
				mu.Unlock()
			}
		}
		src := &source{t: t, n: 100, window: 2 * workers}
		sink := src.sink(nil)
		_, err := Map(context.Background(), workers,
			func() (int, bool) {
				note("next")
				return src.next()
			},
			square(func(int) {
				note("fn")
				mu.Lock()
				peak = max(peak, runtime.NumGoroutine())
				mu.Unlock()
				time.Sleep(20 * time.Microsecond)
			}),
			func(i, out int) error {
				note("sink")
				return sink(i, out)
			})
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if peak > before+workers-1 {
			t.Errorf("workers %d: %d goroutines inside fn, %d before Map; want at most %d more", workers, peak, before, workers-1)
		}
		if len(elsewhere) > 0 {
			t.Errorf("one worker: %v ran off the caller's goroutine", elsewhere)
		}
	}
}

func TestSmallSources(t *testing.T) {
	for _, tc := range []struct {
		name       string
		workers, n int
	}{
		{"empty source", 4, 0},
		{"one item", 4, 1},
		{"more workers than items", 16, 3},
		{"non-positive workers run as one", 0, 5},
	} {
		src := &source{t: t, n: tc.n, window: 2 * max(tc.workers, 1)}
		res, err := Map(context.Background(), tc.workers, src.next, square(nil), src.sink(nil))
		if err != nil || res.Emitted != tc.n || res.PeakLive > tc.n {
			t.Errorf("%s: result %+v, error %v; want %d emitted", tc.name, res, err, tc.n)
		}
	}
}

func TestCancelledBeforeStartPullsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	src := &source{t: t, n: 100, window: 8}
	res, err := Map(ctx, 4, src.next, square(nil), src.sink(nil))
	if err != nil || res.Emitted != 0 || src.pulled.Load() != 0 {
		t.Errorf("result %+v, error %v, %d pulled; want nothing", res, err, src.pulled.Load())
	}
}
