package rate

import (
	"context"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

type fakeClock struct {
	t time.Time
}

func (f *fakeClock) now() time.Time { return f.t }
func (f *fakeClock) sleep(_ context.Context, d time.Duration) error {
	f.t = f.t.Add(d)
	return nil
}

func TestAllowBurstAndRefill(t *testing.T) {
	fc := &fakeClock{t: time.Unix(0, 0)}
	l := NewLimiter(10, 5)
	l.SetClock(fc.now, fc.sleep)
	for i := 0; i < 5; i++ {
		if !l.Allow() {
			t.Fatalf("burst token %d denied", i)
		}
	}
	if l.Allow() {
		t.Fatal("6th immediate token allowed")
	}
	fc.t = fc.t.Add(100 * time.Millisecond) // refills one token at 10/s
	if !l.Allow() {
		t.Fatal("token after refill denied")
	}
	if l.Allow() {
		t.Fatal("second token after single refill allowed")
	}
}

func TestRefillCapsAtBurst(t *testing.T) {
	fc := &fakeClock{t: time.Unix(0, 0)}
	l := NewLimiter(1000, 3)
	l.SetClock(fc.now, fc.sleep)
	fc.t = fc.t.Add(time.Hour)
	allowed := 0
	for i := 0; i < 10; i++ {
		if l.Allow() {
			allowed++
		}
	}
	if allowed != 3 {
		t.Errorf("allowed %d after long idle, want burst 3", allowed)
	}
}

func TestWaitAdvancesClock(t *testing.T) {
	fc := &fakeClock{t: time.Unix(0, 0)}
	l := NewLimiter(10, 1)
	l.SetClock(fc.now, fc.sleep)
	ctx := context.Background()
	start := fc.t
	for i := 0; i < 4; i++ {
		if err := l.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := fc.t.Sub(start)
	// 1 burst token + 3 waits at 10/s ≈ 300ms of simulated waiting.
	if elapsed < 250*time.Millisecond || elapsed > 400*time.Millisecond {
		t.Errorf("simulated elapsed = %v", elapsed)
	}
}

func TestWaitCancelled(t *testing.T) {
	l := NewLimiter(0.001, 1)
	if !l.Allow() {
		t.Fatal("first token denied")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := l.Wait(ctx); err == nil {
		t.Error("Wait on cancelled context returned nil")
	}
}

func TestUnlimited(t *testing.T) {
	l := NewLimiter(0, 0)
	for i := 0; i < 1000; i++ {
		if !l.Allow() {
			t.Fatal("unlimited limiter denied")
		}
	}
	if err := l.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestPerKeyIsolation(t *testing.T) {
	p := NewPerKey(10, 1)
	a, b := p.Get("192.0.2.1"), p.Get("192.0.2.2")
	if a == b {
		t.Fatal("distinct keys share a limiter")
	}
	if p.Get("192.0.2.1") != a {
		t.Fatal("same key returned a different limiter")
	}
	if !a.Allow() {
		t.Fatal("fresh limiter denied")
	}
	if a.Allow() {
		t.Fatal("burst-1 limiter allowed twice")
	}
	if !b.Allow() {
		t.Fatal("second key's limiter affected by first")
	}
	if p.Len() != 2 {
		t.Errorf("Len = %d", p.Len())
	}
}

// recordingClock is a fakeClock that records every duration Wait asks
// it to sleep, advancing the simulated time by that amount.
type recordingClock struct {
	t      time.Time
	sleeps []time.Duration
}

func (f *recordingClock) now() time.Time { return f.t }
func (f *recordingClock) sleep(_ context.Context, d time.Duration) error {
	f.sleeps = append(f.sleeps, d)
	// Advance at least 1 ns even for a zero-duration sleep so a buggy
	// Wait spins to completion (and fails the assertion) instead of
	// hanging the test in an infinite zero-progress loop.
	if d <= 0 {
		d = time.Nanosecond
	}
	f.t = f.t.Add(d)
	return nil
}

// TestWaitNeverSleepsZero pins the busy-spin fix: with tokens just
// under 1, need = (1-tokens)/rate is a sub-nanosecond fraction of a
// second and time.Duration(need*1e9) truncates to 0 ns. Pre-fix, Wait
// passed that 0 to the sleeper — under the real clock this re-locked
// the mutex in a tight spin until the wall clock ticked. The fixed Wait
// clamps every sleep to at least minSleep.
func TestWaitNeverSleepsZero(t *testing.T) {
	fc := &recordingClock{t: time.Unix(0, 0)}
	l := NewLimiter(3, 1)
	l.SetClock(fc.now, fc.sleep)
	ctx := context.Background()
	if err := l.Wait(ctx); err != nil { // consume the burst token
		t.Fatal(err)
	}
	// Refill 333333333 ns at 3 tokens/s: tokens = 0.999999999, so the
	// remaining need is ~3.3e-10 s, which truncates to 0 ns.
	fc.t = fc.t.Add(333333333 * time.Nanosecond)
	if err := l.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if len(fc.sleeps) == 0 {
		t.Fatal("second Wait acquired without sleeping; fixture broken")
	}
	for i, d := range fc.sleeps {
		if d <= 0 {
			t.Fatalf("sleep %d was %v; Wait busy-spins under the real clock", i, d)
		}
	}
}

// TestWaitSleepsOncePerBlockedWait pins the reservation rule on the real
// clock: each blocked Wait sleeps exactly once, until its own token is
// due. A waiter that sleeps until the next token and retries wakes with
// every other waiter, and all but one sleep again: many sleeps per
// blocked wait, and a limiter slower than its configured rate.
func TestWaitSleepsOncePerBlockedWait(t *testing.T) {
	const (
		goroutines = 16
		waits      = 50
		perSecond  = 1000
	)
	var sleeps, observed atomic.Int64
	l := NewLimiter(perSecond, 1)
	l.SetClock(time.Now, func(ctx context.Context, d time.Duration) error {
		sleeps.Add(1)
		return sleepCtx(ctx, d)
	})
	l.SetObserver(func(time.Duration) { observed.Add(1) })
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < waits; i++ {
				if err := l.Wait(context.Background()); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if s, o := sleeps.Load(), observed.Load(); s != o {
		t.Errorf("%d sleeps for %d blocked waits, want one each", s, o)
	}
	// The burst token is free; every other one is due 1/rate after the
	// one before it, so the limiter can never finish early.
	if floor := time.Duration(goroutines*waits-1) * time.Second / perSecond; elapsed < floor {
		t.Errorf("%d waits took %v, the rate allows no less than %v", goroutines*waits, elapsed, floor)
	}
}

// TestWaitCancelledReturnsToken: a wait ended by its context gives its
// reservation back, so it does not delay the waiters behind it.
func TestWaitCancelledReturnsToken(t *testing.T) {
	fc := &fakeClock{t: time.Unix(0, 0)}
	l := NewLimiter(10, 1)
	l.SetClock(fc.now, func(ctx context.Context, _ time.Duration) error { return ctx.Err() })
	if !l.Allow() {
		t.Fatal("burst token denied")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := l.Wait(ctx); err == nil {
		t.Fatal("cancelled Wait returned nil")
	}
	fc.t = fc.t.Add(100 * time.Millisecond) // one token at 10/s
	if !l.Allow() {
		t.Error("the token after a refill went to the cancelled wait")
	}
}

// TestPerKeyAddrIsolation covers the addr-keyed fast path: distinct
// addresses get distinct limiters, lookups are stable, and the addr and
// string key spaces are independent.
func TestPerKeyAddrIsolation(t *testing.T) {
	p := NewPerKey(10, 1)
	a1 := netip.MustParseAddr("192.0.2.1")
	a2 := netip.MustParseAddr("192.0.2.2")
	la, lb := p.GetAddr(a1), p.GetAddr(a2)
	if la == lb {
		t.Fatal("distinct addrs share a limiter")
	}
	if p.GetAddr(a1) != la {
		t.Fatal("same addr returned a different limiter")
	}
	// String and addr key spaces are independent maps.
	if p.Get(a1.String()) == la {
		t.Fatal("string key aliased the addr key space")
	}
	if p.Len() != 3 {
		t.Errorf("Len = %d, want 3", p.Len())
	}
	if !la.Allow() {
		t.Fatal("fresh limiter denied")
	}
	if la.Allow() {
		t.Fatal("burst-1 limiter allowed twice")
	}
	if !lb.Allow() {
		t.Fatal("second addr's limiter affected by first")
	}
}

// TestPerKeyObserverCoversAddrLimiters ensures SetObserver reaches
// limiters in both key spaces, created before or after installation.
func TestPerKeyObserverCoversAddrLimiters(t *testing.T) {
	p := NewPerKey(1000, 1)
	before := p.GetAddr(netip.MustParseAddr("2001:db8::1"))
	var observed int
	p.SetObserver(func(time.Duration) { observed++ })
	after := p.GetAddr(netip.MustParseAddr("2001:db8::2"))
	ctx := context.Background()
	for _, l := range []*Limiter{before, after} {
		fc := &fakeClock{t: time.Unix(0, 0)}
		l.SetClock(fc.now, fc.sleep)
		l.Wait(ctx) // burst token, unobserved
		l.Wait(ctx) // blocked wait, observed
	}
	if observed != 2 {
		t.Errorf("observed %d blocked waits, want 2", observed)
	}
}

// TestZeroBurstClamped pins the burst clamp: a positive rate with a
// burst below 1 (e.g. a fractional q/s rate truncated to zero when
// sizing the bucket) used to build a limiter whose refill capped tokens
// at 0, so Allow never granted and Wait blocked forever.
func TestZeroBurstClamped(t *testing.T) {
	l := NewLimiter(100, 0)
	if !l.Allow() {
		t.Error("limiter with clamped burst denied its first token")
	}

	l2 := NewLimiter(1000, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- l2.Wait(ctx) }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Wait = %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait blocked forever on a zero-burst limiter")
	}

	// Negative bursts clamp the same way.
	if !NewLimiter(1, -3).Allow() {
		t.Error("negative burst not clamped")
	}
	// rate <= 0 stays unlimited regardless of burst.
	if !NewLimiter(0, 0).Allow() {
		t.Error("unlimited limiter denied")
	}
}
