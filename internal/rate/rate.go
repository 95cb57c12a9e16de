// Package rate implements a token-bucket rate limiter used by the
// scanner to cap per-nameserver query rates, mirroring the paper's
// 50-queries-per-second-per-NS scan policy (§3).
package rate

import (
	"context"
	"net/netip"
	"sync"
	"time"
)

// Limiter is a token bucket: capacity burst, refilled at rate tokens
// per second. The zero value is unusable; use NewLimiter.
type Limiter struct {
	mu       sync.Mutex
	rate     float64
	burst    float64
	tokens   float64
	last     time.Time
	now      func() time.Time
	sleep    func(context.Context, time.Duration) error
	observer func(time.Duration)
}

// NewLimiter returns a limiter allowing ratePerSec events per second
// with the given burst. ratePerSec <= 0 means unlimited. A burst below
// 1 is clamped to 1: the refill caps tokens at the burst, so a smaller
// bucket could never accumulate the single token Wait needs and every
// caller would block forever (e.g. a fractional q/s rate truncated to
// a zero burst).
func NewLimiter(ratePerSec float64, burst int) *Limiter {
	if ratePerSec > 0 && burst < 1 {
		burst = 1
	}
	l := &Limiter{
		rate:  ratePerSec,
		burst: float64(burst),
		now:   time.Now,
		sleep: sleepCtx,
	}
	l.tokens = l.burst
	l.last = l.now()
	return l
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// SetObserver registers fn to receive the time each successful Wait
// spent blocked on the bucket. Immediate acquisitions are not reported,
// so the observations measure rate-limit pressure, not call volume.
func (l *Limiter) SetObserver(fn func(time.Duration)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.observer = fn
}

func (l *Limiter) refillLocked() {
	t := l.now()
	elapsed := t.Sub(l.last).Seconds()
	if elapsed > 0 {
		l.tokens += elapsed * l.rate
		if l.tokens > l.burst {
			l.tokens = l.burst
		}
		l.last = t
	}
}

// Wait blocks until a token is available or ctx is done. It reserves
// its token under the lock: a negative balance is debt queued by
// earlier waiters, so the caller sleeps once, exactly until its own
// token is due, and never wakes for a token another waiter takes. A
// wait that ctx ends returns its token.
func (l *Limiter) Wait(ctx context.Context) error {
	if l.rate <= 0 {
		return ctx.Err()
	}
	l.mu.Lock()
	l.refillLocked()
	l.tokens--
	if l.tokens >= 0 {
		l.mu.Unlock()
		return nil
	}
	d := time.Duration(-l.tokens / l.rate * float64(time.Second))
	sleep, observer := l.sleep, l.observer
	l.mu.Unlock()
	// When the debt is a sub-nanosecond fraction of a token the
	// conversion truncates to 0; the floor makes every blocked wait a
	// real sleep.
	if d < minSleep {
		d = minSleep
	}
	if err := sleep(ctx, d); err != nil {
		l.mu.Lock()
		l.refillLocked()
		l.tokens = min(l.tokens+1, l.burst)
		l.mu.Unlock()
		return err
	}
	if observer != nil {
		observer(d)
	}
	return nil
}

// minSleep is the smallest duration Wait will ask the clock to sleep;
// see the truncation note in Wait.
const minSleep = time.Microsecond

// PerKey hands out one limiter per key (e.g. per nameserver address),
// creating them on demand. String and netip.Addr keys live in separate
// maps (two typed maps, rather than one map[any], so address lookups
// never box the key into an interface allocation); the two key spaces
// are independent.
type PerKey struct {
	mu       sync.RWMutex
	make     func() *Limiter
	limiter  map[string]*Limiter
	byAddr   map[netip.Addr]*Limiter
	observer func(time.Duration)
}

// NewPerKey returns a PerKey whose limiters allow ratePerSec with the
// given burst.
func NewPerKey(ratePerSec float64, burst int) *PerKey {
	return &PerKey{
		make:    func() *Limiter { return NewLimiter(ratePerSec, burst) },
		limiter: make(map[string]*Limiter),
		byAddr:  make(map[netip.Addr]*Limiter),
	}
}

// SetObserver installs a blocked-wait observer on every limiter the
// PerKey has created or will create (shared across keys, so one
// histogram aggregates rate-limit pressure over all servers).
func (p *PerKey) SetObserver(fn func(time.Duration)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.observer = fn
	for _, l := range p.limiter {
		l.SetObserver(fn)
	}
	for _, l := range p.byAddr {
		l.SetObserver(fn)
	}
}

// Get returns the limiter for key, creating it if needed.
func (p *PerKey) Get(key string) *Limiter {
	p.mu.RLock()
	l, ok := p.limiter[key]
	p.mu.RUnlock()
	if ok {
		return l
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if l, ok := p.limiter[key]; ok {
		return l
	}
	l = p.newLocked()
	p.limiter[key] = l
	return l
}

// GetAddr returns the limiter for an address key, creating it if
// needed. This is the query hot path: steady state takes one RLock and
// no allocations (no Addr.String round-trip, no interface boxing).
func (p *PerKey) GetAddr(addr netip.Addr) *Limiter {
	p.mu.RLock()
	l, ok := p.byAddr[addr]
	p.mu.RUnlock()
	if ok {
		return l
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if l, ok := p.byAddr[addr]; ok {
		return l
	}
	l = p.newLocked()
	p.byAddr[addr] = l
	return l
}

func (p *PerKey) newLocked() *Limiter {
	l := p.make()
	if p.observer != nil {
		l.SetObserver(p.observer)
	}
	return l
}

// Len returns the number of distinct keys seen (across both key
// spaces).
func (p *PerKey) Len() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.limiter) + len(p.byAddr)
}
