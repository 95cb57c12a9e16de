package rate

import (
	"context"
	"time"
)

// SetClock injects a fake clock; for tests.
func (l *Limiter) SetClock(now func() time.Time, sleep func(context.Context, time.Duration) error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.now = now
	l.sleep = sleep
	l.last = now()
}

// Allow reports whether one event may proceed now, consuming a token if
// so.
func (l *Limiter) Allow() bool {
	if l.rate <= 0 {
		return true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.refillLocked()
	if l.tokens >= 1 {
		l.tokens--
		return true
	}
	return false
}
