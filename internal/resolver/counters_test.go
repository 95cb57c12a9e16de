package resolver

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"dnssecboot/internal/dnswire"
	"dnssecboot/internal/transport"
)

// Table-driven audit of the Exchange counter contract against the
// fault-injecting MemNetwork: Queries counts every wire attempt,
// Retries counts attempts beyond the first that actually reached the
// wire, and GaveUp fires exactly once per exchange that exhausted its
// attempts — including single-attempt policies. The resolver-global
// instruments and the per-zone QueryStats carried in the context must
// agree.
func TestExchangeCounterContract(t *testing.T) {
	cases := []struct {
		name        string
		profile     transport.FaultProfile
		attempts    int
		wantQueries int64
		wantRetries int64
		wantGaveUp  int64
	}{
		{"clean success, one attempt", transport.FaultProfile{}, 1, 1, 0, 0},
		{"clean success, retries unused", transport.FaultProfile{}, 3, 1, 0, 0},
		{"succeeds on third attempt", transport.FaultProfile{FlakyEveryN: 3}, 3, 3, 2, 0},
		{"exhausts attempts on timeouts", transport.FaultProfile{Loss: 1}, 3, 3, 2, 1},
		{"single attempt exhausted counts gave-up", transport.FaultProfile{Loss: 1}, 1, 1, 0, 1},
		{"persistent servfail exhausted", transport.FaultProfile{ServFail: true}, 2, 2, 1, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, server := flakyWorld(t, tc.profile)
			if tc.attempts > 1 {
				r.Retry = &RetryPolicy{Attempts: tc.attempts}
			}
			ctx, stats := WithQueryStats(context.Background(), "test.")
			r.Exchange(ctx, server, "www.test.", dnswire.TypeA)
			if r.Queries() != tc.wantQueries || r.Retries() != tc.wantRetries || r.GaveUp() != tc.wantGaveUp {
				t.Errorf("resolver counters queries=%d retries=%d gaveUp=%d, want %d/%d/%d",
					r.Queries(), r.Retries(), r.GaveUp(), tc.wantQueries, tc.wantRetries, tc.wantGaveUp)
			}
			if q, rt, g := stats.Queries.Load(), stats.Retries.Load(), stats.GaveUp.Load(); q != tc.wantQueries || rt != tc.wantRetries || g != tc.wantGaveUp {
				t.Errorf("ctx stats queries=%d retries=%d gaveUp=%d, want %d/%d/%d",
					q, rt, g, tc.wantQueries, tc.wantRetries, tc.wantGaveUp)
			}
		})
	}
}

// TestExchangeHardFailureCountsNoGaveUp pins the difference between
// "exhausted" and "aborted": a hard failure (unreachable address)
// returns immediately and is not a gave-up exchange.
func TestExchangeHardFailureCountsNoGaveUp(t *testing.T) {
	r, _ := flakyWorld(t, transport.FaultProfile{})
	r.Retry = &RetryPolicy{Attempts: 4}
	dead := netip.AddrPortFrom(netip.MustParseAddr("198.51.100.99"), 53)
	ctx, stats := WithQueryStats(context.Background(), "test.")
	r.Exchange(ctx, dead, "www.test.", dnswire.TypeA)
	if r.Queries() != 1 || r.Retries() != 0 || r.GaveUp() != 0 {
		t.Errorf("queries=%d retries=%d gaveUp=%d, want 1/0/0", r.Queries(), r.Retries(), r.GaveUp())
	}
	if stats.GaveUp.Load() != 0 {
		t.Errorf("ctx gaveUp = %d, want 0", stats.GaveUp.Load())
	}
}

// TestZoneOf: the zone a stats context accounts to is read back below
// it, through contexts derived from it, and is "" outside one.
func TestZoneOf(t *testing.T) {
	ctx, _ := WithQueryStats(context.Background(), "example.")
	ctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	if got, none := ZoneOf(ctx), ZoneOf(context.Background()); got != "example." || none != "" {
		t.Errorf("ZoneOf = %q below the stats context and %q outside it, want example. and nothing", got, none)
	}
}

// TestExchangeCancelledBackoffCountsNoRetry pins the phantom-retry fix:
// a backoff sleep aborted by context cancellation never reaches the
// wire, so it must not count as a retry. The pre-fix code incremented
// Retries before sleeping, inflating the counter by one per cancelled
// exchange.
func TestExchangeCancelledBackoffCountsNoRetry(t *testing.T) {
	r, server := flakyWorld(t, transport.FaultProfile{Loss: 1})
	r.Retry = &RetryPolicy{Attempts: 3, BaseBackoff: 10 * time.Second}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	ctx, stats := WithQueryStats(ctx, "test.")
	_, err := r.Exchange(ctx, server, "www.test.", dnswire.TypeA)
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	// One wire attempt happened (the instant timeout from the lossy
	// server); the backoff before attempt two was cancelled, so no
	// retry ever reached the wire — and the exchange was aborted, not
	// exhausted, so GaveUp must stay zero too.
	if r.Queries() != 1 || r.Retries() != 0 || r.GaveUp() != 0 {
		t.Errorf("queries=%d retries=%d gaveUp=%d, want 1/0/0 (cancelled backoff)",
			r.Queries(), r.Retries(), r.GaveUp())
	}
	if stats.Retries.Load() != 0 || stats.GaveUp.Load() != 0 {
		t.Errorf("ctx retries=%d gaveUp=%d, want 0/0", stats.Retries.Load(), stats.GaveUp.Load())
	}
}
