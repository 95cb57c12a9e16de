package resolver

import "net/netip"

// Queries returns the number of DNS queries issued so far.
func (r *Resolver) Queries() int64 { return r.metrics().Queries.Value() }

// Retries returns the number of retry attempts issued so far.
func (r *Resolver) Retries() int64 { return r.metrics().Retries.Value() }

// GaveUp returns the number of exchanges that exhausted every retry
// attempt without a usable answer.
func (r *Resolver) GaveUp() int64 { return r.metrics().GaveUp.Value() }

// TrailingBytes returns the total octets of trailing garbage observed
// after the last record of responses received so far.
func (r *Resolver) TrailingBytes() int64 { return r.metrics().Trailing.Value() }

// ServerTripped reports whether the health tracker currently
// deprioritises the address (circuit breaker open).
func (r *Resolver) ServerTripped(server netip.AddrPort) bool { return r.health.tripped(server) }

// NegativeLen reports the number of live negative entries (telemetry
// and tests).
func (c *Cache) NegativeLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.neg)
}

// waiters reports how many chains are currently blocked on flights
// (tests).
func (g *flightGroup) waiters() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.waits)
}

// tripped reports whether server is deprioritised.
func (h *healthTracker) tripped(server netip.AddrPort) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.m[server] >= trippedAfter
}
