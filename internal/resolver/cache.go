// Resolver-wide caching and deduplication. The paper's scan resolves
// the dependency tree of 287.6 M zones, which is only tractable because
// shared state — TLD delegations, NS address sets — is resolved once,
// not once per zone (the property that makes ZDNS-style toolkits viable
// at Internet scale). This file provides that layer:
//
//   - a positive delegation cache keyed by zone apex, so the root→TLD
//     walk happens once per TLD instead of once per target zone;
//   - a bounded negative cache for NXDOMAIN and lame-delegation
//     results, so known-dead parents fail fast;
//   - a singleflight group that collapses concurrent identical
//     Delegation / AddrsOf / zone-server walks, so 64 parallel zone
//     scans sharing a TLD issue one upstream query stream instead of
//     64. The group detects wait cycles between resolution chains
//     (mutually glue-less hosting resolved from two goroutines) and
//     falls back to duplicated local work rather than deadlocking.
//
// Every Resolver runs on this layer; one that was given no Cache builds
// a private one on first use.
package resolver

import (
	"context"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"dnssecboot/internal/obs"
)

// Cache is the state behind a Resolver's caching layer. Create it with
// NewCache and install it on Resolver.Cache before first use to share
// it between resolvers or to inject a clock.
type Cache struct {
	// NegTTL bounds how long negative (NXDOMAIN / lame delegation)
	// results are served from cache. Zero means 60 s.
	NegTTL time.Duration
	// MaxNegative bounds the number of negative entries (FIFO
	// eviction). Zero means 4096.
	MaxNegative int

	now func() time.Time

	mu       sync.Mutex
	pos      map[string]posEntry
	addrs    map[string][]netip.Addr
	neg      map[string]negEntry
	negOrder []string
}

// posEntry is one positive delegation-cache record: the authoritative
// server addresses for a name, and the apex of the zone they actually
// serve (the name itself for real cuts; the enclosing zone's apex for
// names that turned out not to be cuts). deleg is the delegation the
// entry was resolved from when zoneServers walked one for a cut, so a
// later Delegation call for the zone does not walk it again; it is nil
// for aliases, for cuts learned in passing from a referral, and when the
// walk's DS query failed (a transient failure must not decide DS for
// every later caller).
type posEntry struct {
	servers []netip.AddrPort
	apex    string
	deleg   *Delegation
}

type negEntry struct {
	err     error
	expires time.Time
}

// NewCache returns an empty cache. negTTL bounds negative-entry
// lifetime; zero uses the 60 s default.
func NewCache(negTTL time.Duration) *Cache {
	return &Cache{NegTTL: negTTL, now: time.Now}
}

// cache returns the resolver's cache, lazily building a private one
// when none was installed.
func (r *Resolver) cache() *Cache {
	r.cacheOnce.Do(func() {
		if r.Cache == nil {
			r.Cache = NewCache(0)
		}
	})
	return r.Cache
}

// SetClock injects a fake clock; for tests.
//
//lint:allow unused test seam: scan's denial-store tests age negative entries with it
func (c *Cache) SetClock(now func() time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = now
}

// Now reads the clock the resolver's cache ages its entries by, so a
// caller keeping answers of its own can age them on the same clock.
func (r *Resolver) Now() time.Time {
	c := r.cache()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now()
}

func (c *Cache) negTTL() time.Duration {
	if c.NegTTL <= 0 {
		return 60 * time.Second
	}
	return c.NegTTL
}

func (c *Cache) maxNegative() int {
	if c.MaxNegative <= 0 {
		return 4096
	}
	return c.MaxNegative
}

func (c *Cache) posLookup(zone string) (posEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.pos[zone]
	return e, ok
}

func (c *Cache) posStore(zone string, e posEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pos == nil {
		c.pos = make(map[string]posEntry)
	}
	c.pos[zone] = e
}

func (c *Cache) addrLookup(host string) ([]netip.Addr, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	a, ok := c.addrs[host]
	return a, ok
}

func (c *Cache) addrStore(host string, addrs []netip.Addr) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.addrs == nil {
		c.addrs = make(map[string][]netip.Addr)
	}
	c.addrs[host] = addrs
}

func (c *Cache) negLookup(zone string) (error, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.neg[zone]
	if !ok {
		return nil, false
	}
	if c.now().After(e.expires) {
		delete(c.neg, zone)
		return nil, false
	}
	return e.err, true
}

func (c *Cache) negStore(zone string, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.neg == nil {
		c.neg = make(map[string]negEntry)
	}
	if _, exists := c.neg[zone]; !exists {
		c.negOrder = append(c.negOrder, zone)
	}
	c.neg[zone] = negEntry{err: err, expires: c.now().Add(c.negTTL())}
	for len(c.neg) > c.maxNegative() && len(c.negOrder) > 0 {
		oldest := c.negOrder[0]
		c.negOrder = c.negOrder[1:]
		delete(c.neg, oldest)
	}
}

// --- resolution chains ---
//
// A chain is one top-level resolver call tree (one Delegation, Lookup
// or AddrsOf from outside). The chain id travels in the context so the
// singleflight group can detect wait cycles between chains, and the
// per-chain visited set is the AddrsOf cycle guard: a host being
// resolved twice on the SAME chain is a genuine cycle, while two
// different chains resolving the same host should coalesce, not error.

type chainIDKey struct{}
type visitedKey struct{}

var chainCounter atomic.Uint64

func withChain(ctx context.Context) (context.Context, uint64) {
	if id, ok := ctx.Value(chainIDKey{}).(uint64); ok {
		return ctx, id
	}
	id := chainCounter.Add(1)
	return context.WithValue(ctx, chainIDKey{}, id), id
}

// withVisited returns the chain's visited-host set, creating it on
// first use. The set is only ever touched by the chain's own goroutine
// (singleflight fn closures run on the leader's goroutine with the
// leader's context), so no locking is needed.
func withVisited(ctx context.Context) (context.Context, map[string]bool) {
	if m, ok := ctx.Value(visitedKey{}).(map[string]bool); ok {
		return ctx, m
	}
	m := make(map[string]bool)
	return context.WithValue(ctx, visitedKey{}, m), m
}

// --- singleflight ---

// flightCall is one in-progress deduplicated execution.
type flightCall struct {
	leader uint64 // chain id of the executing caller
	done   chan struct{}
	val    any
	err    error
}

// flightGroup collapses concurrent calls with the same key onto one
// execution. Unlike x/sync/singleflight it is cycle-aware: a caller
// whose wait would close a loop of chains waiting on each other's
// flights executes the work locally instead (duplicated but correct —
// the per-chain visited set bounds recursion), so mutually glue-less
// hosting resolved from two goroutines cannot deadlock the scan.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
	waits map[uint64]string // chain id -> flight key it is waiting on

	// onWait, when set, is called (outside the lock) each time a chain
	// registers as a waiter on a flight, with the flight's key. Tests
	// use it for channel-based synchronisation instead of polling
	// waiters() against a wall clock.
	onWait func(key string)
}

// Do executes fn once for all concurrent callers sharing key. shared
// reports whether this caller piggybacked on another chain's execution.
func (g *flightGroup) Do(ctx context.Context, chain uint64, key string, fn func() (any, error)) (val any, shared bool, err error) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = make(map[string]*flightCall)
		g.waits = make(map[uint64]string)
	}
	if c, ok := g.calls[key]; ok {
		if c.leader == chain || g.wouldCycleLocked(chain, c.leader) {
			g.mu.Unlock()
			v, e := fn()
			return v, false, e
		}
		g.waits[chain] = key
		onWait := g.onWait
		g.mu.Unlock()
		if onWait != nil {
			onWait(key)
		}
		select {
		case <-c.done:
			g.mu.Lock()
			delete(g.waits, chain)
			g.mu.Unlock()
			return c.val, true, c.err
		case <-ctx.Done():
			g.mu.Lock()
			delete(g.waits, chain)
			g.mu.Unlock()
			return nil, true, ctx.Err()
		}
	}
	c := &flightCall{leader: chain, done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()

	c.val, c.err = fn()

	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	close(c.done)
	return c.val, false, c.err
}

// wouldCycleLocked walks the waits-for graph: if the prospective
// leader's chain is (transitively) waiting on a flight led by `chain`,
// joining would deadlock. Each chain waits on at most one flight at a
// time, so the graph is functional and the walk is linear.
func (g *flightGroup) wouldCycleLocked(chain, leader uint64) bool {
	for hops := 0; hops < 256; hops++ {
		if leader == chain {
			return true
		}
		key, ok := g.waits[leader]
		if !ok {
			return false
		}
		c, ok := g.calls[key]
		if !ok {
			return false
		}
		leader = c.leader
	}
	return true // pathological depth: assume a cycle, duplicate locally
}

// --- counter plumbing ---
//
// Each note* records the event on the resolver-wide instruments, the
// per-zone QueryStats carried in the context, and — when the zone is
// being traced — the zone's span. kind and name make the name of the
// cache entry involved ("d:<zone>", "z:<zone>", "a:<host>"), which is
// built only for the trace.

// NoteCacheHit is exported for callers that answer a lookup from state
// of their own instead of asking — the scanner's validated NSEC denials
// ("nsec:<name>") — so their hits land on the same counters and trace.
func (r *Resolver) NoteCacheHit(ctx context.Context, kind, name string) {
	r.metrics().CacheHits.Inc()
	if st := statsFrom(ctx); st != nil {
		st.CacheHits.Add(1)
	}
	noteSpan(ctx, "cache_hit", kind, name)
}

func (r *Resolver) noteCacheMiss(ctx context.Context, kind, name string) {
	r.metrics().CacheMisses.Inc()
	if st := statsFrom(ctx); st != nil {
		st.CacheMisses.Add(1)
	}
	noteSpan(ctx, "cache_miss", kind, name)
}

func (r *Resolver) noteCoalesced(ctx context.Context, kind, name string) {
	r.metrics().Coalesced.Inc()
	if st := statsFrom(ctx); st != nil {
		st.Coalesced.Add(1)
	}
	noteSpan(ctx, "coalesced", kind, name)
}

// noteSpan emits a resolve-stage event naming the cache entry kind:name
// when ctx carries a span.
func noteSpan(ctx context.Context, event, kind, name string) {
	if sp := obs.SpanFrom(ctx); sp != nil {
		sp.Emit(obs.TraceEvent{Stage: "resolve", Event: event, Name: kind + ":" + name})
	}
}
