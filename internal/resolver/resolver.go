// Package resolver implements an iterative DNS resolver in the style
// the YoDNS scanner needs: it primes from root hints, follows
// referrals, resolves nameserver addresses (glue or out-of-bailiwick),
// and exposes the delegation information (parent-side NS and DS RRsets)
// for any zone. All traffic flows through a transport.Exchanger, so the
// same code runs against the in-memory simulation or real servers.
package resolver

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"

	"dnssecboot/internal/dnswire"
	"dnssecboot/internal/rate"
	"dnssecboot/internal/transport"
)

// Errors reported by resolution.
var (
	ErrNXDomain    = errors.New("resolver: name does not exist")
	ErrNoServers   = errors.New("resolver: no reachable nameservers")
	ErrLoop        = errors.New("resolver: referral or alias loop")
	ErrLameReferal = errors.New("resolver: lame delegation")
)

// NXDomainError is Lookup's error for an NXDOMAIN answer. It carries
// the answer's authority section — the SOA and, from a signed zone, the
// denial records with their RRSIGs — and unwraps to ErrNXDomain.
type NXDomainError struct {
	Name      string
	Authority []dnswire.RR
}

func (e *NXDomainError) Error() string { return ErrNXDomain.Error() + ": " + e.Name }

func (e *NXDomainError) Unwrap() error { return ErrNXDomain }

// Resolver is an iterative resolver. Fields must be set before first
// use and not changed afterwards.
type Resolver struct {
	// Net carries the queries.
	Net transport.Exchanger
	// Roots are the root server addresses (priming hints).
	Roots []netip.AddrPort
	// Limits, when non-nil, rate-limits queries per server address.
	Limits *rate.PerKey
	// MaxDepth bounds referral chains; zero means 16.
	MaxDepth int
	// DefaultPort is used when building server addresses from NS
	// address records (zero means 53). Setting it lets whole worlds run
	// on unprivileged loopback ports.
	DefaultPort uint16
	// Retry, when non-nil, retries transient failures (timeouts,
	// SERVFAIL) per server with backoff. Nil means one attempt.
	Retry *RetryPolicy
	// Cache is the state behind the caching and singleflight layer
	// (cache.go): Delegation starts from the deepest cached ancestor
	// instead of re-walking the root, NXDOMAIN/lame parents fail fast
	// from the negative cache, and concurrent identical
	// Delegation/AddrsOf/zone-server walks coalesce onto one upstream
	// query stream. Set it to share or inject a cache; nil lazily builds
	// a private one. Resolution that must share nothing with earlier
	// lookups uses a fresh Resolver.
	Cache *Cache
	// Obs, when non-nil, is the resolver's instrument set (usually
	// NewMetrics over a shared obs.Registry). Nil lazily builds one on
	// a private registry on first use, after which Obs reads the
	// resolver's counters.
	Obs *Metrics

	obsOnce   sync.Once
	cacheOnce sync.Once
	health    healthTracker
	flight    flightGroup
}

// CacheHits returns the number of lookups served from the cache.
func (r *Resolver) CacheHits() int64 { return r.metrics().CacheHits.Value() }

// CacheMisses returns the number of cache probes that found no entry.
func (r *Resolver) CacheMisses() int64 { return r.metrics().CacheMisses.Value() }

// Coalesced returns the number of calls that piggybacked on another
// chain's in-flight execution instead of issuing their own queries.
func (r *Resolver) Coalesced() int64 { return r.metrics().Coalesced.Value() }

// Port returns the server port used for NS-derived addresses.
func (r *Resolver) Port() uint16 {
	if r.DefaultPort == 0 {
		return 53
	}
	return r.DefaultPort
}

func (r *Resolver) maxDepth() int {
	if r.MaxDepth <= 0 {
		return 16
	}
	return r.MaxDepth
}

var idCounter atomic.Uint32

func nextID() uint16 {
	return uint16(idCounter.Add(1))
}

// Delegation describes the parent side of a zone cut plus the resolved
// server addresses for the child zone.
type Delegation struct {
	// Zone is the child apex.
	Zone string
	// ParentNS is the delegation NS RRset as served by the parent.
	ParentNS []dnswire.RR
	// DS is the DS RRset at the parent (empty for insecure
	// delegations), and DSSigs its RRSIGs.
	DS     []dnswire.RR
	DSSigs []dnswire.RR
	// Glue holds address records from the referral's additional
	// section.
	Glue []dnswire.RR
	// ParentZone is the apex of the delegating zone.
	ParentZone string
	// ParentServers are the addresses of the parent zone's servers
	// (useful for re-querying DS).
	ParentServers []netip.AddrPort

	// dsFailed marks a walk whose explicit DS query failed, leaving DS
	// possibly empty for a secure zone; zoneServers does not keep such
	// a delegation for later callers.
	dsFailed bool
}

// NSHosts returns the delegation's nameserver hostnames.
func (d *Delegation) NSHosts() []string {
	if len(d.ParentNS) == 0 {
		return nil
	}
	out := make([]string, 0, len(d.ParentNS))
	for _, rr := range d.ParentNS {
		out = append(out, rr.Data.(*dnswire.NS).Target)
	}
	return out
}

// Delegation walks from the root to the parent of zoneName and returns
// the delegation data. It fails with ErrNXDomain if the parent denies
// the name. The walk starts from the deepest cached ancestor zone (so
// the root→TLD prefix is resolved once per TLD, not once per target),
// known-dead names fail fast from the negative cache, and concurrent
// calls for the same zone coalesce. A zone cut whose servers were
// resolved through Delegation (zoneServers) returns that walk's result.
func (r *Resolver) Delegation(ctx context.Context, zoneName string) (*Delegation, error) {
	zoneName = dnswire.CanonicalName(zoneName)
	if err, ok := r.cache().negLookup(zoneName); ok {
		r.NoteCacheHit(ctx)
		return nil, err
	}
	if e, ok := r.cache().posLookup(zoneName); ok && e.deleg != nil {
		r.NoteCacheHit(ctx)
		return e.deleg, nil
	}
	ctx, chain := withChain(ctx)
	v, shared, err := r.flight.Do(ctx, chain, flightKey{'d', zoneName}, func() (any, error) {
		servers, apex := r.startPoint(ctx, zoneName)
		d, derr := r.delegationFrom(ctx, zoneName, servers, apex)
		if derr != nil && (errors.Is(derr, ErrNXDomain) || errors.Is(derr, ErrLameReferal)) {
			r.cache().negStore(zoneName, derr)
		}
		return d, derr
	})
	if shared {
		r.noteCoalesced(ctx)
	}
	if err != nil {
		return nil, err
	}
	return v.(*Delegation), nil
}

// startPoint picks where the delegation walk for zoneName begins: the
// target's parent zone when its servers are (or become) cached, the
// root otherwise. Failures resolving the parent fall back to the
// uncached full walk so transient errors never pin a bad start.
func (r *Resolver) startPoint(ctx context.Context, zoneName string) ([]netip.AddrPort, string) {
	if zoneName == "." {
		return r.Roots, "."
	}
	servers, apex, err := r.zoneServers(ctx, dnswire.Parent(zoneName))
	if err != nil {
		return r.Roots, "."
	}
	return servers, apex
}

// zoneServers resolves (and caches) the authoritative server addresses
// for a zone apex, coalescing concurrent walks for the same zone. For
// names that turn out not to be zone cuts (empty non-terminals, names
// hosted in the parent) it aliases to the enclosing zone's servers.
func (r *Resolver) zoneServers(ctx context.Context, zoneName string) ([]netip.AddrPort, string, error) {
	if zoneName == "." {
		return r.Roots, ".", nil
	}
	if e, ok := r.cache().posLookup(zoneName); ok {
		r.NoteCacheHit(ctx)
		return e.servers, e.apex, nil
	}
	r.noteCacheMiss(ctx)
	ctx, chain := withChain(ctx)
	v, shared, err := r.flight.Do(ctx, chain, flightKey{'z', zoneName}, func() (any, error) {
		d, derr := r.Delegation(ctx, zoneName)
		if derr != nil {
			if !errors.Is(derr, ErrNXDomain) && !errors.Is(derr, ErrLameReferal) {
				return posEntry{}, derr // transient: do not alias, do not cache
			}
			ps, papex, perr := r.zoneServers(ctx, dnswire.Parent(zoneName))
			if perr != nil {
				return posEntry{}, derr
			}
			e := posEntry{servers: ps, apex: papex}
			r.cache().posStore(zoneName, e)
			return e, nil
		}
		srv, serr := r.serversForDelegation(ctx, d)
		if serr != nil {
			return posEntry{}, serr
		}
		e := posEntry{servers: srv, apex: zoneName}
		if !d.dsFailed {
			e.deleg = d
		}
		r.cache().posStore(zoneName, e)
		return e, nil
	})
	if shared {
		r.noteCoalesced(ctx)
	}
	if err != nil {
		return nil, "", err
	}
	e := v.(posEntry)
	return e.servers, e.apex, nil
}

// delegationFrom performs the iterative referral walk for zoneName
// starting at the given servers, which are authoritative for
// currentZone.
func (r *Resolver) delegationFrom(ctx context.Context, zoneName string, servers []netip.AddrPort, currentZone string) (*Delegation, error) {
	for depth := 0; depth < r.maxDepth(); depth++ {
		resp, server, err := r.queryAny(ctx, servers, zoneName, dnswire.TypeNS)
		if err != nil {
			return nil, err
		}
		switch {
		case resp.Rcode == dnswire.RcodeNXDomain:
			return nil, fmt.Errorf("%w: %s (parent %s)", ErrNXDomain, zoneName, currentZone)
		case resp.Rcode != dnswire.RcodeNoError:
			return nil, fmt.Errorf("resolver: %s from %s for %s", resp.Rcode, server, zoneName)
		}

		if cut, nsSet := referralCut(resp); cut != "" {
			// A referral must move the walk strictly downward toward
			// the target: the cut strictly below the zone this server
			// serves, and the target at or below the cut. Upward,
			// sideways or unrelated referrals would otherwise spin to
			// MaxDepth — and, with delegations cached, poison the
			// shared cache for every later scan of the subtree.
			if !dnswire.IsSubdomain(cut, currentZone) || cut == currentZone || !dnswire.IsSubdomain(zoneName, cut) {
				return nil, fmt.Errorf("%w: referral to %s from %s (serving %s) for %s",
					ErrLoop, cut, server, currentZone, zoneName)
			}
			d := &Delegation{
				Zone:          cut,
				ParentNS:      nsSet,
				ParentZone:    currentZone,
				ParentServers: servers,
			}
			for _, rr := range resp.Authority {
				switch rr.Type() {
				case dnswire.TypeDS:
					if dnswire.CanonicalName(rr.Name) == cut {
						d.DS = append(d.DS, rr)
					}
				case dnswire.TypeRRSIG:
					sig := rr.Data.(*dnswire.RRSIG)
					if sig.TypeCovered == dnswire.TypeDS && dnswire.CanonicalName(rr.Name) == cut {
						d.DSSigs = append(d.DSSigs, rr)
					}
					// A server hosting several levels of the tree refers
					// from the deepest zone it has, which lies below
					// currentZone whenever the walk started higher up (at
					// the roots after a failed parent lookup). The signer
					// of the referral's DS or denial RRSIG names the zone
					// that really delegates, wherever the walk began.
					signer := dnswire.CanonicalName(sig.SignerName)
					if signer != cut && dnswire.IsSubdomain(cut, signer) && dnswire.IsSubdomain(signer, currentZone) {
						d.ParentZone = signer
					}
				}
			}
			for _, rr := range resp.Additional {
				if rr.Type() == dnswire.TypeA || rr.Type() == dnswire.TypeAAAA {
					d.Glue = append(d.Glue, rr)
				}
			}
			if cut == zoneName {
				return d, nil
			}
			// Descend.
			next, err := r.serversForDelegation(ctx, d)
			if err != nil {
				return nil, err
			}
			servers = next
			currentZone = cut
			r.cache().posStore(cut, posEntry{servers: next, apex: cut})
			continue
		}

		if resp.Authoritative {
			// The server answered authoritatively: either it hosts both
			// parent and child (no referral visible), or zoneName is not
			// a zone cut at all. Synthesize from the answer's NS set.
			var nsSet []dnswire.RR
			for _, rr := range resp.Answer {
				if rr.Type() == dnswire.TypeNS && dnswire.CanonicalName(rr.Name) == zoneName {
					nsSet = append(nsSet, rr)
				}
			}
			if len(nsSet) == 0 {
				return nil, fmt.Errorf("%w: no NS for %s at %s", ErrLameReferal, zoneName, server)
			}
			d := &Delegation{Zone: zoneName, ParentNS: nsSet, ParentZone: currentZone, ParentServers: servers}
			// DS must be fetched from the parent explicitly.
			dsResp, _, err := r.queryAny(ctx, servers, zoneName, dnswire.TypeDS)
			d.dsFailed = err != nil || dsResp.Rcode != dnswire.RcodeNoError
			if !d.dsFailed {
				for _, rr := range dsResp.Answer {
					switch rr.Type() {
					case dnswire.TypeDS:
						d.DS = append(d.DS, rr)
					case dnswire.TypeRRSIG:
						if rr.Data.(*dnswire.RRSIG).TypeCovered == dnswire.TypeDS {
							d.DSSigs = append(d.DSSigs, rr)
						}
					}
				}
			}
			// A server hosting both parent and child answers without a
			// visible referral, leaving currentZone at whatever level
			// the walk reached. The DS RRSIG names the true delegating
			// zone.
			if len(d.DSSigs) > 0 {
				d.ParentZone = dnswire.CanonicalName(d.DSSigs[0].Data.(*dnswire.RRSIG).SignerName)
			}
			return d, nil
		}
		return nil, fmt.Errorf("%w: non-authoritative non-referral from %s for %s", ErrLameReferal, server, zoneName)
	}
	return nil, ErrLoop
}

// referralCut inspects a response for referral shape and returns the
// cut name and NS set: the authority section's NS records owned by the
// first one's name. A set that is one run of the section, as servers
// send it, is returned as that part of the section, capped so an append
// copies it; otherwise it is gathered into a slice of its own.
func referralCut(resp *dnswire.Message) (string, []dnswire.RR) {
	if resp.Authoritative || len(resp.Answer) > 0 {
		return "", nil
	}
	isNSAt := func(rr dnswire.RR, cut string) bool {
		return rr.Type() == dnswire.TypeNS && dnswire.CanonicalName(rr.Name) == cut
	}
	first := slices.IndexFunc(resp.Authority, func(rr dnswire.RR) bool { return rr.Type() == dnswire.TypeNS })
	if first < 0 {
		return "", nil
	}
	cut := dnswire.CanonicalName(resp.Authority[first].Name)
	end := first + 1
	for end < len(resp.Authority) && isNSAt(resp.Authority[end], cut) {
		end++
	}
	nsSet := resp.Authority[first:end:end]
	for _, rr := range resp.Authority[end:] {
		if isNSAt(rr, cut) {
			nsSet = append(nsSet, rr)
		}
	}
	return cut, nsSet
}

// serversForDelegation resolves the delegation's NS hostnames to
// addresses, preferring glue.
func (r *Resolver) serversForDelegation(ctx context.Context, d *Delegation) ([]netip.AddrPort, error) {
	var out []netip.AddrPort
	glueByHost := make(map[string][]netip.Addr)
	for _, rr := range d.Glue {
		host := dnswire.CanonicalName(rr.Name)
		switch a := rr.Data.(type) {
		case *dnswire.A:
			glueByHost[host] = append(glueByHost[host], a.Addr)
		case *dnswire.AAAA:
			glueByHost[host] = append(glueByHost[host], a.Addr)
		}
	}
	var needsResolve []string
	for _, rr := range d.ParentNS {
		host := rr.Data.(*dnswire.NS).Target
		addrs := glueByHost[dnswire.CanonicalName(host)]
		if len(addrs) == 0 {
			needsResolve = append(needsResolve, host)
			continue
		}
		for _, a := range addrs {
			out = append(out, netip.AddrPortFrom(a, r.Port()))
		}
	}
	// Only chase glue-less (out-of-bailiwick) NS hosts when the glue
	// gave us nothing — resolving them eagerly can recurse through
	// mutually-hosted zones, and for descending the tree any one
	// reachable server suffices.
	if len(out) == 0 {
		for _, host := range needsResolve {
			addrs, err := r.AddrsOf(ctx, host)
			if err != nil {
				continue // a lame NS host; others may still work
			}
			for _, a := range addrs {
				out = append(out, netip.AddrPortFrom(a, r.Port()))
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: no addresses for NS of %s", ErrNoServers, d.Zone)
	}
	return out, nil
}

// queryAny tries servers until one responds, healthy addresses first
// (the circuit breaker deprioritises — never skips — tripped servers).
// Every server of a zone answers these questions alike, so the first
// try goes to servers[nameHash(name) mod n] and the rest follow in
// rotated order: a zone's load spreads over all its addresses instead
// of piling onto servers[0], where a per-server rate limit would set
// the scan's pace. The hash is fixed, so one name always goes to the
// same server, in every process and shard. On total failure the
// per-server errors are joined, so callers can tell "all timed out"
// from "all answered SERVFAIL" with errors.Is.
func (r *Resolver) queryAny(ctx context.Context, servers []netip.AddrPort, name string, qtype dnswire.Type) (*dnswire.Message, netip.AddrPort, error) {
	if len(servers) == 0 {
		return nil, netip.AddrPort{}, ErrNoServers
	}
	var buf [16]netip.AddrPort // try order; stays on the stack for small sets
	start := int(nameHash(name) % uint32(len(servers)))
	var errs []error
	for _, s := range r.health.order(buf[:0], servers, start) {
		resp, err := r.Exchange(ctx, s, name, qtype)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if resp.Rcode == dnswire.RcodeServFail {
			errs = append(errs, fmt.Errorf("%s: %w", s, ErrServFail))
			continue
		}
		return resp, s, nil
	}
	return nil, netip.AddrPort{}, fmt.Errorf("%w: %w", ErrNoServers, errors.Join(errs...))
}

// nameHash is FNV-1a (32-bit) over name, written out so the hot path
// neither allocates nor copies. Names reach queryAny in canonical form
// (Lookup and Delegation canonicalise, unpacked names are lower case).
func nameHash(name string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(name[i])) * 16777619
	}
	return h
}

// Lookup iteratively resolves (name, qtype) and returns the answer
// section of the final response together with its rcode. CNAMEs are
// followed across zones.
func (r *Resolver) Lookup(ctx context.Context, name string, qtype dnswire.Type) ([]dnswire.RR, dnswire.Rcode, error) {
	name = dnswire.CanonicalName(name)
	for aliasDepth := 0; aliasDepth < 8; aliasDepth++ {
		answer, rcode, err := r.lookupOnce(ctx, name, qtype)
		if err != nil {
			return nil, rcode, err
		}
		if len(answer) > 0 {
			// Follow a terminal CNAME if the desired type is absent.
			var want []dnswire.RR
			var cname string
			for _, rr := range answer {
				if rr.Type() == qtype {
					want = append(want, rr)
				}
				if rr.Type() == dnswire.TypeCNAME {
					cname = rr.Data.(*dnswire.CNAME).Target
				}
			}
			if len(want) > 0 || cname == "" || qtype == dnswire.TypeCNAME {
				return answer, rcode, nil
			}
			name = cname
			continue
		}
		return answer, rcode, nil
	}
	return nil, dnswire.RcodeNoError, ErrLoop
}

// lookupOnce descends from the closest cached zone (or the root) to an
// authoritative answer for name.
func (r *Resolver) lookupOnce(ctx context.Context, name string, qtype dnswire.Type) ([]dnswire.RR, dnswire.Rcode, error) {
	servers := r.Roots
	currentZone := "."
	// Start from the deepest cached enclosing zone (for alias entries
	// the apex differs from the name they are filed under).
	for z := name; ; z = dnswire.Parent(z) {
		if e, ok := r.cache().posLookup(z); ok {
			servers, currentZone = e.servers, e.apex
			break
		}
		if z == "." {
			break
		}
	}
	for depth := 0; depth < r.maxDepth(); depth++ {
		resp, server, err := r.queryAny(ctx, servers, name, qtype)
		if err != nil {
			return nil, dnswire.RcodeServFail, err
		}
		if resp.Rcode == dnswire.RcodeNXDomain {
			return nil, resp.Rcode, &NXDomainError{Name: name, Authority: resp.Authority}
		}
		if resp.Rcode != dnswire.RcodeNoError {
			return nil, resp.Rcode, fmt.Errorf("resolver: %s from %s for %s/%s", resp.Rcode, server, name, qtype)
		}
		if resp.Authoritative || len(resp.Answer) > 0 {
			return resp.Answer, resp.Rcode, nil
		}
		cut, nsSet := referralCut(resp)
		if cut == "" {
			return nil, resp.Rcode, fmt.Errorf("%w: dead end at %s for %s", ErrLameReferal, server, name)
		}
		if !dnswire.IsSubdomain(cut, currentZone) || cut == currentZone || !dnswire.IsSubdomain(name, cut) {
			return nil, resp.Rcode, fmt.Errorf("%w: referral to %s from %s (serving %s) for %s",
				ErrLoop, cut, server, currentZone, name)
		}
		d := &Delegation{Zone: cut, ParentNS: nsSet}
		for _, rr := range resp.Additional {
			if rr.Type() == dnswire.TypeA || rr.Type() == dnswire.TypeAAAA {
				d.Glue = append(d.Glue, rr)
			}
		}
		next, err := r.serversForDelegation(ctx, d)
		if err != nil {
			return nil, resp.Rcode, err
		}
		servers = next
		currentZone = cut
		r.cache().posStore(cut, posEntry{servers: next, apex: cut})
	}
	return nil, dnswire.RcodeNoError, ErrLoop
}

// AddrsOf resolves a hostname to all of its A and AAAA addresses,
// serving repeats from the address cache and coalescing concurrent
// chains through the flight group. It refuses re-entrant resolution of
// a host already being resolved on the same resolution chain (glue-less
// mutual hosting would loop forever otherwise); the guard is the
// context's per-chain visited set, so two different chains resolving
// the same host never fail each other.
func (r *Resolver) AddrsOf(ctx context.Context, host string) ([]netip.Addr, error) {
	host = dnswire.CanonicalName(host)
	if addrs, ok := r.cache().addrLookup(host); ok {
		r.NoteCacheHit(ctx)
		return addrs, nil
	}
	r.noteCacheMiss(ctx)
	ctx, chain := withChain(ctx)
	ctx, visited := withVisited(ctx)
	if visited[host] {
		return nil, fmt.Errorf("%w: resolution cycle on %s", ErrLoop, host)
	}
	visited[host] = true
	defer delete(visited, host)
	v, shared, err := r.flight.Do(ctx, chain, flightKey{'a', host}, func() (any, error) {
		addrs, err := r.resolveAddrs(ctx, host)
		if err != nil {
			return nil, err
		}
		r.cache().addrStore(host, addrs)
		return addrs, nil
	})
	if shared {
		r.noteCoalesced(ctx)
	}
	if err != nil {
		return nil, err
	}
	return v.([]netip.Addr), nil
}

// resolveAddrs issues the A and AAAA lookups for host.
func (r *Resolver) resolveAddrs(ctx context.Context, host string) ([]netip.Addr, error) {
	var addrs []netip.Addr
	for _, qtype := range []dnswire.Type{dnswire.TypeA, dnswire.TypeAAAA} {
		answer, _, err := r.Lookup(ctx, host, qtype)
		if err != nil {
			continue
		}
		for _, rr := range answer {
			switch a := rr.Data.(type) {
			case *dnswire.A:
				addrs = append(addrs, a.Addr)
			case *dnswire.AAAA:
				addrs = append(addrs, a.Addr)
			}
		}
	}
	if len(addrs) == 0 {
		return nil, fmt.Errorf("%w: no addresses for %s", ErrNoServers, host)
	}
	return addrs, nil
}
