package resolver

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"testing"
	"time"

	"dnssecboot/internal/dnswire"
	"dnssecboot/internal/server"
	"dnssecboot/internal/transport"
	"dnssecboot/internal/zone"
)

// withCache installs a fresh shared cache on a miniNet resolver.
func withCache(t *testing.T) (*transport.MemNetwork, *Resolver) {
	t.Helper()
	net, r, _ := miniNet(t)
	r.Cache = NewCache(0)
	return net, r
}

func TestCachedDelegationReusesTLDWalk(t *testing.T) {
	_, r := withCache(t)
	ctx := context.Background()
	if _, err := r.Delegation(ctx, "example.com."); err != nil {
		t.Fatal(err)
	}
	first := r.Queries()
	if first == 0 {
		t.Fatal("first delegation issued no queries")
	}
	d, err := r.Delegation(ctx, "example.com.")
	if err != nil {
		t.Fatal(err)
	}
	if d.Zone != "example.com." || d.ParentZone != "com." {
		t.Errorf("cached-start delegation = %s under %s", d.Zone, d.ParentZone)
	}
	// The second walk starts at the cached com. servers: one NS query
	// there plus at most the DS re-fetch, never a fresh root walk.
	if delta := r.Queries() - first; delta > 2 {
		t.Errorf("second delegation used %d queries, want <= 2 (root walk not reused)", delta)
	}
	if r.CacheHits() == 0 {
		t.Error("no cache hits recorded")
	}
}

// TestDelegationNotKeptAfterFailedDS covers the single-listener layout,
// where the DS set comes from a query of its own after the NS answer. A
// zone whose servers were found by a walk whose DS query failed must not
// hand that walk's empty DS to every later Delegation call: the
// validator would take it for an insecure delegation for good.
func TestDelegationNotKeptAfterFailedDS(t *testing.T) {
	addr := netip.MustParseAddr("192.0.2.1")
	root := zone.New(".")
	root.SetBasics("ns.root.", []string{"ns.root."}, 1)
	root.MustAdd(dnswire.RR{Name: "ns.root.", TTL: 1, Data: &dnswire.A{Addr: addr}})
	root.MustAdd(dnswire.RR{Name: "com.", TTL: 1, Data: dnswire.NewNS("ns.root.")})
	com := zone.New("com.")
	com.SetBasics("ns.root.", []string{"ns.root."}, 1)
	com.MustAdd(dnswire.RR{Name: "example.com.", TTL: 1, Data: dnswire.NewNS("ns.root.")})
	com.MustAdd(dnswire.RR{Name: "example.com.", TTL: 1, Data: &dnswire.DS{
		KeyTag: 4711, Algorithm: dnswire.AlgECDSAP256SHA256, DigestType: dnswire.DigestSHA256, Digest: make([]byte, 32)}})
	child := zone.New("example.com.")
	child.SetBasics("ns.root.", []string{"ns.root."}, 1)
	srv := server.New(1)
	for _, z := range []*zone.Zone{root, com, child} {
		srv.AddZone(z)
	}
	// The first DS question for example.com. answers SERVFAIL.
	var failed sync.Once
	net := transport.NewMemNetwork()
	net.Register(addr, handlerFunc(func(ctx context.Context, local netip.Addr, q *dnswire.Message) (*dnswire.Message, error) {
		servfail := false
		if qq := q.Question[0]; qq.Type == dnswire.TypeDS && dnswire.CanonicalName(qq.Name) == "example.com." {
			failed.Do(func() { servfail = true })
		}
		if servfail {
			return &dnswire.Message{ID: q.ID, Response: true, Rcode: dnswire.RcodeServFail, Question: q.Question}, nil
		}
		return srv.HandleDNS(ctx, local, q)
	}))
	r := &Resolver{Net: net, Roots: []netip.AddrPort{netip.AddrPortFrom(addr, 53)}, Cache: NewCache(0)}
	ctx := context.Background()

	if _, _, err := r.zoneServers(ctx, "example.com."); err != nil {
		t.Fatal(err)
	}
	d, err := r.Delegation(ctx, "example.com.")
	if err != nil {
		t.Fatal(err)
	}
	if len(d.DS) != 1 {
		t.Errorf("DS = %d records after the walk's DS query failed once, want 1", len(d.DS))
	}
}

func TestNegativeCacheServesAndExpires(t *testing.T) {
	_, r := withCache(t)
	now := time.Unix(1_000_000, 0)
	var mu sync.Mutex
	r.Cache.SetClock(func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	})
	ctx := context.Background()

	_, err := r.Delegation(ctx, "nonexistent.com.")
	if !errors.Is(err, ErrNXDomain) {
		t.Fatalf("err = %v, want ErrNXDomain", err)
	}
	if r.Cache.NegativeLen() != 1 {
		t.Fatalf("negative entries = %d, want 1", r.Cache.NegativeLen())
	}
	before := r.Queries()
	if _, err := r.Delegation(ctx, "nonexistent.com."); !errors.Is(err, ErrNXDomain) {
		t.Fatalf("cached err = %v, want ErrNXDomain", err)
	}
	if r.Queries() != before {
		t.Errorf("negative cache hit issued %d queries", r.Queries()-before)
	}
	if r.CacheHits() == 0 {
		t.Error("negative hit not counted")
	}

	// Past the TTL the entry dies and the walk re-queries.
	mu.Lock()
	now = now.Add(61 * time.Second)
	mu.Unlock()
	if _, err := r.Delegation(ctx, "nonexistent.com."); !errors.Is(err, ErrNXDomain) {
		t.Fatalf("post-expiry err = %v, want ErrNXDomain", err)
	}
	if r.Queries() == before {
		t.Error("expired negative entry served without re-querying")
	}
}

func TestNegativeCacheBounded(t *testing.T) {
	c := NewCache(0)
	c.MaxNegative = 2
	for _, z := range []string{"a.test.", "b.test.", "c.test."} {
		c.negStore(z, ErrNXDomain)
	}
	if c.NegativeLen() != 2 {
		t.Fatalf("negative entries = %d, want 2 (FIFO bound)", c.NegativeLen())
	}
	if _, ok := c.negLookup("a.test."); ok {
		t.Error("oldest entry survived eviction")
	}
	for _, z := range []string{"b.test.", "c.test."} {
		if _, ok := c.negLookup(z); !ok {
			t.Errorf("recent entry %s evicted", z)
		}
	}
}

// gatedHandler blocks every query behind gate after signalling started
// once, so tests can hold a resolution mid-flight deterministically.
type gatedHandler struct {
	inner   transport.Handler
	started chan struct{}
	gate    chan struct{}
	once    sync.Once
}

func (h *gatedHandler) HandleDNS(ctx context.Context, local netip.Addr, q *dnswire.Message) (*dnswire.Message, error) {
	h.once.Do(func() { close(h.started) })
	select {
	case <-h.gate:
	case <-ctx.Done():
		return nil, transport.ErrTimeout
	}
	return h.inner.HandleDNS(ctx, local, q)
}

// singleServerWorld hosts the whole hierarchy on one gated address, the
// single-listener layout where every resolution funnels through one
// handler.
func singleServerWorld(t *testing.T) (*Resolver, *gatedHandler) {
	t.Helper()
	addr := netip.MustParseAddr("192.0.2.1")

	root := zone.New(".")
	root.SetBasics("ns.root.", []string{"ns.root."}, 1)
	root.MustAdd(dnswire.RR{Name: "ns.root.", TTL: 1, Data: &dnswire.A{Addr: addr}})
	com := zone.New("com.")
	com.SetBasics("ns.root.", []string{"ns.root."}, 1)
	child := zone.New("example.com.")
	child.SetBasics("ns.root.", []string{"ns.root."}, 1)
	child.MustAdd(dnswire.RR{Name: "www.example.com.", TTL: 1, Data: &dnswire.A{Addr: netip.MustParseAddr("203.0.113.10")}})
	for _, c := range []*zone.Zone{com, child} {
		for _, h := range c.NSHosts() {
			parentOf := root
			if c.Origin == "example.com." {
				parentOf = com
			}
			parentOf.MustAdd(dnswire.RR{Name: c.Origin, TTL: 1, Data: dnswire.NewNS(h)})
		}
	}
	srv := server.New(1)
	srv.AddZone(root)
	srv.AddZone(com)
	srv.AddZone(child)

	gate := &gatedHandler{inner: srv, started: make(chan struct{}), gate: make(chan struct{})}
	net := transport.NewMemNetwork()
	net.Register(addr, gate)
	r := &Resolver{
		Net:   net,
		Roots: []netip.AddrPort{netip.AddrPortFrom(addr, 53)},
		Cache: NewCache(0),
	}
	return r, gate
}

// awaitJoin receives one flight-join notification (sent by the
// flightGroup's onWait hook) or fails the test. The hook fires after
// the waiter is registered in the waits map, so by the time the signal
// arrives the join is visible to cycle detection and to waiters() —
// channel synchronisation instead of polling a wall-clock deadline.
func awaitJoin(t *testing.T, joined <-chan string, what string) {
	t.Helper()
	select {
	case <-joined:
	case <-time.After(30 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

func TestSingleflightCoalescesConcurrentDelegations(t *testing.T) {
	r, gate := singleServerWorld(t)
	joined := make(chan string, 8)
	r.flight.onWait = func(key flightKey) { joined <- key.name }
	ctx := context.Background()

	type res struct {
		d   *Delegation
		err error
	}
	results := make(chan res, 2)
	go func() {
		d, err := r.Delegation(ctx, "example.com.")
		results <- res{d, err}
	}()
	<-gate.started // leader is mid-walk, holding the flight
	go func() {
		d, err := r.Delegation(ctx, "example.com.")
		results <- res{d, err}
	}()
	awaitJoin(t, joined, "second chain to join the flight")
	close(gate.gate)

	for i := 0; i < 2; i++ {
		select {
		case got := <-results:
			if got.err != nil {
				t.Fatalf("delegation %d: %v", i, got.err)
			}
			if got.d.Zone != "example.com." {
				t.Errorf("delegation %d zone = %s", i, got.d.Zone)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("coalesced delegation deadlocked")
		}
	}
	if r.Coalesced() != 1 {
		t.Errorf("coalesced = %d, want 1", r.Coalesced())
	}
}

func TestConcurrentAddrsOfCoalesces(t *testing.T) {
	r, gate := singleServerWorld(t)
	joined := make(chan string, 8)
	r.flight.onWait = func(key flightKey) { joined <- key.name }
	ctx := context.Background()

	type res struct {
		addrs []netip.Addr
		err   error
	}
	results := make(chan res, 2)
	go func() {
		a, err := r.AddrsOf(ctx, "ns.root.")
		results <- res{a, err}
	}()
	<-gate.started
	go func() {
		a, err := r.AddrsOf(ctx, "ns.root.")
		results <- res{a, err}
	}()
	// A process-global cycle guard once made the second chain fail with
	// ErrLoop; the flight group must instead let it piggyback.
	awaitJoin(t, joined, "second chain to join the flight")
	close(gate.gate)

	for i := 0; i < 2; i++ {
		select {
		case got := <-results:
			if got.err != nil {
				t.Fatalf("AddrsOf %d: %v", i, got.err)
			}
			if len(got.addrs) != 1 || got.addrs[0].String() != "192.0.2.1" {
				t.Errorf("AddrsOf %d = %v", i, got.addrs)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("coalesced AddrsOf deadlocked")
		}
	}
	if r.Coalesced() != 1 {
		t.Errorf("coalesced = %d, want 1", r.Coalesced())
	}
}

// TestFlightGroupCycleFallback drives two chains into a mutual wait
// (chain 1 leads k1 and joins k2; chain 2 leads k2 and joins k1) and
// checks the second joiner detects the cycle and duplicates the work
// locally instead of deadlocking.
func TestFlightGroupCycleFallback(t *testing.T) {
	var g flightGroup
	parked := make(chan string, 8)
	g.onWait = func(key flightKey) { parked <- key.name }
	ctx := context.Background()
	aLeads := make(chan struct{})
	bLeads := make(chan struct{})
	results := make(chan string, 2)

	go func() { // chain 1
		v, _, _ := g.Do(ctx, 1, flightKey{'k', "1"}, func() (any, error) {
			close(aLeads)
			<-bLeads
			inner, shared, _ := g.Do(ctx, 1, flightKey{'k', "2"}, func() (any, error) {
				return "k2-from-chain1", nil
			})
			if !shared {
				t.Error("chain 1 should have piggybacked on chain 2's k2")
			}
			return fmt.Sprintf("k1=%v", inner), nil
		})
		results <- v.(string)
	}()
	go func() { // chain 2
		<-aLeads
		v, _, _ := g.Do(ctx, 2, flightKey{'k', "2"}, func() (any, error) {
			close(bLeads)
			// Wait until chain 1 is parked on k2, completing the cycle
			// (the onWait hook fires once chain 1 is registered).
			select {
			case <-parked:
			case <-time.After(30 * time.Second):
				t.Error("chain 1 never parked on k2")
			}
			inner, shared, _ := g.Do(ctx, 2, flightKey{'k', "1"}, func() (any, error) {
				return "k1-duplicated-locally", nil
			})
			if shared {
				t.Error("chain 2 joining k1 would deadlock; must run locally")
			}
			return fmt.Sprintf("k2=%v", inner), nil
		})
		results <- v.(string)
	}()

	got := map[string]bool{}
	for i := 0; i < 2; i++ {
		select {
		case v := <-results:
			got[v] = true
		case <-time.After(10 * time.Second):
			t.Fatal("flight-group cycle deadlocked")
		}
	}
	if !got["k2=k1-duplicated-locally"] || !got["k1=k2=k1-duplicated-locally"] {
		t.Errorf("results = %v", got)
	}
	if g.waiters() != 0 {
		t.Errorf("leftover waiters = %d", g.waiters())
	}
}

// TestFlightGroupCancelledWaiterReleases cancels a chain parked on
// another chain's flight and requires the group to stay usable: the
// waiter returns its context's error, and the next Do on the group (a
// new key, while the leader still runs) proceeds instead of blocking on
// a lock the cancelled waiter kept.
func TestFlightGroupCancelledWaiterReleases(t *testing.T) {
	var g flightGroup
	parked := make(chan string, 8)
	g.onWait = func(key flightKey) { parked <- key.name }
	started := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() { // chain 1 leads k
		_, _, err := g.Do(context.Background(), 1, flightKey{'k', "k"}, func() (any, error) {
			close(started)
			<-release
			return "led", nil
		})
		leaderDone <- err
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() { // chain 2 joins k, then is cancelled
		_, shared, err := g.Do(ctx, 2, flightKey{'k', "k"}, func() (any, error) {
			return nil, errors.New("the waiter must not run the flight")
		})
		if !shared {
			t.Error("chain 2 should have joined chain 1's flight")
		}
		waiterDone <- err
	}()
	awaitJoin(t, parked, "chain 2 to join the flight")
	cancel()
	select {
	case err := <-waiterDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled waiter never returned")
	}

	next := make(chan any, 1)
	go func() { // chain 3 on another key
		v, _, _ := g.Do(context.Background(), 3, flightKey{'k', "other"}, func() (any, error) {
			return "next", nil
		})
		next <- v
	}()
	select {
	case v := <-next:
		if v != "next" {
			t.Errorf("next Do = %v, want next", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the Do after a cancelled waiter blocked")
	}

	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader: %v", err)
	}
	if n := g.waiters(); n != 0 {
		t.Errorf("waiters after the flight = %d, want 0", n)
	}
}

// TestMisbehavingReferralsFailFast covers the referral-direction fix: a
// server answering with upward, sideways, self or unrelated-sibling
// referrals must yield ErrLoop after a handful of queries, instead of
// spinning the walk to MaxDepth (and poisoning cached delegations for
// every later scan of the subtree) — on a resolver that built its own
// cache and on one that was handed a shared one.
func TestMisbehavingReferralsFailFast(t *testing.T) {
	cases := []struct {
		name string
		cut  string // crafted referral target from the com. server
	}{
		{"upward to root", "."},
		{"sideways to another TLD", "net."},
		{"self referral", "com."},
		{"unrelated sibling", "other.com."},
	}
	for _, tc := range cases {
		for _, cached := range []bool{false, true} {
			mode := "private"
			if cached {
				mode = "cached"
			}
			t.Run(tc.name+"/"+mode, func(t *testing.T) {
				rootAddr := netip.MustParseAddr("198.41.0.4")
				evilAddr := netip.MustParseAddr("192.0.32.66")

				root := zone.New(".")
				root.SetBasics("a.root-servers.net.", []string{"a.root-servers.net."}, 1)
				root.MustAdd(dnswire.RR{Name: "com.", TTL: 1, Data: dnswire.NewNS("ns.evil.")})
				root.MustAdd(dnswire.RR{Name: "ns.evil.", TTL: 1, Data: &dnswire.A{Addr: evilAddr}})
				rootSrv := server.New(1)
				rootSrv.AddZone(root)

				evil := handlerFunc(func(_ context.Context, _ netip.Addr, q *dnswire.Message) (*dnswire.Message, error) {
					resp := &dnswire.Message{ID: q.ID, Response: true, Question: q.Question}
					resp.Authority = []dnswire.RR{{Name: tc.cut, TTL: 1, Data: dnswire.NewNS("ns.evil.")}}
					resp.Additional = []dnswire.RR{{Name: "ns.evil.", TTL: 1, Data: &dnswire.A{Addr: evilAddr}}}
					return resp, nil
				})

				net := transport.NewMemNetwork()
				net.Register(rootAddr, rootSrv)
				net.Register(evilAddr, evil)
				r := &Resolver{Net: net, Roots: []netip.AddrPort{netip.AddrPortFrom(rootAddr, 53)}}
				if cached {
					r.Cache = NewCache(0)
				}

				_, err := r.Delegation(context.Background(), "example.com.")
				if !errors.Is(err, ErrLoop) {
					t.Fatalf("err = %v, want ErrLoop", err)
				}
				// Root referral + one evil answer; pre-fix the walk
				// re-queried the bogus referral until MaxDepth (16).
				if r.Queries() > 4 {
					t.Errorf("used %d queries before rejecting, want <= 4", r.Queries())
				}

				// The lookup path applies the same validation.
				_, _, err = r.Lookup(context.Background(), "www.example.com.", dnswire.TypeA)
				if !errors.Is(err, ErrLoop) {
					t.Errorf("Lookup err = %v, want ErrLoop", err)
				}
			})
		}
	}
}
