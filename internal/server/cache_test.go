package server

import (
	"context"
	"fmt"
	"net/netip"
	"testing"
	"time"

	"dnssecboot/internal/dnswire"
	"dnssecboot/internal/obs"
	"dnssecboot/internal/zone"
)

// fakeClock is an adjustable time source for cache tests.
type fakeClock struct{ t time.Time }

func (f *fakeClock) now() time.Time          { return f.t }
func (f *fakeClock) advance(d time.Duration) { f.t = f.t.Add(d) }

func newTestCache(max int, reg *obs.Registry) (*Cache, *fakeClock) {
	c := NewCache(max, reg)
	clk := &fakeClock{t: time.Date(2025, 4, 15, 12, 0, 0, 0, time.UTC)}
	c.now = clk.now
	return c, clk
}

func doQuery(name string, typ dnswire.Type, do bool) *dnswire.Message {
	q := dnswire.NewQuery(100, name, typ)
	if do {
		q.SetEDNS(dnswire.EDNS{UDPSize: dnswire.MaxUDPPayload, DO: true})
	}
	return q
}

func TestCacheHitServesAgedCopy(t *testing.T) {
	s := New(1)
	s.AddZone(buildZone(t, false))
	c, clk := newTestCache(16, nil)
	h := &CachedHandler{Inner: s, Cache: c}

	q1 := doQuery("www.example.com.", dnswire.TypeA, false)
	first, err := h.HandleDNS(context.Background(), localAddr, q1)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Answer) != 1 || first.Answer[0].TTL != 300 {
		t.Fatalf("first answer = %+v", first.Answer)
	}

	clk.advance(10 * time.Second)
	q2 := doQuery("www.example.com.", dnswire.TypeA, false)
	q2.ID = 1234
	second, err := h.HandleDNS(context.Background(), localAddr, q2)
	if err != nil {
		t.Fatal(err)
	}
	if second.ID != 1234 {
		t.Errorf("cached response ID = %d, want 1234", second.ID)
	}
	if len(second.Answer) != 1 || second.Answer[0].TTL != 290 {
		t.Errorf("aged TTL = %d, want 290", second.Answer[0].TTL)
	}
	if !second.Authoritative || second.Rcode != dnswire.RcodeNoError {
		t.Errorf("cached header aa=%v rcode=%s", second.Authoritative, second.Rcode)
	}
	// The copy must not share section storage with the template: mutate
	// it and hit again.
	second.Answer[0].TTL = 9999
	third := c.Get(doQuery("www.example.com.", dnswire.TypeA, false))
	if third == nil || third.Answer[0].TTL != 290 {
		t.Error("cached template was mutated through a served copy")
	}
}

func TestCacheTTLExpiry(t *testing.T) {
	s := New(1)
	s.AddZone(buildZone(t, false))
	reg := obs.NewRegistry()
	c, clk := newTestCache(16, reg)
	h := &CachedHandler{Inner: s, Cache: c}

	q := doQuery("www.example.com.", dnswire.TypeA, false) // TTL 300
	if _, err := h.HandleDNS(context.Background(), localAddr, q); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 {
		t.Fatalf("cache len = %d", c.Len())
	}
	clk.advance(299 * time.Second)
	if c.Get(q) == nil {
		t.Error("entry expired before its TTL elapsed")
	}
	clk.advance(2 * time.Second)
	if c.Get(q) != nil {
		t.Error("entry served after its TTL elapsed")
	}
	if c.Len() != 0 {
		t.Errorf("expired entry still resident, len = %d", c.Len())
	}
	snap := reg.Snapshot()
	if snap.Counters["server.cache.expired"] != 1 {
		t.Errorf("expired counter = %d", snap.Counters["server.cache.expired"])
	}
}

func TestCacheEvictsLRU(t *testing.T) {
	s := New(1)
	s.AddZone(buildZone(t, false))
	reg := obs.NewRegistry()
	c, _ := newTestCache(3, reg)
	h := &CachedHandler{Inner: s, Cache: c}

	// Fill with three distinct shapes, then touch the first so the
	// second is the least recently used.
	types := []dnswire.Type{dnswire.TypeA, dnswire.TypeMX, dnswire.TypeTXT}
	for _, typ := range types {
		if _, err := h.HandleDNS(context.Background(), localAddr, doQuery("www.example.com.", typ, false)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 3 {
		t.Fatalf("cache len = %d, want 3", c.Len())
	}
	if c.Get(doQuery("www.example.com.", dnswire.TypeA, false)) == nil {
		t.Fatal("warm entry missing")
	}
	// A fourth shape must evict MX (the LRU), not A.
	if _, err := h.HandleDNS(context.Background(), localAddr, doQuery("example.com.", dnswire.TypeA, false)); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 3 {
		t.Fatalf("cache len after eviction = %d, want 3", c.Len())
	}
	if c.Get(doQuery("www.example.com.", dnswire.TypeA, false)) == nil {
		t.Error("recently used entry was evicted")
	}
	if c.Get(doQuery("www.example.com.", dnswire.TypeMX, false)) != nil {
		t.Error("LRU entry survived eviction")
	}
	if n := reg.Snapshot().Counters["server.cache.evictions"]; n != 1 {
		t.Errorf("evictions = %d, want 1", n)
	}
}

// The DO bit is part of the query shape: a DO=1 response (with RRSIGs)
// must never be served to a DO=0 client and vice versa, and EDNS
// presence on the served copy follows the live query, not the cached
// one.
func TestCacheKeyedByDOBit(t *testing.T) {
	s := New(1)
	s.AddZone(buildZone(t, true))
	c, _ := newTestCache(16, nil)
	h := &CachedHandler{Inner: s, Cache: c}

	plain, err := h.HandleDNS(context.Background(), localAddr, doQuery("www.example.com.", dnswire.TypeA, false))
	if err != nil {
		t.Fatal(err)
	}
	signed, err := h.HandleDNS(context.Background(), localAddr, doQuery("www.example.com.", dnswire.TypeA, true))
	if err != nil {
		t.Fatal(err)
	}
	if countType(plain.Answer, dnswire.TypeRRSIG) != 0 {
		t.Error("DO=0 response carries RRSIGs")
	}
	if countType(signed.Answer, dnswire.TypeRRSIG) == 0 {
		t.Error("DO=1 response lacks RRSIGs")
	}
	// Both shapes are now cached; hits must stay segregated.
	hitPlain := c.Get(doQuery("www.example.com.", dnswire.TypeA, false))
	hitSigned := c.Get(doQuery("www.example.com.", dnswire.TypeA, true))
	if hitPlain == nil || hitSigned == nil {
		t.Fatal("expected both shapes cached")
	}
	if countType(hitPlain.Answer, dnswire.TypeRRSIG) != 0 {
		t.Error("cached DO=0 hit carries RRSIGs")
	}
	if countType(hitSigned.Answer, dnswire.TypeRRSIG) == 0 {
		t.Error("cached DO=1 hit lacks RRSIGs")
	}
	if _, ok := hitPlain.GetEDNS(); ok {
		t.Error("non-EDNS query served a response with an OPT record")
	}
	if e, ok := hitSigned.GetEDNS(); !ok || !e.DO {
		t.Error("EDNS DO query served a response without a DO OPT record")
	}
}

func TestCacheNXDomainAndUncacheable(t *testing.T) {
	s := New(1)
	s.AddZone(buildZone(t, false))
	c, _ := newTestCache(16, nil)
	h := &CachedHandler{Inner: s, Cache: c}

	// NXDOMAIN is cacheable (TTL from the SOA in authority).
	nx := doQuery("nope.example.com.", dnswire.TypeA, false)
	resp, err := h.HandleDNS(context.Background(), localAddr, nx)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Rcode != dnswire.RcodeNXDomain {
		t.Fatalf("rcode = %s", resp.Rcode)
	}
	if hit := c.Get(nx); hit == nil || hit.Rcode != dnswire.RcodeNXDomain {
		t.Error("NXDOMAIN not cached")
	}

	// REFUSED (off-zone) must not be cached.
	ref := doQuery("unrelated.test.", dnswire.TypeA, false)
	if _, err := h.HandleDNS(context.Background(), localAddr, ref); err != nil {
		t.Fatal(err)
	}
	if c.Get(ref) != nil {
		t.Error("REFUSED response was cached")
	}
}

// dnsd puts the cache in front of a server with Behavior quirks: the
// quirk probabilities then apply to cache misses, and a quirk's outcome
// must never be what the next client is served.
func TestCacheNeverServesQuirkOutcomes(t *testing.T) {
	s := New(1)
	s.Behavior = Behavior{LegacyUnknownTypes: true, DropRate: 1}
	s.AddZone(buildZone(t, false))
	c, _ := newTestCache(16, nil)
	h := &CachedHandler{Inner: s, Cache: c}
	handle := func(q *dnswire.Message) *dnswire.Message {
		t.Helper()
		resp, err := h.HandleDNS(context.Background(), localAddr, q)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	a := doQuery("www.example.com.", dnswire.TypeA, false)
	cds := doQuery("example.com.", dnswire.TypeCDS, false)

	// A dropped query passes through as a nil reply and leaves no entry.
	for _, q := range []*dnswire.Message{a, cds} {
		if resp := handle(q); resp != nil {
			t.Fatalf("DropRate 1 answered %s", resp.Rcode)
		}
		if c.Get(q) != nil {
			t.Fatal("a drop left a cache entry")
		}
	}
	s.DropRate = 0
	if resp := handle(a); resp == nil || resp.Rcode != dnswire.RcodeNoError || len(resp.Answer) == 0 {
		t.Fatalf("client after the drop got %v, want the A record", resp)
	}

	// The legacy FORMERR is answered but not remembered.
	if resp := handle(cds); resp == nil || resp.Rcode != dnswire.RcodeFormErr {
		t.Fatalf("legacy server answered CDS with %v, want FORMERR", resp)
	}
	if c.Get(cds) != nil {
		t.Fatal("FORMERR was cached")
	}
	s.LegacyUnknownTypes = false
	if resp := handle(cds); resp == nil || resp.Rcode != dnswire.RcodeNoError {
		t.Fatalf("client after the FORMERR got %v, want NOERROR/NODATA", resp)
	}
}

func countType(sec []dnswire.RR, typ dnswire.Type) int {
	n := 0
	for _, rr := range sec {
		if rr.Type() == typ {
			n++
		}
	}
	return n
}

func BenchmarkCachedHandler(b *testing.B) {
	s := New(1)
	z := zone.New("example.com.")
	z.SetBasics("ns1.example.net.", []string{"ns1.example.net."}, 1)
	for i := 0; i < 16; i++ {
		z.MustAdd(dnswire.RR{Name: fmt.Sprintf("host%d.example.com.", i), TTL: 300,
			Data: &dnswire.A{Addr: netip.MustParseAddr("192.0.2.10")}})
	}
	s.AddZone(z)
	c := NewCache(1024, nil)
	h := &CachedHandler{Inner: s, Cache: c}
	qs := make([]*dnswire.Message, 16)
	for i := range qs {
		qs[i] = dnswire.NewQuery(uint16(i+1), fmt.Sprintf("host%d.example.com.", i), dnswire.TypeA)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.HandleDNS(context.Background(), localAddr, qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
}
