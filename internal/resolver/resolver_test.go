package resolver

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"dnssecboot/internal/dnssec"
	"dnssecboot/internal/dnswire"
	"dnssecboot/internal/rate"
	"dnssecboot/internal/server"
	"dnssecboot/internal/transport"
	"dnssecboot/internal/zone"
)

// miniNet builds a small simulated internet:
//
//	.            on 198.41.0.4       (root)
//	com., net.   on 192.0.32.1       (gtld)
//	example.net. on 192.0.2.53       (hosts ns1/ns2.example.net glue-less targets)
//	example.com. on 192.0.2.61, .62  (the zone under test)
func miniNet(t *testing.T) (*transport.MemNetwork, *Resolver, *zone.Zone) {
	t.Helper()
	net := transport.NewMemNetwork()

	rootAddr := netip.MustParseAddr("198.41.0.4")
	gtldAddr := netip.MustParseAddr("192.0.32.1")
	exnetAddr := netip.MustParseAddr("192.0.2.53")
	excom1 := netip.MustParseAddr("192.0.2.61")
	excom2 := netip.MustParseAddr("192.0.2.62")

	root := zone.New(".")
	root.SetBasics("a.root-servers.net.", []string{"a.root-servers.net."}, 1)
	root.MustAdd(dnswire.RR{Name: "com.", TTL: 172800, Data: dnswire.NewNS("ns.gtld.")})
	root.MustAdd(dnswire.RR{Name: "net.", TTL: 172800, Data: dnswire.NewNS("ns.gtld.")})
	root.MustAdd(dnswire.RR{Name: "ns.gtld.", TTL: 172800, Data: &dnswire.A{Addr: gtldAddr}})
	// gtld. must also be delegated so ns.gtld. glue is reachable.
	root.MustAdd(dnswire.RR{Name: "gtld.", TTL: 172800, Data: dnswire.NewNS("ns.gtld.")})

	com := zone.New("com.")
	com.SetBasics("ns.gtld.", []string{"ns.gtld."}, 1)
	com.MustAdd(dnswire.RR{Name: "example.com.", TTL: 172800, Data: dnswire.NewNS("ns1.example.net.")})
	com.MustAdd(dnswire.RR{Name: "example.com.", TTL: 172800, Data: dnswire.NewNS("ns2.example.net.")})
	com.MustAdd(dnswire.RR{Name: "example.com.", TTL: 86400, Data: &dnswire.DS{
		KeyTag: 4711, Algorithm: dnswire.AlgECDSAP256SHA256, DigestType: dnswire.DigestSHA256, Digest: make([]byte, 32)}})

	netz := zone.New("net.")
	netz.SetBasics("ns.gtld.", []string{"ns.gtld."}, 1)
	netz.MustAdd(dnswire.RR{Name: "example.net.", TTL: 172800, Data: dnswire.NewNS("ns.example.net.")})
	netz.MustAdd(dnswire.RR{Name: "ns.example.net.", TTL: 172800, Data: &dnswire.A{Addr: exnetAddr}})

	exnet := zone.New("example.net.")
	exnet.SetBasics("ns.example.net.", []string{"ns.example.net."}, 1)
	exnet.MustAdd(dnswire.RR{Name: "ns.example.net.", TTL: 3600, Data: &dnswire.A{Addr: exnetAddr}})
	exnet.MustAdd(dnswire.RR{Name: "ns1.example.net.", TTL: 3600, Data: &dnswire.A{Addr: excom1}})
	exnet.MustAdd(dnswire.RR{Name: "ns2.example.net.", TTL: 3600, Data: &dnswire.A{Addr: excom2}})

	excom := zone.New("example.com.")
	excom.SetBasics("ns1.example.net.", []string{"ns1.example.net.", "ns2.example.net."}, 1)
	excom.MustAdd(dnswire.RR{Name: "www.example.com.", TTL: 300, Data: &dnswire.A{Addr: netip.MustParseAddr("203.0.113.80")}})
	excom.MustAdd(dnswire.RR{Name: "alias.example.com.", TTL: 300, Data: dnswire.NewCNAME("www.example.com.")})
	excom.MustAdd(dnswire.RR{Name: "x.example.com.", TTL: 300, Data: dnswire.NewCNAME("target.example.net.")})
	exnet.MustAdd(dnswire.RR{Name: "target.example.net.", TTL: 300, Data: &dnswire.A{Addr: netip.MustParseAddr("203.0.113.81")}})

	rootSrv := server.New(1)
	rootSrv.AddZone(root)
	gtldSrv := server.New(2)
	gtldSrv.AddZone(com)
	gtldSrv.AddZone(netz)
	exnetSrv := server.New(3)
	exnetSrv.AddZone(exnet)
	excomSrv := server.New(4)
	excomSrv.AddZone(excom)

	net.Register(rootAddr, rootSrv)
	net.Register(gtldAddr, gtldSrv)
	net.Register(exnetAddr, exnetSrv)
	net.Register(excom1, excomSrv)
	net.Register(excom2, excomSrv)

	r := &Resolver{
		Net:   net,
		Roots: []netip.AddrPort{netip.AddrPortFrom(rootAddr, 53)},
	}
	return net, r, excom
}

func TestDelegationWalk(t *testing.T) {
	_, r, _ := miniNet(t)
	d, err := r.Delegation(context.Background(), "example.com.")
	if err != nil {
		t.Fatalf("Delegation: %v", err)
	}
	if d.Zone != "example.com." {
		t.Errorf("zone = %s", d.Zone)
	}
	if len(d.ParentNS) != 2 {
		t.Errorf("parent NS = %d", len(d.ParentNS))
	}
	if len(d.DS) != 1 {
		t.Errorf("DS = %d", len(d.DS))
	}
	if d.ParentZone != "com." {
		t.Errorf("parent zone = %s", d.ParentZone)
	}
	hosts := d.NSHosts()
	if len(hosts) != 2 || hosts[0] != "ns1.example.net." {
		t.Errorf("NS hosts = %v", hosts)
	}
}

func TestDelegationNXDomain(t *testing.T) {
	_, r, _ := miniNet(t)
	_, err := r.Delegation(context.Background(), "nonexistent.com.")
	if err == nil {
		t.Fatal("expected error")
	}
}

func TestLookupAcrossReferrals(t *testing.T) {
	_, r, _ := miniNet(t)
	answer, rcode, err := r.Lookup(context.Background(), "www.example.com.", dnswire.TypeA)
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if rcode != dnswire.RcodeNoError || len(answer) != 1 {
		t.Fatalf("rcode=%s answers=%d", rcode, len(answer))
	}
	if answer[0].Data.(*dnswire.A).Addr.String() != "203.0.113.80" {
		t.Errorf("addr = %s", answer[0].Data.(*dnswire.A).Addr)
	}
}

func TestLookupFollowsCNAMEWithinZone(t *testing.T) {
	_, r, _ := miniNet(t)
	answer, _, err := r.Lookup(context.Background(), "alias.example.com.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	types := map[dnswire.Type]int{}
	for _, rr := range answer {
		types[rr.Type()]++
	}
	if types[dnswire.TypeCNAME] != 1 || types[dnswire.TypeA] != 1 {
		t.Errorf("answer types = %v", types)
	}
}

func TestLookupFollowsCNAMEAcrossZones(t *testing.T) {
	_, r, _ := miniNet(t)
	answer, _, err := r.Lookup(context.Background(), "x.example.com.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	foundA := false
	for _, rr := range answer {
		if a, ok := rr.Data.(*dnswire.A); ok && a.Addr.String() == "203.0.113.81" {
			foundA = true
		}
	}
	if !foundA {
		t.Errorf("cross-zone CNAME target not resolved: %+v", answer)
	}
}

func TestAddrsOfOutOfBailiwickNS(t *testing.T) {
	_, r, _ := miniNet(t)
	addrs, err := r.AddrsOf(context.Background(), "ns1.example.net.")
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 1 || addrs[0].String() != "192.0.2.61" {
		t.Errorf("addrs = %v", addrs)
	}
	// Cached second call must not add queries.
	before := r.Queries()
	if _, err := r.AddrsOf(context.Background(), "ns1.example.net."); err != nil {
		t.Fatal(err)
	}
	if r.Queries() != before {
		t.Error("AddrsOf cache miss on repeat")
	}
}

func TestLookupNXDomain(t *testing.T) {
	_, r, _ := miniNet(t)
	_, rcode, err := r.Lookup(context.Background(), "missing.example.com.", dnswire.TypeA)
	if err == nil {
		t.Fatal("expected NXDOMAIN error")
	}
	if rcode != dnswire.RcodeNXDomain {
		t.Errorf("rcode = %s", rcode)
	}
}

func TestQueryCountingAndRateLimit(t *testing.T) {
	_, r, _ := miniNet(t)
	r.Limits = rate.NewPerKey(0, 0) // unlimited but exercised
	before := r.Queries()
	if _, _, err := r.Lookup(context.Background(), "www.example.com.", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	if r.Queries() <= before {
		t.Error("query counter did not advance")
	}
}

func TestDelegationCacheSpeedsSecondLookup(t *testing.T) {
	_, r, _ := miniNet(t)
	if _, _, err := r.Lookup(context.Background(), "www.example.com.", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	mid := r.Queries()
	if _, _, err := r.Lookup(context.Background(), "alias.example.com.", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	// Second lookup should reuse the cached example.com. servers: at
	// most a couple of queries, not a full root walk.
	if r.Queries()-mid > 3 {
		t.Errorf("second lookup used %d queries", r.Queries()-mid)
	}
}

func TestQueryAnySkipsDeadServers(t *testing.T) {
	net, r, _ := miniNet(t)
	// Prepend an unreachable root; resolution must still succeed.
	dead := netip.AddrPortFrom(netip.MustParseAddr("203.0.113.250"), 53)
	r.Roots = append([]netip.AddrPort{dead}, r.Roots...)
	_ = net
	if _, _, err := r.Lookup(context.Background(), "www.example.com.", dnswire.TypeA); err != nil {
		t.Fatalf("Lookup with dead first root: %v", err)
	}
}

// TestDelegationParentZoneFromDSSig covers the single-listener layout
// (one server hosting the whole hierarchy): no referral is ever seen,
// so the delegating zone must be recovered from the DS RRSIG's signer.
func TestDelegationParentZoneFromDSSig(t *testing.T) {
	now := time.Date(2025, 4, 15, 12, 0, 0, 0, time.UTC)
	sign := zone.SignConfig{Now: now, Algorithm: dnswire.AlgEd25519}
	addr := netip.MustParseAddr("192.0.2.1")

	root := zone.New(".")
	root.SetBasics("ns.root.", []string{"ns.root."}, 1)
	root.MustAdd(dnswire.RR{Name: "ns.root.", TTL: 1, Data: &dnswire.A{Addr: addr}})
	if err := root.GenerateKeys(sign, nil); err != nil {
		t.Fatal(err)
	}
	com := zone.New("com.")
	com.SetBasics("ns.root.", []string{"ns.root."}, 1)
	if err := com.GenerateKeys(sign, nil); err != nil {
		t.Fatal(err)
	}
	child := zone.New("kid.com.")
	child.SetBasics("ns.root.", []string{"ns.root."}, 1)
	if err := child.GenerateKeys(sign, nil); err != nil {
		t.Fatal(err)
	}
	// Delegations with DS.
	addDS := func(parent, c *zone.Zone) {
		ds, err := dnssec.DSFromKey(c.Origin, c.Keys[0].DNSKEY(), dnswire.DigestSHA256)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range c.NSHosts() {
			parent.MustAdd(dnswire.RR{Name: c.Origin, TTL: 1, Data: dnswire.NewNS(h)})
		}
		parent.MustAdd(dnswire.RR{Name: c.Origin, TTL: 1, Data: ds})
	}
	addDS(root, com)
	addDS(com, child)
	for _, z := range []*zone.Zone{child, com, root} {
		if err := z.Sign(sign); err != nil {
			t.Fatal(err)
		}
	}
	srv := server.New(1)
	srv.AddZone(root)
	srv.AddZone(com)
	srv.AddZone(child)
	net := transport.NewMemNetwork()
	net.Register(addr, srv)

	r := &Resolver{Net: net, Roots: []netip.AddrPort{netip.AddrPortFrom(addr, 53)}}
	d, err := r.Delegation(context.Background(), "kid.com.")
	if err != nil {
		t.Fatal(err)
	}
	if d.ParentZone != "com." {
		t.Errorf("ParentZone = %s, want com. (from the DS RRSIG signer)", d.ParentZone)
	}
	if len(d.DS) != 1 || len(d.DSSigs) == 0 {
		t.Errorf("DS=%d sigs=%d", len(d.DS), len(d.DSSigs))
	}
}

// TestDelegationParentZoneIndependentOfStart covers the registry layout
// of co.uk.: one server hosts a parent (uk.) and the child registry
// below it (co.uk.), and refers queries for x.co.uk. straight from the
// deeper zone. A walk that reached that server as "the uk. server" —
// the start point Delegation falls back to when the parent lookup
// failed transiently — used to report uk. as the delegating zone, so a
// record's parent_zone depended on what the cache held. The referral's
// RRSIG (over the DS, or over the NSEC denying one) names co.uk. in
// both cases, at no extra query.
func TestDelegationParentZoneIndependentOfStart(t *testing.T) {
	now := time.Date(2025, 4, 15, 12, 0, 0, 0, time.UTC)
	sign := zone.SignConfig{Now: now, Algorithm: dnswire.AlgEd25519}
	rootAddr := netip.MustParseAddr("192.0.2.1")
	regAddr := netip.MustParseAddr("192.0.2.2")

	newZone := func(origin, ns string) *zone.Zone {
		z := zone.New(origin)
		z.SetBasics(ns, []string{ns}, 1)
		if err := z.GenerateKeys(sign, nil); err != nil {
			t.Fatal(err)
		}
		return z
	}
	root := newZone(".", "ns.root.")
	root.MustAdd(dnswire.RR{Name: "ns.root.", TTL: 1, Data: &dnswire.A{Addr: rootAddr}})
	uk := newZone("uk.", "ns1.nic.uk.")
	uk.MustAdd(dnswire.RR{Name: "ns1.nic.uk.", TTL: 1, Data: &dnswire.A{Addr: regAddr}})
	couk := newZone("co.uk.", "ns1.nic.uk.")
	delegate := func(parent, child *zone.Zone) {
		ds, err := dnssec.DSFromKey(child.Origin, child.Keys[0].DNSKEY(), dnswire.DigestSHA256)
		if err != nil {
			t.Fatal(err)
		}
		parent.MustAdd(dnswire.RR{Name: child.Origin, TTL: 1, Data: dnswire.NewNS(child.NSHosts()[0])})
		parent.MustAdd(dnswire.RR{Name: child.Origin, TTL: 1, Data: ds})
	}
	delegate(root, uk)
	root.MustAdd(dnswire.RR{Name: "ns1.nic.uk.", TTL: 1, Data: &dnswire.A{Addr: regAddr}})
	delegate(uk, couk)
	// Two customers of the child registry, hosted elsewhere: one with a
	// DS, one insecure (the referral then carries the signed NSEC).
	delegate(couk, newZone("signed.co.uk.", "ns.elsewhere.test."))
	couk.MustAdd(dnswire.RR{Name: "insecure.co.uk.", TTL: 1, Data: dnswire.NewNS("ns.elsewhere.test.")})
	for _, z := range []*zone.Zone{couk, uk, root} {
		if err := z.Sign(sign); err != nil {
			t.Fatal(err)
		}
	}
	rootSrv, regSrv := server.New(1), server.New(2)
	rootSrv.AddZone(root)
	regSrv.AddZone(uk)
	regSrv.AddZone(couk)
	net := transport.NewMemNetwork()
	net.Register(rootAddr, rootSrv)
	net.Register(regAddr, regSrv)
	roots := []netip.AddrPort{netip.AddrPortFrom(rootAddr, 53)}
	ctx := context.Background()

	for _, target := range []string{"signed.co.uk.", "insecure.co.uk."} {
		// Start at the roots: the walk descends root → uk. server → done.
		r := &Resolver{Net: net, Roots: roots}
		d, err := r.delegationFrom(ctx, target, roots, ".")
		if err != nil {
			t.Fatalf("%s from the roots: %v", target, err)
		}
		if d.ParentZone != "co.uk." {
			t.Errorf("%s from the roots: ParentZone = %s, want co.uk.", target, d.ParentZone)
		}
		if got := r.Queries(); got != 2 {
			t.Errorf("%s from the roots: %d queries, want 2 (one per referral)", target, got)
		}
		// Start at the resolved parent, as Delegation normally does.
		d, err = (&Resolver{Net: net, Roots: roots}).Delegation(ctx, target)
		if err != nil {
			t.Fatalf("%s from its parent: %v", target, err)
		}
		if d.ParentZone != "co.uk." {
			t.Errorf("%s from its parent: ParentZone = %s, want co.uk.", target, d.ParentZone)
		}
	}
}
