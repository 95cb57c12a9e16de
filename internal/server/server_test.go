package server

import (
	"bytes"
	"context"
	"net/netip"
	"testing"
	"time"

	"dnssecboot/internal/dnssec"
	"dnssecboot/internal/dnswire"
	"dnssecboot/internal/zone"
)

var (
	testNow   = time.Date(2025, 4, 15, 12, 0, 0, 0, time.UTC)
	localAddr = netip.MustParseAddr("192.0.2.53")
)

func buildZone(t *testing.T, signed bool) *zone.Zone {
	t.Helper()
	z := zone.New("example.com.")
	z.SetBasics("ns1.example.net.", []string{"ns1.example.net.", "ns2.example.org."}, 1)
	z.MustAdd(dnswire.RR{Name: "example.com.", TTL: 300, Data: &dnswire.A{Addr: netip.MustParseAddr("192.0.2.10")}})
	z.MustAdd(dnswire.RR{Name: "www.example.com.", TTL: 300, Data: &dnswire.A{Addr: netip.MustParseAddr("192.0.2.11")}})
	z.MustAdd(dnswire.RR{Name: "alias.example.com.", TTL: 300, Data: dnswire.NewCNAME("www.example.com.")})
	z.MustAdd(dnswire.RR{Name: "sub.example.com.", TTL: 3600, Data: dnswire.NewNS("ns.sub.example.com.")})
	z.MustAdd(dnswire.RR{Name: "ns.sub.example.com.", TTL: 3600, Data: &dnswire.A{Addr: netip.MustParseAddr("192.0.2.54")}})
	if signed {
		if err := z.GenerateKeys(zone.SignConfig{Algorithm: dnswire.AlgEd25519}, nil); err != nil {
			t.Fatal(err)
		}
		if err := z.Sign(zone.SignConfig{Now: testNow}); err != nil {
			t.Fatal(err)
		}
	}
	return z
}

func ask(t *testing.T, s *Server, name string, typ dnswire.Type, do bool) *dnswire.Message {
	t.Helper()
	q := dnswire.NewQuery(42, name, typ)
	if do {
		q.SetEDNS(dnswire.EDNS{UDPSize: dnswire.MaxUDPPayload, DO: true})
	}
	resp, err := s.HandleDNS(context.Background(), localAddr, q)
	if err != nil {
		t.Fatalf("HandleDNS: %v", err)
	}
	if resp == nil {
		t.Fatal("nil response")
	}
	return resp
}

func TestPositiveAnswer(t *testing.T) {
	s := New(1)
	s.AddZone(buildZone(t, false))
	resp := ask(t, s, "www.example.com.", dnswire.TypeA, false)
	if resp.Rcode != dnswire.RcodeNoError || !resp.Authoritative {
		t.Fatalf("rcode=%s aa=%v", resp.Rcode, resp.Authoritative)
	}
	if len(resp.Answer) != 1 || resp.Answer[0].Type() != dnswire.TypeA {
		t.Fatalf("answer = %+v", resp.Answer)
	}
	if resp.ID != 42 {
		t.Errorf("response ID = %d", resp.ID)
	}
}

func TestNODATAAndNXDOMAIN(t *testing.T) {
	s := New(1)
	s.AddZone(buildZone(t, false))
	nodata := ask(t, s, "www.example.com.", dnswire.TypeMX, false)
	if nodata.Rcode != dnswire.RcodeNoError || len(nodata.Answer) != 0 {
		t.Errorf("NODATA rcode=%s answers=%d", nodata.Rcode, len(nodata.Answer))
	}
	if len(nodata.Authority) == 0 || nodata.Authority[0].Type() != dnswire.TypeSOA {
		t.Error("NODATA lacks SOA in authority")
	}
	nx := ask(t, s, "nope.example.com.", dnswire.TypeA, false)
	if nx.Rcode != dnswire.RcodeNXDomain {
		t.Errorf("NXDOMAIN rcode = %s", nx.Rcode)
	}
}

func TestRefusedOutOfZone(t *testing.T) {
	s := New(1)
	s.AddZone(buildZone(t, false))
	resp := ask(t, s, "other.org.", dnswire.TypeA, false)
	if resp.Rcode != dnswire.RcodeRefused {
		t.Errorf("rcode = %s, want REFUSED", resp.Rcode)
	}
}

func TestReferralWithGlue(t *testing.T) {
	s := New(1)
	s.AddZone(buildZone(t, false))
	resp := ask(t, s, "deep.sub.example.com.", dnswire.TypeA, false)
	if resp.Authoritative {
		t.Error("referral has AA set")
	}
	if len(resp.Answer) != 0 {
		t.Errorf("referral has %d answers", len(resp.Answer))
	}
	foundNS := false
	for _, rr := range resp.Authority {
		if rr.Type() == dnswire.TypeNS && rr.Name == "sub.example.com." {
			foundNS = true
		}
	}
	if !foundNS {
		t.Error("referral lacks delegation NS")
	}
	foundGlue := false
	for _, rr := range resp.Additional {
		if rr.Type() == dnswire.TypeA && rr.Name == "ns.sub.example.com." {
			foundGlue = true
		}
	}
	if !foundGlue {
		t.Error("referral lacks glue")
	}
}

func TestCNAMEChase(t *testing.T) {
	s := New(1)
	s.AddZone(buildZone(t, false))
	resp := ask(t, s, "alias.example.com.", dnswire.TypeA, false)
	if len(resp.Answer) != 2 {
		t.Fatalf("answer count = %d, want CNAME+A", len(resp.Answer))
	}
	if resp.Answer[0].Type() != dnswire.TypeCNAME || resp.Answer[1].Type() != dnswire.TypeA {
		t.Errorf("answer types = %s, %s", resp.Answer[0].Type(), resp.Answer[1].Type())
	}
}

func TestDNSSECAnswers(t *testing.T) {
	s := New(1)
	z := buildZone(t, true)
	s.AddZone(z)

	// With DO: RRSIGs present and verifiable.
	resp := ask(t, s, "www.example.com.", dnswire.TypeA, true)
	var aSet, sigSet []dnswire.RR
	for _, rr := range resp.Answer {
		switch rr.Type() {
		case dnswire.TypeA:
			aSet = append(aSet, rr)
		case dnswire.TypeRRSIG:
			sigSet = append(sigSet, rr)
		}
	}
	if len(aSet) == 0 || len(sigSet) == 0 {
		t.Fatalf("DO answer missing data or sigs: %d/%d", len(aSet), len(sigSet))
	}
	keys := z.RRset(z.Origin, dnswire.TypeDNSKEY)
	if err := dnssec.VerifyRRset(aSet, sigSet, keys, testNow); err != nil {
		t.Errorf("answer does not verify: %v", err)
	}

	// Without DO: no RRSIGs.
	plain := ask(t, s, "www.example.com.", dnswire.TypeA, false)
	for _, rr := range plain.Answer {
		if rr.Type() == dnswire.TypeRRSIG {
			t.Error("RRSIG included without DO")
		}
	}
}

func TestNXDOMAINWithNSECProof(t *testing.T) {
	s := New(1)
	z := buildZone(t, true)
	s.AddZone(z)
	resp := ask(t, s, "middle.example.com.", dnswire.TypeA, true)
	if resp.Rcode != dnswire.RcodeNXDomain {
		t.Fatalf("rcode = %s", resp.Rcode)
	}
	if !dnssec.CheckDenial(resp.Authority, "middle.example.com.", dnswire.TypeA) {
		t.Error("no NSEC denial proof in authority section")
	}
}

func TestNODATAWithNSECProof(t *testing.T) {
	s := New(1)
	z := buildZone(t, true)
	s.AddZone(z)
	resp := ask(t, s, "www.example.com.", dnswire.TypeCDS, true)
	if resp.Rcode != dnswire.RcodeNoError || len(resp.Answer) != 0 {
		t.Fatalf("rcode=%s answers=%d", resp.Rcode, len(resp.Answer))
	}
	if !dnssec.CheckDenial(resp.Authority, "www.example.com.", dnswire.TypeCDS) {
		t.Error("no NODATA NSEC proof")
	}
}

func TestLegacyUnknownTypes(t *testing.T) {
	s := New(1)
	s.Behavior.LegacyUnknownTypes = true
	s.AddZone(buildZone(t, false))
	resp := ask(t, s, "example.com.", dnswire.TypeCDS, false)
	if resp.Rcode != dnswire.RcodeFormErr {
		t.Errorf("legacy server rcode = %s, want FORMERR", resp.Rcode)
	}
	// Classic types still work.
	ok := ask(t, s, "example.com.", dnswire.TypeA, false)
	if ok.Rcode != dnswire.RcodeNoError || len(ok.Answer) == 0 {
		t.Error("legacy server broke classic queries")
	}
}

func TestDropUnknownTypes(t *testing.T) {
	s := New(1)
	s.Behavior.DropUnknownTypes = true
	s.AddZone(buildZone(t, false))
	q := dnswire.NewQuery(1, "example.com.", dnswire.TypeCDS)
	resp, err := s.HandleDNS(context.Background(), localAddr, q)
	if err != nil || resp != nil {
		t.Errorf("drop-mode returned %v, %v", resp, err)
	}
}

func TestRefuseANY(t *testing.T) {
	s := New(1)
	s.Behavior.RefuseANY = true
	s.AddZone(buildZone(t, false))
	resp := ask(t, s, "example.com.", dnswire.TypeANY, false)
	if len(resp.Answer) != 1 || resp.Answer[0].Type() != dnswire.Type(13) {
		t.Errorf("RFC 8482 answer = %+v", resp.Answer)
	}
}

func TestServfailAndDropRates(t *testing.T) {
	s := New(7)
	s.Behavior.ServfailRate = 1.0
	s.AddZone(buildZone(t, false))
	resp := ask(t, s, "example.com.", dnswire.TypeA, false)
	if resp.Rcode != dnswire.RcodeServFail {
		t.Errorf("rcode = %s, want SERVFAIL", resp.Rcode)
	}
	s2 := New(7)
	s2.Behavior.DropRate = 1.0
	s2.AddZone(buildZone(t, false))
	q := dnswire.NewQuery(1, "example.com.", dnswire.TypeA)
	got, err := s2.HandleDNS(context.Background(), localAddr, q)
	if err != nil || got != nil {
		t.Errorf("drop returned %v, %v", got, err)
	}
}

func TestCorruptSigRate(t *testing.T) {
	s := New(3)
	s.Behavior.CorruptSigRate = 1.0
	z := buildZone(t, true)
	s.AddZone(z)
	resp := ask(t, s, "www.example.com.", dnswire.TypeA, true)
	var aSet, sigSet []dnswire.RR
	for _, rr := range resp.Answer {
		if rr.Type() == dnswire.TypeA {
			aSet = append(aSet, rr)
		}
		if rr.Type() == dnswire.TypeRRSIG {
			sigSet = append(sigSet, rr)
		}
	}
	if len(sigSet) == 0 {
		t.Fatal("no sigs returned")
	}
	keys := z.RRset(z.Origin, dnswire.TypeDNSKEY)
	if err := dnssec.VerifyRRset(aSet, sigSet, keys, testNow); err == nil {
		t.Error("corrupted signature verified")
	}
}

func TestMostSpecificZoneWins(t *testing.T) {
	s := New(1)
	parent := zone.New("com.")
	parent.SetBasics("ns.tld.", []string{"ns.tld."}, 1)
	parent.MustAdd(dnswire.RR{Name: "example.com.", TTL: 3600, Data: dnswire.NewNS("ns1.example.net.")})
	s.AddZone(parent)
	s.AddZone(buildZone(t, false))
	resp := ask(t, s, "www.example.com.", dnswire.TypeA, false)
	if !resp.Authoritative || len(resp.Answer) != 1 {
		t.Errorf("child zone did not win: aa=%v answers=%d", resp.Authoritative, len(resp.Answer))
	}
}

func TestParkingHandler(t *testing.T) {
	p := &Parking{NSHosts: []string{"ns1.namefind.com.", "ns2.namefind.com."}, Addr: netip.MustParseAddr("203.0.113.1")}
	q := dnswire.NewQuery(5, "anything.at.all.example.", dnswire.TypeNS)
	resp, err := p.HandleDNS(context.Background(), localAddr, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answer) != 2 {
		t.Fatalf("parking NS answers = %d", len(resp.Answer))
	}
	// The same answer at any depth — the zone-cut illusion.
	q2 := dnswire.NewQuery(6, "a.b.c.d.e.example.", dnswire.TypeNS)
	resp2, _ := p.HandleDNS(context.Background(), localAddr, q2)
	if len(resp2.Answer) != 2 {
		t.Error("parking server depth-sensitive")
	}
}

func TestFormErrOnBadQuery(t *testing.T) {
	s := New(1)
	s.AddZone(buildZone(t, false))
	q := &dnswire.Message{ID: 9} // no question
	resp, err := s.HandleDNS(context.Background(), localAddr, q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Rcode != dnswire.RcodeFormErr {
		t.Errorf("rcode = %s", resp.Rcode)
	}
}

func TestWildcardSynthesis(t *testing.T) {
	s := New(1)
	z := zone.New("wild.test.")
	z.SetBasics("ns1.example.net.", []string{"ns1.example.net."}, 1)
	z.MustAdd(dnswire.RR{Name: "*.wild.test.", TTL: 300, Data: &dnswire.A{Addr: netip.MustParseAddr("192.0.2.77")}})
	z.MustAdd(dnswire.RR{Name: "real.wild.test.", TTL: 300, Data: &dnswire.A{Addr: netip.MustParseAddr("192.0.2.78")}})
	if err := z.GenerateKeys(zone.SignConfig{Algorithm: dnswire.AlgEd25519}, nil); err != nil {
		t.Fatal(err)
	}
	if err := z.Sign(zone.SignConfig{Now: testNow}); err != nil {
		t.Fatal(err)
	}
	s.AddZone(z)

	// Synthesized answer with the qname as owner.
	resp := ask(t, s, "anything.wild.test.", dnswire.TypeA, true)
	if resp.Rcode != dnswire.RcodeNoError {
		t.Fatalf("rcode = %s", resp.Rcode)
	}
	var aSet, sigSet []dnswire.RR
	for _, rr := range resp.Answer {
		switch rr.Type() {
		case dnswire.TypeA:
			aSet = append(aSet, rr)
		case dnswire.TypeRRSIG:
			sigSet = append(sigSet, rr)
		}
	}
	if len(aSet) != 1 || aSet[0].Name != "anything.wild.test." {
		t.Fatalf("synthesized answer = %+v", aSet)
	}
	if aSet[0].Data.(*dnswire.A).Addr.String() != "192.0.2.77" {
		t.Errorf("wildcard addr = %s", aSet[0].Data.(*dnswire.A).Addr)
	}
	// The wildcard RRSIG must validate against the expanded name.
	keys := z.RRset(z.Origin, dnswire.TypeDNSKEY)
	if err := dnssec.VerifyRRset(aSet, sigSet, keys, testNow); err != nil {
		t.Errorf("wildcard expansion does not verify: %v", err)
	}
	// The covering NSEC proof must accompany the expansion.
	foundNSEC := false
	for _, rr := range resp.Authority {
		if rr.Type() == dnswire.TypeNSEC {
			foundNSEC = true
		}
	}
	if !foundNSEC {
		t.Error("wildcard answer lacks the no-exact-match NSEC")
	}

	// Exact names still win over the wildcard.
	exact := ask(t, s, "real.wild.test.", dnswire.TypeA, false)
	if exact.Answer[0].Data.(*dnswire.A).Addr.String() != "192.0.2.78" {
		t.Error("exact match shadowed by wildcard")
	}
	// Wildcard NODATA for absent types.
	nodata := ask(t, s, "anything.wild.test.", dnswire.TypeMX, false)
	if nodata.Rcode != dnswire.RcodeNoError || len(nodata.Answer) != 0 {
		t.Errorf("wildcard NODATA: rcode=%s answers=%d", nodata.Rcode, len(nodata.Answer))
	}
}

// TestEmptyNonTerminal: a name with no records of its own but records
// below it exists (RFC 4592 §2.2.2). It answers NODATA, not NXDOMAIN
// (RFC 8020 §2), and it is the closest encloser for the names beneath
// it, so a wildcard higher up must not synthesise for them. The
// signal zones' com._signal.<ns> names are of this kind.
func TestEmptyNonTerminal(t *testing.T) {
	s := New(1)
	z := zone.New("example.")
	z.SetBasics("ns1.example.net.", []string{"ns1.example.net."}, 1)
	z.MustAdd(dnswire.RR{Name: "a.b.example.", TTL: 300, Data: &dnswire.A{Addr: netip.MustParseAddr("192.0.2.1")}})
	z.MustAdd(dnswire.RR{Name: "*.example.", TTL: 300, Data: &dnswire.A{Addr: netip.MustParseAddr("192.0.2.2")}})
	s.AddZone(z)

	ent := ask(t, s, "b.example.", dnswire.TypeA, false)
	if ent.Rcode != dnswire.RcodeNoError || len(ent.Answer) != 0 {
		t.Errorf("b.example./A: rcode=%s answers=%d, want NOERROR with no answer", ent.Rcode, len(ent.Answer))
	}
	if len(ent.Authority) == 0 || ent.Authority[0].Type() != dnswire.TypeSOA {
		t.Error("b.example./A: NODATA lacks SOA in authority")
	}
	below := ask(t, s, "x.b.example.", dnswire.TypeA, false)
	if below.Rcode != dnswire.RcodeNXDomain || len(below.Answer) != 0 {
		t.Errorf("x.b.example./A: rcode=%s answers=%d, want NXDOMAIN (b.example. is the closest encloser, it has no wildcard)",
			below.Rcode, len(below.Answer))
	}
	// The wildcard still covers names whose closest encloser is the apex.
	if wc := ask(t, s, "c.example.", dnswire.TypeA, false); wc.Rcode != dnswire.RcodeNoError || len(wc.Answer) != 1 {
		t.Errorf("c.example./A: rcode=%s answers=%d, want the wildcard expansion", wc.Rcode, len(wc.Answer))
	}
}

func TestNSEC3Denial(t *testing.T) {
	s := New(1)
	z := zone.New("n3.test.")
	z.SetBasics("ns1.example.net.", []string{"ns1.example.net."}, 1)
	z.MustAdd(dnswire.RR{Name: "alpha.n3.test.", TTL: 300, Data: &dnswire.A{Addr: netip.MustParseAddr("192.0.2.1")}})
	z.MustAdd(dnswire.RR{Name: "beta.n3.test.", TTL: 300, Data: &dnswire.A{Addr: netip.MustParseAddr("192.0.2.2")}})
	cfg := zone.SignConfig{Now: testNow, Algorithm: dnswire.AlgEd25519, UseNSEC3: true, NSEC3Salt: []byte{0xAB, 0xCD}}
	if err := z.GenerateKeys(cfg, nil); err != nil {
		t.Fatal(err)
	}
	if err := z.Sign(cfg); err != nil {
		t.Fatal(err)
	}
	s.AddZone(z)

	// Positive answers still verify.
	resp := ask(t, s, "alpha.n3.test.", dnswire.TypeA, true)
	var aSet, sigSet []dnswire.RR
	for _, rr := range resp.Answer {
		if rr.Type() == dnswire.TypeA {
			aSet = append(aSet, rr)
		}
		if rr.Type() == dnswire.TypeRRSIG {
			sigSet = append(sigSet, rr)
		}
	}
	keys := z.RRset(z.Origin, dnswire.TypeDNSKEY)
	if err := dnssec.VerifyRRset(aSet, sigSet, keys, testNow); err != nil {
		t.Fatalf("NSEC3-zone positive answer: %v", err)
	}

	// NXDOMAIN carries a verifiable NSEC3 proof.
	nx := ask(t, s, "gamma.n3.test.", dnswire.TypeA, true)
	if nx.Rcode != dnswire.RcodeNXDomain {
		t.Fatalf("rcode = %s", nx.Rcode)
	}
	if !dnssec.CheckDenialNSEC3(nx.Authority, "gamma.n3.test.", dnswire.TypeA) {
		t.Errorf("no NSEC3 NXDOMAIN proof in %d authority records", len(nx.Authority))
	}
	// And its NSEC3 records are signed + verifiable.
	for _, rr := range nx.Authority {
		if rr.Type() != dnswire.TypeNSEC3 {
			continue
		}
		sigs := dnssec.SigsCovering(nx.Authority, rr.Name, dnswire.TypeNSEC3)
		if err := dnssec.VerifyRRset([]dnswire.RR{rr}, sigs, keys, testNow); err != nil {
			t.Errorf("NSEC3 at %s does not verify: %v", rr.Name, err)
		}
	}

	// NODATA proof.
	nodata := ask(t, s, "alpha.n3.test.", dnswire.TypeMX, true)
	if nodata.Rcode != dnswire.RcodeNoError || len(nodata.Answer) != 0 {
		t.Fatalf("NODATA rcode=%s answers=%d", nodata.Rcode, len(nodata.Answer))
	}
	if !dnssec.CheckDenialNSEC3(nodata.Authority, "alpha.n3.test.", dnswire.TypeMX) {
		t.Error("no NSEC3 NODATA proof")
	}
}

// TestHandleDNSIntoReuseMatchesFresh answers a run of differently
// shaped queries into one reused reply: each must pack to the bytes of
// HandleDNS's fresh answer, so nothing of an earlier answer leaks into
// a later one.
func TestHandleDNSIntoReuseMatchesFresh(t *testing.T) {
	s := New(1)
	s.AddZone(buildZone(t, true))
	var reply dnswire.Message
	for _, tc := range []struct {
		name string
		typ  dnswire.Type
		do   bool
	}{
		{"www.example.com.", dnswire.TypeA, true},
		{"host.sub.example.com.", dnswire.TypeA, true},
		{"nope.example.com.", dnswire.TypeA, true},
		{"www.example.com.", dnswire.TypeMX, true},
		{"alias.example.com.", dnswire.TypeA, false},
		{"example.com.", dnswire.TypeNS, true},
		{"sub.example.com.", dnswire.TypeDS, true},
		{"www.example.org.", dnswire.TypeA, true},
		{"www.example.com.", dnswire.TypeA, false},
	} {
		q := dnswire.NewQuery(9, tc.name, tc.typ)
		if tc.do {
			q.SetEDNS(dnswire.EDNS{UDPSize: dnswire.MaxUDPPayload, DO: true})
		}
		fresh, err := s.HandleDNS(context.Background(), localAddr, q)
		if err != nil || fresh == nil {
			t.Fatalf("%s/%s: HandleDNS: %v", tc.name, tc.typ, err)
		}
		if ok, err := s.HandleDNSInto(context.Background(), localAddr, q, &reply); !ok || err != nil {
			t.Fatalf("%s/%s: HandleDNSInto answered=%v err=%v", tc.name, tc.typ, ok, err)
		}
		want, err := fresh.Pack()
		if err != nil {
			t.Fatal(err)
		}
		got, err := reply.Pack()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s/%s: the reused reply packs to %d bytes differing from the fresh answer's %d", tc.name, tc.typ, len(got), len(want))
		}
	}
}
