package zone

import (
	"net/netip"
	"strings"
	"testing"
	"time"

	"dnssecboot/internal/dnssec"
	"dnssecboot/internal/dnswire"
)

var testNow = time.Date(2025, 4, 15, 12, 0, 0, 0, time.UTC)

func buildTestZone(t *testing.T) *Zone {
	t.Helper()
	z := New("example.com.")
	z.SetBasics("ns1.example.net.", []string{"ns1.example.net.", "ns2.example.org."}, 2025041501)
	z.MustAdd(dnswire.RR{Name: "example.com.", TTL: 300, Data: &dnswire.A{Addr: netip.MustParseAddr("192.0.2.10")}})
	z.MustAdd(dnswire.RR{Name: "www.example.com.", TTL: 300, Data: &dnswire.A{Addr: netip.MustParseAddr("192.0.2.11")}})
	z.MustAdd(dnswire.RR{Name: "mail.example.com.", TTL: 300, Data: &dnswire.A{Addr: netip.MustParseAddr("192.0.2.12")}})
	z.MustAdd(dnswire.RR{Name: "example.com.", TTL: 300, Data: &dnswire.MX{Preference: 10, Host: "mail.example.com."}})
	// Delegation with in-zone glue.
	z.MustAdd(dnswire.RR{Name: "sub.example.com.", TTL: 3600, Data: dnswire.NewNS("ns.sub.example.com.")})
	z.MustAdd(dnswire.RR{Name: "ns.sub.example.com.", TTL: 3600, Data: &dnswire.A{Addr: netip.MustParseAddr("192.0.2.53")}})
	return z
}

func TestAddAndLookup(t *testing.T) {
	z := buildTestZone(t)
	if got := z.RRset("example.com.", dnswire.TypeNS); len(got) != 2 {
		t.Errorf("apex NS count = %d", len(got))
	}
	if got := z.RRset("WWW.example.COM", dnswire.TypeA); len(got) != 1 {
		t.Errorf("case-insensitive lookup failed: %d", len(got))
	}
	if z.RRset("nope.example.com.", dnswire.TypeA) != nil {
		t.Error("lookup of absent name returned records")
	}
	if err := z.Add(dnswire.RR{Name: "other.org.", Data: dnswire.NewNS("x.")}); err == nil {
		t.Error("out-of-zone Add accepted")
	}
}

func TestAddDeduplicates(t *testing.T) {
	z := New("example.com.")
	rr := dnswire.RR{Name: "example.com.", TTL: 60, Data: dnswire.NewNS("ns1.example.net.")}
	z.MustAdd(rr)
	z.MustAdd(rr)
	if n := len(z.RRset("example.com.", dnswire.TypeNS)); n != 1 {
		t.Errorf("duplicate Add produced %d records", n)
	}
}

func TestDelegationDetection(t *testing.T) {
	z := buildTestZone(t)
	if !z.DelegationAt("sub.example.com.") {
		t.Error("sub.example.com. not detected as a cut")
	}
	if z.DelegationAt("example.com.") {
		t.Error("apex detected as a cut")
	}
	if !z.Occluded("ns.sub.example.com.") {
		t.Error("glue not detected as occluded")
	}
	if z.Occluded("sub.example.com.") {
		t.Error("cut name itself reported occluded")
	}
	if z.Occluded("www.example.com.") {
		t.Error("ordinary name reported occluded")
	}
	cuts := z.Delegations()
	if len(cuts) != 1 || cuts[0] != "sub.example.com." {
		t.Errorf("Delegations = %v", cuts)
	}
}

func TestNamesCanonicalOrder(t *testing.T) {
	z := buildTestZone(t)
	names := z.Names()
	if names[0] != "example.com." {
		t.Errorf("first name = %s", names[0])
	}
	for i := 0; i < len(names)-1; i++ {
		if !dnswire.CanonicalNameLess(names[i], names[i+1]) {
			t.Errorf("names out of order: %s !< %s", names[i], names[i+1])
		}
	}
}

func TestSignZone(t *testing.T) {
	z := buildTestZone(t)
	if err := z.GenerateKeys(SignConfig{}, nil); err != nil {
		t.Fatal(err)
	}
	if err := z.Sign(SignConfig{Now: testNow}); err != nil {
		t.Fatal(err)
	}
	if !z.IsSigned() {
		t.Fatal("zone not signed")
	}
	keys := z.RRset(z.Origin, dnswire.TypeDNSKEY)
	if len(keys) != 2 {
		t.Fatalf("DNSKEY count = %d", len(keys))
	}

	// Every authoritative RRset must verify.
	for _, name := range z.Names() {
		if z.Occluded(name) {
			continue
		}
		isCut := z.DelegationAt(name)
		for _, typ := range z.TypesAt(name) {
			if typ == dnswire.TypeRRSIG || (isCut && typ == dnswire.TypeNS) {
				continue
			}
			set := z.RRset(name, typ)
			sigs := dnssec.SigsCovering(z.RRset(name, dnswire.TypeRRSIG), name, typ)
			if err := dnssec.VerifyRRset(set, sigs, keys, testNow); err != nil {
				t.Errorf("verify %s/%s: %v", name, typ, err)
			}
		}
	}

	// Glue must not be signed.
	if sigs := z.RRset("ns.sub.example.com.", dnswire.TypeRRSIG); sigs != nil {
		t.Error("glue has RRSIGs")
	}
	// Delegation NS must not be signed; its NSEC must exist.
	cutSigs := dnssec.SigsCovering(z.RRset("sub.example.com.", dnswire.TypeRRSIG), "sub.example.com.", dnswire.TypeNS)
	if len(cutSigs) != 0 {
		t.Error("delegation NS RRset is signed")
	}
	if z.RRset("sub.example.com.", dnswire.TypeNSEC) == nil {
		t.Error("no NSEC at the cut")
	}
}

func TestNSECChainClosed(t *testing.T) {
	z := buildTestZone(t)
	if err := z.GenerateKeys(SignConfig{Algorithm: dnswire.AlgEd25519}, nil); err != nil {
		t.Fatal(err)
	}
	if err := z.Sign(SignConfig{Now: testNow}); err != nil {
		t.Fatal(err)
	}
	// Walk the chain from the apex; it must visit every authoritative
	// name exactly once and return to the apex.
	var authNames []string
	for _, n := range z.Names() {
		if !z.Occluded(n) {
			authNames = append(authNames, n)
		}
	}
	visited := make(map[string]bool)
	cur := z.Origin
	for i := 0; i < len(authNames)+1; i++ {
		set := z.RRset(cur, dnswire.TypeNSEC)
		if len(set) != 1 {
			t.Fatalf("NSEC count at %s = %d", cur, len(set))
		}
		visited[cur] = true
		cur = set[0].Data.(*dnswire.NSEC).NextDomain
		if cur == z.Origin {
			break
		}
	}
	if cur != z.Origin {
		t.Error("NSEC chain does not loop back to the apex")
	}
	for _, n := range authNames {
		if !visited[n] {
			t.Errorf("NSEC chain misses %s", n)
		}
	}
}

func TestSignExpired(t *testing.T) {
	z := buildTestZone(t)
	if err := z.GenerateKeys(SignConfig{Algorithm: dnswire.AlgEd25519}, nil); err != nil {
		t.Fatal(err)
	}
	if err := z.Sign(SignConfig{Now: testNow, Expired: true}); err != nil {
		t.Fatal(err)
	}
	keys := z.RRset(z.Origin, dnswire.TypeDNSKEY)
	set := z.RRset(z.Origin, dnswire.TypeSOA)
	sigs := dnssec.SigsCovering(z.RRset(z.Origin, dnswire.TypeRRSIG), z.Origin, dnswire.TypeSOA)
	if err := dnssec.VerifyRRset(set, sigs, keys, testNow); err == nil {
		t.Error("expired-signed zone verified at now")
	}
}

func TestUnsign(t *testing.T) {
	z := buildTestZone(t)
	if err := z.GenerateKeys(SignConfig{Algorithm: dnswire.AlgEd25519}, nil); err != nil {
		t.Fatal(err)
	}
	if err := z.Sign(SignConfig{Now: testNow}); err != nil {
		t.Fatal(err)
	}
	z.Unsign()
	if z.IsSigned() {
		t.Error("zone still signed after Unsign")
	}
	for _, name := range z.Names() {
		for _, typ := range z.TypesAt(name) {
			switch typ {
			case dnswire.TypeRRSIG, dnswire.TypeNSEC, dnswire.TypeDNSKEY:
				t.Errorf("leftover %s at %s", typ, name)
			}
		}
	}
}

func TestPublishCDS(t *testing.T) {
	z := buildTestZone(t)
	if err := z.GenerateKeys(SignConfig{Algorithm: dnswire.AlgEd25519}, nil); err != nil {
		t.Fatal(err)
	}
	if err := z.Sign(SignConfig{Now: testNow}); err != nil {
		t.Fatal(err)
	}
	if err := z.PublishCDS(dnswire.DigestSHA256, dnswire.DigestSHA384); err != nil {
		t.Fatal(err)
	}
	cds := z.RRset(z.Origin, dnswire.TypeCDS)
	if len(cds) != 2 {
		t.Fatalf("CDS count = %d", len(cds))
	}
	cdnskey := z.RRset(z.Origin, dnswire.TypeCDNSKEY)
	if len(cdnskey) != 1 {
		t.Fatalf("CDNSKEY count = %d", len(cdnskey))
	}
	// CDS content must correspond to a DNSKEY in the zone.
	keys := z.RRset(z.Origin, dnswire.TypeDNSKEY)
	if _, ok := dnssec.CDSMatchesDNSKEYs(z.Origin, cds, keys); !ok {
		t.Error("published CDS does not match a zone DNSKEY")
	}
}

func TestPublishDeleteCDS(t *testing.T) {
	z := buildTestZone(t)
	z.PublishDeleteCDS()
	set := append(z.RRset(z.Origin, dnswire.TypeCDS), z.RRset(z.Origin, dnswire.TypeCDNSKEY)...)
	if !dnssec.IsDeleteSet(set) {
		t.Error("PublishDeleteCDS did not produce a delete set")
	}
}

func TestSignalNames(t *testing.T) {
	owner, err := SignalName("example.co.uk.", "ns1.example.net.")
	if err != nil {
		t.Fatal(err)
	}
	want := "_dsboot.example.co.uk._signal.ns1.example.net."
	if owner != want {
		t.Errorf("SignalName = %q, want %q", owner, want)
	}
	if got := SignalZoneName("ns1.example.net."); got != "_signal.ns1.example.net." {
		t.Errorf("SignalZoneName = %q", got)
	}
	// Over-long combinations must be rejected (paper §2, "DS
	// Bootstrapping Limitations").
	longChild := strings.Repeat("a", 63) + "." + strings.Repeat("b", 63) + "." + strings.Repeat("c", 60) + ".com."
	longNS := strings.Repeat("n", 63) + ".example.net."
	if _, err := SignalName(longChild, longNS); err == nil {
		t.Error("over-long signal name accepted")
	}
}

func TestSignalRecords(t *testing.T) {
	z := buildTestZone(t)
	if err := z.GenerateKeys(SignConfig{Algorithm: dnswire.AlgEd25519}, nil); err != nil {
		t.Fatal(err)
	}
	if err := z.Sign(SignConfig{Now: testNow}); err != nil {
		t.Fatal(err)
	}
	if err := z.PublishCDS(); err != nil {
		t.Fatal(err)
	}
	cds := append(z.RRset(z.Origin, dnswire.TypeCDS), z.RRset(z.Origin, dnswire.TypeCDNSKEY)...)
	recs, err := SignalRecords(z.Origin, "ns1.example.net.", cds)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(cds) {
		t.Fatalf("signal record count = %d, want %d", len(recs), len(cds))
	}
	for _, rr := range recs {
		if rr.Name != "_dsboot.example.com._signal.ns1.example.net." {
			t.Errorf("signal owner = %s", rr.Name)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	z := buildTestZone(t)
	c := z.Clone()
	c.MustAdd(dnswire.RR{Name: "new.example.com.", TTL: 60, Data: &dnswire.A{Addr: netip.MustParseAddr("192.0.2.99")}})
	if z.NameExists("new.example.com.") {
		t.Error("mutating clone affected original")
	}
	if c.Size() != z.Size()+1 {
		t.Errorf("clone size %d, original %d", c.Size(), z.Size())
	}
}

// TestNameExistsEmptyNonTerminal: a name exists when records sit at or
// below it, so an empty non-terminal exists and is the closest encloser
// of the names beneath it.
func TestNameExistsEmptyNonTerminal(t *testing.T) {
	z := New("example.")
	z.SetBasics("ns1.example.net.", []string{"ns1.example.net."}, 1)
	z.MustAdd(dnswire.RR{Name: "a.b.example.", TTL: 60, Data: &dnswire.A{Addr: netip.MustParseAddr("192.0.2.1")}})
	z.MustAdd(dnswire.RR{Name: "*.example.", TTL: 60, Data: &dnswire.A{Addr: netip.MustParseAddr("192.0.2.2")}})
	for name, want := range map[string]bool{
		"example.":     true,
		"a.b.example.": true,
		"b.example.":   true, // empty non-terminal
		"B.Example":    true,
		"x.b.example.": false,
		"ba.example.":  false, // sorts after b.example.'s subtree, not in it
		"a.example.":   false,
		"c.example.":   false,
		"other.":       false,
	} {
		if got := z.NameExists(name); got != want {
			t.Errorf("NameExists(%q) = %t, want %t", name, got, want)
		}
	}
	for qname, want := range map[string]string{
		"c.example.":   "*.example.",
		"x.b.example.": "", // closest encloser b.example. has no wildcard
		"b.example.":   "", // exists, so nothing is synthesised
	} {
		if got := z.WildcardFor(qname); got != want {
			t.Errorf("WildcardFor(%q) = %q, want %q", qname, got, want)
		}
	}
}

func TestFindCutDeep(t *testing.T) {
	z := buildTestZone(t)
	if cut := z.FindCut("a.b.ns.sub.example.com."); cut != "sub.example.com." {
		t.Errorf("FindCut deep = %q", cut)
	}
	if cut := z.FindCut("www.example.com."); cut != "" {
		t.Errorf("FindCut on plain name = %q", cut)
	}
}
