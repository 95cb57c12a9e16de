package zone

import (
	"strings"
	"testing"

	"dnssecboot/internal/dnswire"
)

const sampleMaster = `
$ORIGIN example.com.
$TTL 3600
@   IN  SOA ns1.example.net. hostmaster.example.com. (
        2025041501 ; serial
        7200       ; refresh
        3600       ; retry
        1209600    ; expire
        300 )      ; minimum
@       IN  NS   ns1.example.net.
        IN  NS   ns2.example.org.
@       300 IN A 192.0.2.10
www     300 A    192.0.2.11
mail    IN  AAAA 2001:db8::25
@       IN  MX   10 mail
@       IN  TXT  "v=spf1 -all" "second string"
_sip._tcp IN SRV 5 10 5060 sip.example.com.
sub     IN  NS   ns.sub
ns.sub  IN  A    192.0.2.53
@       IN  CDS  12345 13 2 49FD46E6C4B45C55D4AC69CBD3CD34AC1AFE51DE
@       IN  CDNSKEY 257 3 13 mdsswUyr3DPW132mOi8V9xESWE8jTo0dxCjjnopKl+GqJxpVXckHAeF+KkxLbxILfDLUT0rAK9iUzy1L53eKGQ==
alias   IN  CNAME www
`

func parseSample(t *testing.T) *Zone {
	t.Helper()
	z, err := ParseString(sampleMaster, "example.com.")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return z
}

func TestParseBasics(t *testing.T) {
	z := parseSample(t)
	if z.Origin != "example.com." {
		t.Errorf("origin = %s", z.Origin)
	}
	soa := z.SOA()
	if soa == nil {
		t.Fatal("no SOA")
	}
	s := soa.Data.(*dnswire.SOA)
	if s.Serial != 2025041501 || s.Minimum != 300 || s.MName != "ns1.example.net." {
		t.Errorf("SOA = %+v", s)
	}
	if len(z.NS()) != 2 {
		t.Errorf("NS count = %d", len(z.NS()))
	}
}

func TestParseRelativeAndBlankOwners(t *testing.T) {
	z := parseSample(t)
	if z.RRset("www.example.com.", dnswire.TypeA) == nil {
		t.Error("relative owner www not resolved")
	}
	// Blank owner lines continue the previous owner (the two NS records).
	if got := z.RRset("example.com.", dnswire.TypeNS); len(got) != 2 {
		t.Errorf("blank-owner NS = %d records", len(got))
	}
	mx := z.RRset("example.com.", dnswire.TypeMX)
	if len(mx) != 1 || mx[0].Data.(*dnswire.MX).Host != "mail.example.com." {
		t.Errorf("MX = %+v", mx)
	}
}

func TestParseTTLHandling(t *testing.T) {
	z := parseSample(t)
	a := z.RRset("example.com.", dnswire.TypeA)
	if len(a) != 1 || a[0].TTL != 300 {
		t.Errorf("explicit TTL = %+v", a)
	}
	ns := z.RRset("example.com.", dnswire.TypeNS)
	if ns[0].TTL != 3600 {
		t.Errorf("default $TTL = %d", ns[0].TTL)
	}
}

func TestParseQuotedTXT(t *testing.T) {
	z := parseSample(t)
	txt := z.RRset("example.com.", dnswire.TypeTXT)
	if len(txt) != 1 {
		t.Fatalf("TXT sets = %d", len(txt))
	}
	ss := txt[0].Data.(*dnswire.TXT).Strings
	if len(ss) != 2 || ss[0] != "v=spf1 -all" || ss[1] != "second string" {
		t.Errorf("TXT strings = %q", ss)
	}
}

func TestParseDNSSECTypes(t *testing.T) {
	z := parseSample(t)
	cds := z.RRset("example.com.", dnswire.TypeCDS)
	if len(cds) != 1 {
		t.Fatalf("CDS sets = %d", len(cds))
	}
	c := cds[0].Data.(*dnswire.CDS)
	if c.KeyTag != 12345 || c.Algorithm != 13 || c.DigestType != 2 || len(c.Digest) != 20 {
		t.Errorf("CDS = %+v", c)
	}
	ck := z.RRset("example.com.", dnswire.TypeCDNSKEY)
	if len(ck) != 1 {
		t.Fatalf("CDNSKEY sets = %d", len(ck))
	}
	k := ck[0].Data.(*dnswire.CDNSKEY)
	if k.Flags != 257 || k.Algorithm != 13 || len(k.PublicKey) == 0 {
		t.Errorf("CDNSKEY = %+v", k)
	}
}

func TestParseSRVAndCNAME(t *testing.T) {
	z := parseSample(t)
	srv := z.RRset("_sip._tcp.example.com.", dnswire.TypeSRV)
	if len(srv) != 1 || srv[0].Data.(*dnswire.SRV).Port != 5060 {
		t.Errorf("SRV = %+v", srv)
	}
	cn := z.RRset("alias.example.com.", dnswire.TypeCNAME)
	if len(cn) != 1 || cn[0].Data.(*dnswire.CNAME).Target != "www.example.com." {
		t.Errorf("CNAME = %+v", cn)
	}
}

func TestParseGenericRFC3597(t *testing.T) {
	z, err := ParseString(`
$ORIGIN x.test.
@ IN SOA ns. root. 1 2 3 4 5
@ IN TYPE65280 \# 4 C0000201
`, "x.test.")
	if err != nil {
		t.Fatal(err)
	}
	set := z.RRset("x.test.", dnswire.Type(65280))
	if len(set) != 1 {
		t.Fatalf("generic sets = %d", len(set))
	}
	g := set[0].Data.(*dnswire.Generic)
	if len(g.Octets) != 4 || g.Octets[0] != 0xC0 {
		t.Errorf("generic octets = %x", g.Octets)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"@ IN SOA broken",              // not enough SOA fields
		"@ IN NOSUCHTYPE data",         // unknown mnemonic
		"@ IN A not-an-address",        // bad A
		"@ IN A 2001:db8::1",           // v6 in A
		"@ IN TYPE1 \\# 5 C0000201",    // generic length mismatch
		"   IN A 192.0.2.1",            // blank owner with no prior owner
		"@ IN SOA ns. root. 1 2 3 4 (", // unbalanced paren
	}
	for _, c := range cases {
		if _, err := ParseString(c, "test."); err == nil {
			t.Errorf("input %q parsed without error", c)
		}
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	z := parseSample(t)
	text := z.Text()
	z2, err := ParseString(text, z.Origin)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, text)
	}
	if z2.Size() != z.Size() {
		t.Fatalf("round trip size %d != %d\n%s", z2.Size(), z.Size(), text)
	}
	for _, rr := range z.All() {
		set := z2.RRset(rr.Name, rr.Type())
		found := false
		for _, got := range set {
			if got.Equal(rr) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("record lost in round trip: %s", rr)
		}
	}
}

func TestSignedZoneSerializeRoundTrip(t *testing.T) {
	z := buildTestZone(t)
	if err := z.GenerateKeys(SignConfig{Algorithm: dnswire.AlgEd25519}, nil); err != nil {
		t.Fatal(err)
	}
	if err := z.Sign(SignConfig{Now: testNow}); err != nil {
		t.Fatal(err)
	}
	text := z.Text()
	z2, err := ParseString(text, z.Origin)
	if err != nil {
		t.Fatalf("re-parse signed zone: %v", err)
	}
	if z2.Size() != z.Size() {
		t.Errorf("signed round trip size %d != %d", z2.Size(), z.Size())
	}
	if !strings.Contains(text, "RRSIG") || !strings.Contains(text, "NSEC") {
		t.Error("serialisation lacks DNSSEC records")
	}
}

func TestParseDefaultsOriginFromFirstRecord(t *testing.T) {
	z, err := ParseString("example.org. IN SOA ns. root. 1 2 3 4 5\nexample.org. IN NS ns.example.net.\n", "")
	if err != nil {
		t.Fatal(err)
	}
	if z.Origin != "example.org." {
		t.Errorf("inferred origin = %s", z.Origin)
	}
}

func TestNSEC3ZoneSerializeRoundTrip(t *testing.T) {
	z := buildTestZone(t)
	cfg := SignConfig{Now: testNow, Algorithm: dnswire.AlgEd25519, UseNSEC3: true, NSEC3Salt: []byte{0xAB}}
	if err := z.GenerateKeys(cfg, nil); err != nil {
		t.Fatal(err)
	}
	if err := z.Sign(cfg); err != nil {
		t.Fatal(err)
	}
	text := z.Text()
	z2, err := ParseString(text, z.Origin)
	if err != nil {
		t.Fatalf("re-parse NSEC3 zone: %v", err)
	}
	if z2.Size() != z.Size() {
		t.Errorf("NSEC3 round trip size %d != %d", z2.Size(), z.Size())
	}
	for _, rr := range z.All() {
		if rr.Type() != dnswire.TypeNSEC3 {
			continue
		}
		found := false
		for _, got := range z2.RRset(rr.Name, dnswire.TypeNSEC3) {
			if got.Equal(rr) {
				found = true
			}
		}
		if !found {
			t.Errorf("NSEC3 record lost: %s", rr)
		}
	}
}

func TestParseRR(t *testing.T) {
	rr, err := ParseRR("example.com.\t3600\tIN\tNS\tns1.example.net.")
	if err != nil {
		t.Fatal(err)
	}
	if rr.Name != "example.com." || rr.Type() != dnswire.TypeNS {
		t.Errorf("ParseRR = %s", rr)
	}
	// Every RR.String() output must round-trip through ParseRR.
	z := buildTestZone(t)
	if err := z.GenerateKeys(SignConfig{Algorithm: dnswire.AlgEd25519}, nil); err != nil {
		t.Fatal(err)
	}
	if err := z.Sign(SignConfig{Now: testNow}); err != nil {
		t.Fatal(err)
	}
	if err := z.PublishCDS(dnswire.DigestSHA256); err != nil {
		t.Fatal(err)
	}
	for _, want := range z.All() {
		got, err := ParseRR(want.String())
		if err != nil {
			t.Fatalf("ParseRR(%q): %v", want.String(), err)
		}
		if !got.Equal(want) || got.TTL != want.TTL {
			t.Errorf("round trip changed record:\n in: %s\nout: %s", want, got)
		}
	}
	if _, err := ParseRR("not a record"); err == nil {
		t.Error("garbage accepted")
	}
}

// A blank owner is the last stated owner, an absolute name: a $ORIGIN
// between the two lines does not move it (RFC 1035 §5.1).
func TestParseBlankOwnerAcrossOrigin(t *testing.T) {
	z, err := ParseString("$ORIGIN example.\nwww 60 IN NS ns1.example.\n$ORIGIN other.\n\t60 IN NS ns2.example.\n", "")
	if err != nil {
		t.Fatal(err)
	}
	if got := z.RRset("www.example.", dnswire.TypeNS); len(got) != 2 {
		t.Errorf("www.example. NS = %v, want both records", got)
	}
}

// A relative $ORIGIN resolves against the origin in force (RFC 1035
// §5.1), and a directive the reader does not know is refused by name.
func TestParseOriginDirectives(t *testing.T) {
	z, err := ParseString("$ORIGIN example.\n$ORIGIN sub\n@ IN NS ns1\n", "")
	if err != nil {
		t.Fatal(err)
	}
	if z.Origin != "sub.example." {
		t.Errorf("origin = %s, want sub.example.", z.Origin)
	}
	ns := z.RRset("sub.example.", dnswire.TypeNS)
	if len(ns) != 1 || ns[0].Data.String() != "ns1.sub.example." {
		t.Errorf("NS = %v, want ns1.sub.example.", ns)
	}

	_, err = ParseString("$ORIGIN example.\n$GENERATE 1-2 host$ A 192.0.2.$\n", "")
	if want := "zone: line 2: unknown directive $GENERATE"; err == nil || err.Error() != want {
		t.Errorf("$GENERATE: error = %v, want %q", err, want)
	}
}

// An owner the wire cannot carry fails the record, so a server never
// loads a name it cannot pack; Parse names the line.
func TestParseRejectsOverlongOwner(t *testing.T) {
	label := strings.Repeat("a", 63)
	owner := strings.Repeat(label+".", 5) + "example." // 5*64+9 = 329 octets
	const want = "owner: dnswire: name exceeds 255 octets"
	if _, err := ParseRR(owner + " 60 IN NS ns1.example."); err == nil || !strings.HasSuffix(err.Error(), want) {
		t.Errorf("ParseRR: error = %v, want %q", err, want)
	}
	_, err := ParseString("$ORIGIN example.\n@ 60 IN NS ns1.example.\n"+owner+" 60 IN NS ns1.example.\n", "")
	if err == nil || err.Error() != "zone: line 3: "+want {
		t.Errorf("Parse: error = %v, want line 3: %s", err, want)
	}
}

// A record problem names the line the record starts on, also when its
// parentheses carry it over several lines.
func TestParseErrorNamesFirstLine(t *testing.T) {
	_, err := ParseString("$ORIGIN example.\n@ IN SOA ns1 host (\n 1 2 3\n x 5 )\n", "")
	if err == nil || !strings.HasPrefix(err.Error(), "zone: line 2: SOA field 6") {
		t.Errorf("error = %v, want one naming line 2", err)
	}
	_, err = ParseString("$ORIGIN example.\n@ IN NS ns1\nwww.other. IN A 192.0.2.1\n", "")
	if want := "zone: line 3: www.other. is out of zone example."; err == nil || err.Error() != want {
		t.Errorf("out-of-zone error = %v, want %q", err, want)
	}
}

// BenchmarkParseRR parses one CDS line, the shape scan.FromJSON
// re-parses for every signal record of a dump.
func BenchmarkParseRR(b *testing.B) {
	const line = "example.com.\t3600\tIN\tCDS\t12345 13 2 49FD46E6C4B45C55D4AC69CBD3CD34AC1AFE51DE49FD46E6C4B45C55D4AC69CB"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseRR(line); err != nil {
			b.Fatal(err)
		}
	}
}
