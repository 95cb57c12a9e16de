package dnswire

import (
	"net/netip"
	"reflect"
	"testing"
)

func mustPack(t *testing.T, m *Message) []byte {
	t.Helper()
	out, err := m.Pack()
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	return out
}

func roundTrip(t *testing.T, m *Message) *Message {
	t.Helper()
	out := mustPack(t, m)
	got, err := Unpack(out)
	if err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	return got
}

func TestMessageHeaderRoundTrip(t *testing.T) {
	m := &Message{
		ID:               0xBEEF,
		Response:         true,
		Opcode:           OpcodeQuery,
		Authoritative:    true,
		RecursionDesired: true,
		AuthenticData:    true,
		Rcode:            RcodeNXDomain,
		Question:         []Question{{Name: "example.com.", Type: TypeSOA, Class: ClassIN}},
	}
	got := roundTrip(t, m)
	if got.ID != m.ID || !got.Response || !got.Authoritative || !got.RecursionDesired ||
		!got.AuthenticData || got.Rcode != RcodeNXDomain {
		t.Errorf("header mismatch: %+v", got)
	}
	if len(got.Question) != 1 || got.Question[0] != m.Question[0] {
		t.Errorf("question mismatch: %+v", got.Question)
	}
}

func sampleRRs() []RR {
	ksk := &DNSKEY{Flags: DNSKEYFlagZone | DNSKEYFlagSEP, Protocol: 3, Algorithm: AlgEd25519, PublicKey: make([]byte, 32)}
	return []RR{
		{Name: "example.com.", Class: ClassIN, TTL: 3600, Data: &A{Addr: netip.MustParseAddr("192.0.2.1")}},
		{Name: "example.com.", Class: ClassIN, TTL: 3600, Data: &AAAA{Addr: netip.MustParseAddr("2001:db8::1")}},
		{Name: "example.com.", Class: ClassIN, TTL: 3600, Data: NewNS("ns1.example.net.")},
		{Name: "www.example.com.", Class: ClassIN, TTL: 60, Data: NewCNAME("example.com.")},
		{Name: "example.com.", Class: ClassIN, TTL: 3600, Data: &SOA{
			MName: "ns1.example.net.", RName: "hostmaster.example.com.",
			Serial: 2025070501, Refresh: 7200, Retry: 3600, Expire: 1209600, Minimum: 300}},
		{Name: "example.com.", Class: ClassIN, TTL: 3600, Data: &MX{Preference: 10, Host: "mail.example.com."}},
		{Name: "example.com.", Class: ClassIN, TTL: 3600, Data: &TXT{Strings: []string{"v=spf1 -all", "second"}}},
		{Name: "_sip._tcp.example.com.", Class: ClassIN, TTL: 3600, Data: &SRV{Priority: 1, Weight: 2, Port: 5060, Target: "sip.example.com."}},
		{Name: "example.com.", Class: ClassIN, TTL: 3600, Data: &DS{KeyTag: 12345, Algorithm: AlgECDSAP256SHA256, DigestType: DigestSHA256, Digest: make([]byte, 32)}},
		{Name: "example.com.", Class: ClassIN, TTL: 3600, Data: &CDS{DS{KeyTag: 12345, Algorithm: AlgECDSAP256SHA256, DigestType: DigestSHA384, Digest: make([]byte, 48)}}},
		{Name: "example.com.", Class: ClassIN, TTL: 3600, Data: ksk},
		{Name: "example.com.", Class: ClassIN, TTL: 3600, Data: &CDNSKEY{*ksk}},
		{Name: "example.com.", Class: ClassIN, TTL: 3600, Data: &RRSIG{
			TypeCovered: TypeA, Algorithm: AlgEd25519, Labels: 2, OrigTTL: 3600,
			Expiration: 1767225600, Inception: 1764547200, KeyTag: 4711,
			SignerName: "example.com.", Signature: make([]byte, 64)}},
		{Name: "example.com.", Class: ClassIN, TTL: 300, Data: &NSEC{
			NextDomain: "www.example.com.", Types: []Type{TypeA, TypeNS, TypeSOA, TypeRRSIG, TypeNSEC, TypeDNSKEY}}},
		{Name: "x.example.com.", Class: ClassIN, TTL: 300, Data: &NSEC3{
			HashAlg: 1, Flags: 0, Iterations: 10, Salt: []byte{0xAB, 0xCD},
			NextHashed: make([]byte, 20), Types: []Type{TypeA, TypeRRSIG}}},
		{Name: "example.com.", Class: ClassIN, TTL: 300, Data: &NSEC3PARAM{HashAlg: 1, Iterations: 10, Salt: []byte{0xAB}}},
		{Name: "example.com.", Class: ClassIN, TTL: 300, Data: &CSYNC{SOASerial: 42, Flags: 3, Types: []Type{TypeNS, TypeA, TypeAAAA}}},
		{Name: "example.com.", Class: ClassIN, TTL: 300, Data: &Generic{T: Type(9999), Octets: []byte{1, 2, 3, 4}}},
	}
}

func TestAllRDataRoundTrip(t *testing.T) {
	m := &Message{ID: 1, Response: true, Answer: sampleRRs()}
	got := roundTrip(t, m)
	if len(got.Answer) != len(m.Answer) {
		t.Fatalf("answer count %d, want %d", len(got.Answer), len(m.Answer))
	}
	for i, want := range m.Answer {
		g := got.Answer[i]
		if g.Type() != want.Type() {
			t.Errorf("rr %d type %s want %s", i, g.Type(), want.Type())
			continue
		}
		gw, err1 := RDataWire(g.Data)
		ww, err2 := RDataWire(want.Data)
		if err1 != nil || err2 != nil {
			t.Errorf("rr %d wire err %v %v", i, err1, err2)
			continue
		}
		if !reflect.DeepEqual(gw, ww) {
			t.Errorf("rr %d (%s) rdata mismatch\n got %x\nwant %x", i, g.Type(), gw, ww)
		}
		if !g.Equal(want) {
			t.Errorf("rr %d (%s) not Equal after round trip", i, g.Type())
		}
	}
}

func TestRREqualIgnoresTTLAndCase(t *testing.T) {
	a := RR{Name: "Example.COM.", Class: ClassIN, TTL: 60, Data: NewNS("NS1.example.net.")}
	b := RR{Name: "example.com.", Class: ClassIN, TTL: 3600, Data: NewNS("ns1.example.net.")}
	if !a.Equal(b) {
		t.Error("records differing only in TTL and case should be Equal")
	}
	c := RR{Name: "example.com.", Class: ClassIN, TTL: 60, Data: NewNS("ns2.example.net.")}
	if a.Equal(c) {
		t.Error("records with different targets reported Equal")
	}
}

func TestTypeBitmapRoundTrip(t *testing.T) {
	types := []Type{TypeA, TypeNS, TypeSOA, TypeTXT, TypeAAAA, TypeDS, TypeRRSIG, TypeNSEC, TypeDNSKEY, TypeCDS, TypeCDNSKEY, Type(1234)}
	buf := packTypeBitmap(nil, types)
	got, err := unpackTypeBitmapInto(nil, buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, types) {
		t.Errorf("bitmap round trip = %v, want %v", got, types)
	}
}

func TestTypeBitmapEmpty(t *testing.T) {
	if buf := packTypeBitmap(nil, nil); len(buf) != 0 {
		t.Errorf("empty bitmap encodes to %x", buf)
	}
	got, err := unpackTypeBitmapInto(nil, nil)
	if err != nil || got != nil {
		t.Errorf("empty decode = %v, %v", got, err)
	}
}

func TestEDNSRoundTrip(t *testing.T) {
	m := NewQuery(7, "example.com.", TypeDNSKEY)
	m.SetEDNS(EDNS{UDPSize: 1232, DO: true, Options: []EDNSOption{{Code: 10 /* COOKIE */, Data: []byte("cookie01")}}})
	got := roundTrip(t, m)
	e, ok := got.GetEDNS()
	if !ok {
		t.Fatal("EDNS lost in round trip")
	}
	if e.UDPSize != 1232 || !e.DO {
		t.Errorf("EDNS = %+v", e)
	}
	if len(e.Options) != 1 || e.Options[0].Code != 10 || string(e.Options[0].Data) != "cookie01" {
		t.Errorf("options = %+v", e.Options)
	}
	if !got.DNSSECOK() {
		t.Error("DNSSECOK false")
	}
}

func TestExtendedRcode(t *testing.T) {
	m := &Message{ID: 9, Response: true, Rcode: RcodeBadVers}
	m.SetEDNS(EDNS{UDPSize: 512})
	got := roundTrip(t, m)
	if got.Rcode != RcodeBadVers {
		t.Errorf("extended rcode = %v, want BADVERS", got.Rcode)
	}
}

func TestPackTruncating(t *testing.T) {
	m := &Message{ID: 3, Response: true, Question: []Question{{Name: "example.com.", Type: TypeTXT, Class: ClassIN}}}
	for i := 0; i < 100; i++ {
		m.Answer = append(m.Answer, RR{Name: "example.com.", Class: ClassIN, TTL: 60,
			Data: &TXT{Strings: []string{"some reasonably long text record payload for truncation"}}})
	}
	m.SetEDNS(EDNS{UDPSize: 512, DO: true})
	out, err := m.AppendPackTruncating(nil, 512)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) > 512 {
		t.Errorf("truncated message is %d bytes", len(out))
	}
	got, err := Unpack(out)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Truncated {
		t.Error("TC bit not set")
	}
	if len(got.Answer) != 0 {
		t.Errorf("%d answers survived truncation", len(got.Answer))
	}
	if _, ok := got.GetEDNS(); !ok {
		t.Error("OPT record dropped from truncated response")
	}
}

func TestUnpackRejectsGarbage(t *testing.T) {
	inputs := [][]byte{
		nil,
		{0, 1},
		{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0}, // qdcount=1 but no question
	}
	for _, in := range inputs {
		if _, err := Unpack(in); err == nil {
			t.Errorf("Unpack(%x) succeeded", in)
		}
	}
}

func TestUnpackRdlenMismatch(t *testing.T) {
	// A record claiming 5 bytes of A rdata.
	m := &Message{ID: 1, Response: true,
		Answer: []RR{{Name: "a.", Class: ClassIN, TTL: 1, Data: &A{Addr: netip.MustParseAddr("192.0.2.1")}}}}
	buf := mustPack(t, m)
	// rdlength field is 2 bytes before the last 4 (the A rdata).
	buf[len(buf)-5] = 5
	buf = append(buf, 0) // supply the extra byte so it's not truncated
	if _, err := Unpack(buf); err == nil {
		t.Error("rdlength mismatch accepted")
	}
}

func TestSortCanonical(t *testing.T) {
	rrs := []RR{
		{Name: "example.com.", Class: ClassIN, TTL: 60, Data: &A{Addr: netip.MustParseAddr("203.0.113.9")}},
		{Name: "example.com.", Class: ClassIN, TTL: 60, Data: &A{Addr: netip.MustParseAddr("192.0.2.1")}},
		{Name: "example.com.", Class: ClassIN, TTL: 60, Data: &A{Addr: netip.MustParseAddr("198.51.100.5")}},
	}
	if err := SortCanonical(rrs); err != nil {
		t.Fatal(err)
	}
	want := []string{"192.0.2.1", "198.51.100.5", "203.0.113.9"}
	for i, rr := range rrs {
		if rr.Data.(*A).Addr.String() != want[i] {
			t.Errorf("position %d = %s, want %s", i, rr.Data.(*A).Addr, want[i])
		}
	}
}

func TestRRsetEqual(t *testing.T) {
	a := []RR{
		{Name: "e.com.", Class: ClassIN, TTL: 60, Data: NewNS("ns1.x.")},
		{Name: "e.com.", Class: ClassIN, TTL: 60, Data: NewNS("ns2.x.")},
	}
	b := []RR{
		{Name: "E.com.", Class: ClassIN, TTL: 999, Data: NewNS("NS2.x.")},
		{Name: "e.com.", Class: ClassIN, TTL: 999, Data: NewNS("ns1.x.")},
	}
	if !RRsetEqual(a, b) {
		t.Error("equal RRsets (order/TTL/case differ) reported unequal")
	}
	c := append([]RR{}, a...)
	c[1] = RR{Name: "e.com.", Class: ClassIN, TTL: 60, Data: NewNS("ns3.x.")}
	if RRsetEqual(a, c) {
		t.Error("different RRsets reported equal")
	}
	if RRsetEqual(a, a[:1]) {
		t.Error("different-size RRsets reported equal")
	}
}

func TestGroupRRsets(t *testing.T) {
	rrs := sampleRRs()
	groups := GroupRRsets(rrs)
	key := RRsetKey{Name: "example.com.", Type: TypeA, Class: ClassIN}
	if got := groups[key]; len(got) != 1 {
		t.Errorf("A group size %d", len(got))
	}
	total := 0
	for _, g := range groups {
		total += len(g)
	}
	if total != len(rrs) {
		t.Errorf("grouped %d records, want %d", total, len(rrs))
	}
}

func TestTypeStringRoundTrip(t *testing.T) {
	for _, typ := range []Type{TypeA, TypeCDS, TypeCDNSKEY, TypeRRSIG, Type(4242)} {
		s := typ.String()
		got, err := TypeFromString(s)
		if err != nil || got != typ {
			t.Errorf("TypeFromString(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := TypeFromString("NOTATYPE"); err == nil {
		t.Error("bogus mnemonic accepted")
	}
}

func TestNewQuery(t *testing.T) {
	q := NewQuery(99, "Example.ORG", TypeCDS)
	if q.Question[0].Name != "example.org." || q.Question[0].Type != TypeCDS {
		t.Errorf("NewQuery = %+v", q.Question[0])
	}
	if q.Response || q.RecursionDesired {
		t.Error("NewQuery should be an iterative-style query")
	}
}

func TestMessageCompressionSavesSpace(t *testing.T) {
	m := &Message{ID: 1, Response: true,
		Question: []Question{{Name: "a.example.com.", Type: TypeNS, Class: ClassIN}}}
	for i := 0; i < 10; i++ {
		m.Answer = append(m.Answer, RR{Name: "a.example.com.", Class: ClassIN, TTL: 60, Data: NewNS("ns.example.com.")})
	}
	buf := mustPack(t, m)
	// With compression each repeated owner costs 2 bytes, so the whole
	// message stays well under the uncompressed size.
	if len(buf) > 350 {
		t.Errorf("compressed message is %d bytes", len(buf))
	}
	if _, err := Unpack(buf); err != nil {
		t.Fatal(err)
	}
}

// TestUnpackSectionsShareOneArray: a fresh message's record sections
// come from one allocation, each capped at its own count, so appending
// to one section can never overwrite the next; an empty section stays
// nil.
func TestUnpackSectionsShareOneArray(t *testing.T) {
	m := &Message{Response: true}
	for i := 0; i < 3; i++ {
		m.Answer = append(m.Answer, RR{Name: "a.example.", Class: ClassIN, TTL: 60,
			Data: &A{Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(i)})}})
	}
	m.Additional = []RR{{Name: "b.example.", Class: ClassIN, TTL: 60, Data: NewNS("ns.example.")}}
	got, err := Unpack(mustPack(t, m))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Answer) != 3 || cap(got.Answer) != 3 || got.Authority != nil || len(got.Additional) != 1 || cap(got.Additional) != 1 {
		t.Fatalf("sections: answer %d/%d, authority %v, additional %d/%d",
			len(got.Answer), cap(got.Answer), got.Authority, len(got.Additional), cap(got.Additional))
	}
	got.Answer = append(got.Answer, got.Answer[0])
	if got.Additional[0].Type() != TypeNS {
		t.Fatalf("appending to the answer section overwrote the additional one: %v", got.Additional[0])
	}
}
