package dnswire

import (
	"encoding/base64"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
)

// Presentation-format coverage: every RDATA type's String output must
// contain its distinguishing fields, and RR.String must produce the
// five-column master-file layout.
func TestPresentationFormats(t *testing.T) {
	for _, rr := range sampleRRs() {
		line := rr.String()
		parts := strings.SplitN(line, "\t", 5)
		if len(parts) != 5 {
			t.Errorf("RR.String %q lacks 5 columns", line)
			continue
		}
		if parts[0] != CanonicalName(rr.Name) {
			t.Errorf("owner column = %q", parts[0])
		}
		if parts[2] != "IN" {
			t.Errorf("class column = %q", parts[2])
		}
		if parts[3] != rr.Type().String() {
			t.Errorf("type column = %q, want %s", parts[3], rr.Type())
		}
		if parts[4] == "" {
			t.Errorf("empty rdata column for %s", rr.Type())
		}
	}
}

func TestSpecificPresentations(t *testing.T) {
	cases := []struct {
		data RData
		want string
	}{
		{&DS{KeyTag: 4711, Algorithm: 13, DigestType: 2, Digest: []byte{0xAB, 0xCD}}, "4711 13 2 ABCD"},
		{&MX{Preference: 10, Host: "Mail.Example.COM"}, "10 mail.example.com."},
		{&TXT{Strings: []string{"a b", "c"}}, `"a b" "c"`},
		{&SRV{Priority: 1, Weight: 2, Port: 53, Target: "ns.x."}, "1 2 53 ns.x."},
		{&CSYNC{SOASerial: 42, Flags: 3, Types: []Type{TypeNS, TypeA}}, "42 3 NS A"},
		{&Generic{T: Type(9999), Octets: []byte{1, 2}}, `\# 2 0102`},
		{&NSEC3PARAM{HashAlg: 1, Iterations: 5, Salt: nil}, "1 0 5 -"},
		{&NSEC3PARAM{HashAlg: 1, Iterations: 5, Salt: []byte{0xAA}}, "1 0 5 AA"},
	}
	for _, c := range cases {
		if got := c.data.String(); got != c.want {
			t.Errorf("%T.String() = %q, want %q", c.data, got, c.want)
		}
	}
}

// TestAppendTextMatchesSprintf holds the appended presentation forms of
// the DNSSEC types to the fmt layout they replaced, edge values
// included: the JSONL export writes them, and a dump's bytes must not
// move.
func TestAppendTextMatchesSprintf(t *testing.T) {
	var cases []RR
	for _, ds := range []DS{
		{KeyTag: 4711, Algorithm: 13, DigestType: 2, Digest: []byte{0x0A, 0xBC, 0xFF, 0x00}},
		{KeyTag: 65535, Algorithm: 255, DigestType: 255},
		{},
	} {
		want := fmt.Sprintf("%d %d %d %s", ds.KeyTag, ds.Algorithm, ds.DigestType,
			strings.ToUpper(hex.EncodeToString(ds.Digest)))
		cases = append(cases, RR{Name: "Example.COM", TTL: 3600, Class: ClassIN, Data: &ds},
			RR{Name: "example.com.", TTL: 0, Class: ClassIN, Data: &CDS{DS: ds}})
		if got := ds.String(); got != want {
			t.Errorf("DS.String() = %q, want %q", got, want)
		}
	}
	for _, k := range []DNSKEY{
		{Flags: 257, Protocol: 3, Algorithm: 13, PublicKey: []byte{0xFB, 0xFF, 0x01}},
		{Flags: 65535, Protocol: 255, Algorithm: 0},
	} {
		want := fmt.Sprintf("%d %d %d %s", k.Flags, k.Protocol, k.Algorithm,
			base64.StdEncoding.EncodeToString(k.PublicKey))
		cases = append(cases, RR{Name: "a.", TTL: 4294967295, Class: ClassIN, Data: &k},
			RR{Name: "a.", TTL: 1, Class: ClassIN, Data: &CDNSKEY{DNSKEY: k}})
		if got := k.String(); got != want {
			t.Errorf("DNSKEY.String() = %q, want %q", got, want)
		}
	}
	for _, r := range []RRSIG{
		{TypeCovered: TypeCDS, Algorithm: 13, Labels: 2, OrigTTL: 3600, Expiration: 4294967295,
			Inception: 1764547200, KeyTag: 4711, SignerName: "Example.COM", Signature: []byte{1, 2, 3, 4, 5}},
		{TypeCovered: Type(65280), SignerName: ""},
	} {
		want := fmt.Sprintf("%s %d %d %d %d %d %d %s %s",
			r.TypeCovered, r.Algorithm, r.Labels, r.OrigTTL,
			r.Expiration, r.Inception, r.KeyTag, CanonicalName(r.SignerName),
			base64.StdEncoding.EncodeToString(r.Signature))
		cases = append(cases, RR{Name: "", TTL: 300, Class: Class(3), Data: &r})
		if got := r.String(); got != want {
			t.Errorf("RRSIG.String() = %q, want %q", got, want)
		}
	}
	cases = append(cases, RR{Name: "x.", TTL: 1, Class: ClassIN, Data: &TXT{Strings: []string{"a\"b"}}})
	for _, rr := range cases {
		want := fmt.Sprintf("%s\t%d\t%s\t%s\t%s",
			CanonicalName(rr.Name), rr.TTL, rr.Class, rr.Type(), rr.Data.String())
		if got := rr.String(); got != want {
			t.Errorf("RR.String() = %q, want %q", got, want)
		}
		if got := string(rr.AppendText([]byte("prefix "))); got != "prefix "+want {
			t.Errorf("RR.AppendText = %q, want the prefix and %q", got, want)
		}
	}
}

func TestMessageSummary(t *testing.T) {
	q := NewQuery(1, "example.com.", TypeCDS)
	if s := q.Summary(); !strings.Contains(s, "query") || !strings.Contains(s, "example.com. IN CDS") {
		t.Errorf("query summary = %q", s)
	}
	r := &Message{Response: true, Rcode: RcodeNXDomain, Question: q.Question}
	if s := r.Summary(); !strings.Contains(s, "NXDOMAIN") {
		t.Errorf("response summary = %q", s)
	}
}

func TestMnemonics(t *testing.T) {
	if ClassCH.String() != "CH" || Class(999).String() != "CLASS999" {
		t.Error("class mnemonics")
	}
	if OpcodeNotify.String() != "NOTIFY" || Opcode(7).String() != "OPCODE7" {
		t.Error("opcode mnemonics")
	}
	if Rcode(12).String() != "RCODE12" {
		t.Error("rcode fallback")
	}
	for alg, want := range map[uint8]string{
		AlgDELETE: "DELETE", AlgRSASHA256: "RSASHA256", AlgEd25519: "ED25519", 99: "99",
	} {
		if got := AlgorithmName(alg); got != want {
			t.Errorf("AlgorithmName(%d) = %s", alg, got)
		}
	}
}

func TestBase32HexNoPad(t *testing.T) {
	cases := []struct {
		in   []byte
		want string
	}{
		{nil, ""},
		{[]byte{0}, "00"},
		{[]byte{0xFF}, "VS"},
		{[]byte{0xDE, 0xAD, 0xBE, 0xEF}, "RQMRTRO"},
	}
	for _, c := range cases {
		if got := base32hexNoPad(c.in); got != c.want {
			t.Errorf("base32hexNoPad(%x) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestDeleteSentinelFlags(t *testing.T) {
	cds := &CDS{DS{Algorithm: AlgDELETE, Digest: []byte{0}}}
	if !cds.IsDelete() {
		t.Error("CDS delete sentinel not recognised")
	}
	key := &DNSKEY{Flags: DNSKEYFlagZone | DNSKEYFlagSEP, Protocol: 3, Algorithm: AlgEd25519}
	if !key.IsZoneKey() || key.IsDelete() {
		t.Errorf("DNSKEY flags: zone=%v delete=%v", key.IsZoneKey(), key.IsDelete())
	}
}

func TestNewRRTypesRoundTrip(t *testing.T) {
	rrs := []RR{
		{Name: "alias.example.", Class: ClassIN, TTL: 300, Data: &DNAME{singleName{"target.example.net."}}},
		{Name: "example.com.", Class: ClassIN, TTL: 300, Data: &CAA{Flags: 128, Tag: "issue", Value: "letsencrypt.org"}},
		{Name: "_443._tcp.example.com.", Class: ClassIN, TTL: 300, Data: &TLSA{Usage: 3, Selector: 1, MatchingType: 1, CertData: make([]byte, 32)}},
	}
	m := &Message{ID: 5, Response: true, Answer: rrs}
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rrs {
		if !got.Answer[i].Equal(rrs[i]) {
			t.Errorf("rr %d changed: %s vs %s", i, got.Answer[i], rrs[i])
		}
	}
	dn := got.Answer[0].Data.(*DNAME)
	if dn.Target != "target.example.net." {
		t.Errorf("DNAME target = %s", dn.Target)
	}
	caa := got.Answer[1].Data.(*CAA)
	if caa.Flags != 128 || caa.Tag != "issue" || caa.Value != "letsencrypt.org" {
		t.Errorf("CAA = %+v", caa)
	}
	tlsa := got.Answer[2].Data.(*TLSA)
	if tlsa.Usage != 3 || len(tlsa.CertData) != 32 {
		t.Errorf("TLSA = %+v", tlsa)
	}
	// Presentation forms.
	if s := caa.String(); s != `128 issue "letsencrypt.org"` {
		t.Errorf("CAA string = %q", s)
	}
	if s := dn.String(); s != "target.example.net." {
		t.Errorf("DNAME string = %q", s)
	}
	// Mnemonic round trip.
	for _, typ := range []Type{TypeDNAME, TypeCAA, TypeTLSA} {
		got, err := TypeFromString(typ.String())
		if err != nil || got != typ {
			t.Errorf("mnemonic %s: %v %v", typ, got, err)
		}
	}
}

func TestCAARejectsBadTag(t *testing.T) {
	m := &Message{ID: 1, Response: true, Answer: []RR{
		{Name: "x.", Class: ClassIN, TTL: 1, Data: &CAA{Tag: ""}},
	}}
	if _, err := m.Pack(); err == nil {
		t.Error("empty CAA tag packed")
	}
}
