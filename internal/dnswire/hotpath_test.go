package dnswire

import (
	"bytes"
	"testing"
)

// TestUnpackRecordsTrailingBytes pins the trailing-garbage fix: Unpack
// used to silently accept octets after the last record, normalising
// malformed responders into clean ones. The count must now surface in
// Message.TrailingBytes (recording, not rejection — the fuzz corpus
// and real-world lenient parsing both depend on the parse succeeding).
func TestUnpackRecordsTrailingBytes(t *testing.T) {
	m := NewQuery(1, "example.com.", TypeCDS)
	m.Response = true
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	if clean.TrailingBytes != 0 {
		t.Errorf("clean message has TrailingBytes = %d", clean.TrailingBytes)
	}
	dirty, err := Unpack(append(append([]byte{}, wire...), 0xDE, 0xAD, 0xBE))
	if err != nil {
		t.Fatal(err)
	}
	if dirty.TrailingBytes != 3 {
		t.Errorf("TrailingBytes = %d, want 3", dirty.TrailingBytes)
	}
	// A reused Message must not carry a stale count forward.
	if err := dirty.UnpackFrom(wire); err != nil {
		t.Fatal(err)
	}
	if dirty.TrailingBytes != 0 {
		t.Errorf("stale TrailingBytes = %d after clean reparse", dirty.TrailingBytes)
	}
}

// TestPackTruncatingFloor pins the documented floor: when even the
// header+question skeleton exceeds the limit, AppendPackTruncating returns it
// as-is with TC set (it cannot shrink further), and the OPT record is
// dropped when question+OPT alone are over the limit but the bare
// question fits.
func TestPackTruncatingFloor(t *testing.T) {
	long := "a-rather-long-first-label-for-the-floor-test.example.com."
	m := &Message{ID: 5, Response: true,
		Question: []Question{{Name: long, Type: TypeTXT, Class: ClassIN}}}
	m.Answer = append(m.Answer, RR{Name: long, Class: ClassIN, TTL: 60,
		Data: &TXT{Strings: []string{"payload payload payload payload payload"}}})
	m.SetEDNS(EDNS{UDPSize: 1232, DO: true})

	skeleton := 12 + len(long) + 1 + 4 // header + name + root byte + type/class
	optLen := 11                       // ". OPT" pseudo-record: 1+2+2+4+2

	// Limit admits question+OPT but not the answer: records drop, OPT stays.
	out, err := m.AppendPackTruncating(nil, skeleton+optLen)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(out)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Truncated || len(got.Answer) != 0 {
		t.Errorf("TC=%v answers=%d, want TC with empty answer", got.Truncated, len(got.Answer))
	}
	if _, ok := got.GetEDNS(); !ok {
		t.Error("OPT dropped although it fit within the limit")
	}

	// Limit admits the question but not question+OPT: the OPT goes too.
	out, err = m.AppendPackTruncating(nil, skeleton+optLen-1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) > skeleton+optLen-1 {
		t.Errorf("packed %d bytes, exceeds limit %d although dropping OPT would fit", len(out), skeleton+optLen-1)
	}
	got, err = Unpack(out)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Truncated {
		t.Error("TC bit not set after dropping OPT")
	}
	if _, ok := got.GetEDNS(); ok {
		t.Error("OPT survived a limit it cannot fit")
	}

	// Limit below the skeleton: the floor is returned as-is (documented
	// to exceed limit by the question's encoding), never an error.
	out, err = m.AppendPackTruncating(nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != skeleton {
		t.Errorf("floor pack = %d bytes, want the %d-byte header+question skeleton", len(out), skeleton)
	}
	got, err = Unpack(out)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Truncated || len(got.Question) != 1 {
		t.Errorf("floor message TC=%v questions=%d", got.Truncated, len(got.Question))
	}
}

// TestUnpackFromReuseMatchesFresh drives the unpack-into reuse path
// across messages of different shapes and checks each reparse is
// byte-equivalent (via repack) to a fresh Unpack — storage reuse must
// never leak a previous message's contents into the next.
func TestUnpackFromReuseMatchesFresh(t *testing.T) {
	big := sampleHotpathMessage()
	small := NewQuery(9, "x.org.", TypeA)
	small.Response = true
	txt := &Message{ID: 11, Response: true,
		Question: []Question{{Name: "t.example.", Type: TypeTXT, Class: ClassIN}},
		Answer: []RR{{Name: "t.example.", Class: ClassIN, TTL: 5,
			Data: &TXT{Strings: []string{"one", "two"}}}}}

	var reused Message
	for _, m := range []*Message{big, small, txt, big, small} {
		wire, err := m.Pack()
		if err != nil {
			t.Fatal(err)
		}
		if err := reused.UnpackFrom(wire); err != nil {
			t.Fatal(err)
		}
		fresh, err := Unpack(wire)
		if err != nil {
			t.Fatal(err)
		}
		rw, err := reused.Pack()
		if err != nil {
			t.Fatal(err)
		}
		fw, err := fresh.Pack()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rw, fw) {
			t.Errorf("reused reparse of %q diverged from fresh unpack", m.Summary())
		}
	}
}

// sampleHotpathMessage is a CDS answer with signature and EDNS, the
// shape the scanner sees on every signal query.
func sampleHotpathMessage() *Message {
	m := NewQuery(1, "example.com.", TypeCDS)
	m.Response = true
	m.Authoritative = true
	m.Answer = []RR{
		{Name: "example.com.", Class: ClassIN, TTL: 3600,
			Data: &CDS{DS: DS{KeyTag: 4711, Algorithm: 13, DigestType: 2, Digest: make([]byte, 32)}}},
		{Name: "example.com.", Class: ClassIN, TTL: 3600,
			Data: &RRSIG{TypeCovered: TypeCDS, Algorithm: 13, Labels: 2,
				OrigTTL: 3600, Expiration: 1767225600, Inception: 1764547200, KeyTag: 4711,
				SignerName: "example.com.", Signature: make([]byte, 64)}},
	}
	m.SetEDNS(EDNS{UDPSize: 1232, DO: true})
	return m
}
