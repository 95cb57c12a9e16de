//go:build !race

// Allocation-regression tests for the codec hot path. Excluded under
// the race detector: race instrumentation adds bookkeeping allocations
// that would make the zero-alloc assertions meaningless.
package dnswire

import (
	"fmt"
	"net/netip"
	"testing"
)

// TestAppendPackAllocFree pins the pooled-builder pack path at zero
// allocations once the output buffer has grown to size, for a signed
// answer and for a referral whose 21 question and owner names (the OPT's
// root aside) all go through the compression table.
func TestAppendPackAllocFree(t *testing.T) {
	for _, m := range []*Message{sampleHotpathMessage(), sampleReferral()} {
		var buf []byte
		var err error
		if buf, err = m.AppendPack(buf[:0]); err != nil { // warm the buffer
			t.Fatal(err)
		}
		avg := testing.AllocsPerRun(200, func() {
			out, err := m.AppendPack(buf[:0])
			if err != nil {
				t.Fatal(err)
			}
			buf = out
		})
		if avg > 0.1 {
			t.Errorf("AppendPack of %q allocates %.2f/op in steady state, want 0", m.Summary(), avg)
		}
	}
}

// sampleReferral is a signed referral to child.example.com. with six
// nameservers, each with A and AAAA glue, and EDNS.
func sampleReferral() *Message {
	const cut = "child.example.com."
	m := NewQuery(2, cut, TypeNS)
	m.Response = true
	for i := 1; i <= 6; i++ {
		host := fmt.Sprintf("ns%d.%s", i, cut)
		m.Authority = append(m.Authority, RR{Name: cut, Class: ClassIN, TTL: 3600, Data: NewNS(host)})
		m.Additional = append(m.Additional,
			RR{Name: host, Class: ClassIN, TTL: 3600, Data: &A{Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(i)})}},
			RR{Name: host, Class: ClassIN, TTL: 3600, Data: &AAAA{Addr: netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 15: byte(i)})}})
	}
	m.Authority = append(m.Authority,
		RR{Name: cut, Class: ClassIN, TTL: 3600, Data: &DS{KeyTag: 4711, Algorithm: 15, DigestType: 2, Digest: make([]byte, 32)}},
		RR{Name: cut, Class: ClassIN, TTL: 3600, Data: &RRSIG{TypeCovered: TypeDS, Algorithm: 15, Labels: 2,
			OrigTTL: 3600, Expiration: 1767225600, Inception: 1764547200, KeyTag: 4711,
			SignerName: "example.com.", Signature: make([]byte, 64)}})
	m.SetEDNS(EDNS{UDPSize: 1232, DO: true})
	return m
}

// TestUnpackFromAllocFree pins the pooled-parser unpack-into path at
// zero allocations once the reused Message's storage matches the shape.
func TestUnpackFromAllocFree(t *testing.T) {
	wire, err := sampleHotpathMessage().Pack()
	if err != nil {
		t.Fatal(err)
	}
	var m Message
	if err := m.UnpackFrom(wire); err != nil { // warm the storage
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := m.UnpackFrom(wire); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0.1 {
		t.Errorf("UnpackFrom allocates %.2f/op in steady state, want 0", avg)
	}
}

// TestCanonicalNameLessAllocFree pins the NSEC-search and zone-sort
// comparison at zero allocations for ASCII names.
func TestCanonicalNameLessAllocFree(t *testing.T) {
	pairs := [][2]string{
		{"a.example.", "Z.a.Example"},
		{"example.com.", "example.com."},
		{"_dsboot.example.co.uk._signal.ns1.example.net.", "ns1.example.net."},
		{"a..b", "."},
		{"", "-."},
	}
	avg := testing.AllocsPerRun(200, func() {
		for _, p := range pairs {
			CanonicalNameLess(p[0], p[1])
			CanonicalNameLess(p[1], p[0])
		}
	})
	if avg > 0 {
		t.Errorf("CanonicalNameLess allocates %.2f per %d comparisons, want 0", avg, 2*len(pairs))
	}
}

// TestAppendRDataWireAllocFree pins the RDATA encode used by RRset
// canonical ordering and signing at zero steady-state allocations.
func TestAppendRDataWireAllocFree(t *testing.T) {
	d := &DS{KeyTag: 4711, Algorithm: 13, DigestType: 2, Digest: make([]byte, 32)}
	var buf []byte
	var err error
	if buf, err = AppendRDataWire(buf[:0], d); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		out, err := AppendRDataWire(buf[:0], d)
		if err != nil {
			t.Fatal(err)
		}
		buf = out
	})
	if avg > 0.1 {
		t.Errorf("AppendRDataWire allocates %.2f/op in steady state, want 0", avg)
	}
}

// TestInternPastCap: a parser whose intern table has seen more than
// internCap distinct names must go on interning. Each measured message
// carries one new owner name sixteen times (compressed after the
// first), so it may allocate that name once; a table that stopped
// taking names at the cap allocated it sixteen times.
func TestInternPastCap(t *testing.T) {
	p := &parser{}
	var m Message
	unpack := func(wire []byte) {
		p.msg, p.off = wire, 0
		if err := m.unpack(p); err != nil {
			t.Fatal(err)
		}
	}
	const perMessage = 64
	for i := 0; i*perMessage <= internCap; i++ {
		fill := &Message{Response: true}
		for j := 0; j < perMessage; j++ {
			fill.Answer = append(fill.Answer, RR{Name: fmt.Sprintf("n%d-%d.example.", i, j),
				Class: ClassIN, TTL: 60, Data: &A{Addr: netip.AddrFrom4([4]byte{192, 0, 2, 1})}})
		}
		unpack(mustPack(t, fill))
	}
	const runs, repeats = 50, 16
	var wires [runs + 1][]byte
	for i := range wires {
		rep := &Message{Response: true}
		for j := 0; j < repeats; j++ {
			rep.Answer = append(rep.Answer, RR{Name: fmt.Sprintf("repeat%d.example.", i),
				Class: ClassIN, TTL: 60, Data: &A{Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(j)})}})
		}
		wires[i] = mustPack(t, rep)
	}
	next := 0
	avg := testing.AllocsPerRun(runs, func() {
		unpack(wires[next])
		next++
	})
	if avg > 1 {
		t.Errorf("a name repeated %d times in one message costs %.2f allocations past the intern cap, want at most 1", repeats, avg)
	}
}

// TestRREqualAllocFree pins RR.Equal — run for every RRSIG a server
// answer adds and every duplicate check of zone.Add — at zero
// steady-state allocations, equal or not.
func TestRREqualAllocFree(t *testing.T) {
	sig := sampleHotpathMessage().Answer[1]
	other := sig
	otherSig := *sig.Data.(*RRSIG)
	otherSig.Signature = append([]byte{1}, otherSig.Signature[1:]...)
	other.Data = &otherSig
	if !sig.Equal(sig) || sig.Equal(other) {
		t.Fatal("Equal does not tell the two signatures apart")
	}
	avg := testing.AllocsPerRun(200, func() {
		sig.Equal(sig)
		sig.Equal(other)
	})
	if avg > 0.1 {
		t.Errorf("RR.Equal allocates %.2f per two comparisons, want 0", avg)
	}
}

// TestUnpackImpossibleCountsAllocFree: header counts that the input
// cannot hold (three sections of 65535 records in a 12-octet message)
// must not be trusted with a presized section array: Unpack allocates
// the bare message and nothing else.
func TestUnpackImpossibleCountsAllocFree(t *testing.T) {
	hostile := []byte{0, 1, 0x80, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := Unpack(hostile); err == nil {
			t.Fatal("a header claiming 196605 records in 12 octets parsed")
		}
	})
	if avg > 1 {
		t.Errorf("unpacking impossible header counts allocates %.0f times, want 1 (the message)", avg)
	}
}
