package dnswire

import (
	"bytes"
	"fmt"
	"net/netip"
	"slices"
	"strings"
	"testing"
)

// FuzzUnpack throws arbitrary bytes at the wire-format parser. Unpack
// must never panic; when it accepts a message, every name it decoded
// must have the labels it was read from, and re-packing the parsed
// form must also succeed without panicking (the scanner packs cached
// responses back out when exporting). The reuse path must agree with a
// fresh decode: the input decoded with UnpackFrom into a message that
// held another decoded message — whose question, OPT payload, sections
// and RDATA it may reuse — must hold the same records and repack to the
// same bytes.
func FuzzUnpack(f *testing.F) {
	// Seed with real messages covering the codec's interesting shapes:
	// plain query, EDNS, answers with compression pointers, referral
	// with glue, truncation-sized payloads.
	q := NewQuery(1, "www.example.com.", TypeA)
	if wire, err := q.Pack(); err == nil {
		f.Add(wire)
	}
	e := NewQuery(2, "example.com.", TypeDNSKEY)
	e.SetEDNS(EDNS{UDPSize: 1232, DO: true})
	if wire, err := e.Pack(); err == nil {
		f.Add(wire)
	}
	resp := &Message{ID: 3, Response: true, Authoritative: true,
		Question: []Question{{Name: "example.com.", Type: TypeNS, Class: ClassIN}}}
	resp.Answer = []RR{
		{Name: "example.com.", Class: ClassIN, TTL: 3600, Data: NewNS("ns1.example.com.")},
		{Name: "example.com.", Class: ClassIN, TTL: 3600, Data: NewNS("ns2.example.com.")},
	}
	resp.Additional = []RR{
		{Name: "ns1.example.com.", Class: ClassIN, TTL: 3600, Data: &A{Addr: netip.MustParseAddr("192.0.2.1")}},
		{Name: "ns2.example.com.", Class: ClassIN, TTL: 3600, Data: &AAAA{Addr: netip.MustParseAddr("2001:db8::1")}},
	}
	if wire, err := resp.Pack(); err == nil {
		f.Add(wire)
	}
	// Shapes of the message's inline storage: two OPT records, an OPT
	// outside the additional section, no question, two questions.
	opt := func(size uint16) RR { return RR{Name: ".", Class: Class(size), Data: &OPT{}} }
	a := RR{Name: "a.example.", Class: ClassIN, TTL: 60, Data: &A{Addr: netip.MustParseAddr("192.0.2.7")}}
	for _, m := range []*Message{
		{ID: 4, Response: true, Question: []Question{{Name: "a.example.", Type: TypeA, Class: ClassIN}},
			Answer: []RR{a}, Additional: []RR{opt(1232), a, {Name: ".", Class: 512, TTL: 1 << 15,
				Data: &OPT{Options: []EDNSOption{{Code: 10, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}}}}}}},
		{ID: 5, Response: true, Question: []Question{{Name: "a.example.", Type: TypeA, Class: ClassIN}},
			Answer: []RR{opt(4096), a}, Authority: []RR{opt(512)}},
		{ID: 6, Response: true, Answer: []RR{a}, Additional: []RR{opt(1232)}},
		{ID: 7, Question: []Question{{Name: "a.example.", Type: TypeA, Class: ClassIN},
			{Name: "b.example.", Type: TypeAAAA, Class: ClassIN}}, Additional: []RR{opt(1232)}},
	} {
		if wire, err := m.Pack(); err == nil {
			f.Add(wire)
		}
	}
	// Degenerate inputs.
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})

	// The messages the reuse path decodes over: a referral whose OPT,
	// in its inline storage, sits in the third additional slot, a query
	// whose OPT sits in the first, and one with two questions and two
	// OPTs.
	resp.SetEDNS(EDNS{UDPSize: 1232, DO: true})
	var priors [][]byte
	for _, m := range []*Message{resp, e} {
		wire, err := m.Pack()
		if err != nil {
			f.Fatal(err)
		}
		priors = append(priors, wire)
	}
	twoOPT := &Message{ID: 8, Question: []Question{{Name: "x.", Type: TypeNS, Class: ClassIN}, {Name: "y.", Type: TypeMX, Class: ClassIN}},
		Additional: []RR{opt(512), {Name: ".", Class: 1232, Data: &OPT{Options: []EDNSOption{{Code: 3, Data: []byte("nsid")}}}}}}
	wire, err := twoOPT.Pack()
	if err != nil {
		f.Fatal(err)
	}
	priors = append(priors, wire)

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unpack(data)
		if err != nil {
			return
		}
		if m == nil {
			t.Fatal("Unpack returned nil message with nil error")
		}
		checkNamesMatchWire(t, data, m)
		want := describe(m)
		// Accepted messages must survive the round trip. Packing may
		// legitimately reject (e.g. oversized names reassembled from
		// pointer chains) but must not panic.
		wantWire, wantErr := m.Pack()
		for _, prior := range priors {
			var reused Message
			if err := reused.UnpackFrom(prior); err != nil {
				t.Fatal(err)
			}
			if err := reused.UnpackFrom(data); err != nil {
				t.Fatalf("UnpackFrom over a decoded message rejects what Unpack accepts: %v", err)
			}
			if got := describe(&reused); got != want {
				t.Fatalf("reused decode differs from a fresh one:\n got %s\nwant %s", got, want)
			}
			gotWire, gotErr := reused.Pack()
			if (gotErr != nil) != (wantErr != nil) || !bytes.Equal(gotWire, wantWire) {
				t.Fatalf("reused decode repacks to %x (%v), fresh one to %x (%v)", gotWire, gotErr, wantWire, wantErr)
			}
		}
	})
}

// describe renders every field of a decoded message, its records in
// presentation form with their EDNS options, for comparing decodes.
func describe(m *Message) string {
	var b strings.Builder
	fmt.Fprintf(&b, "id=%d qr=%v op=%d aa=%v tc=%v rd=%v ra=%v ad=%v cd=%v rcode=%d trailing=%d q=%v",
		m.ID, m.Response, m.Opcode, m.Authoritative, m.Truncated, m.RecursionDesired,
		m.RecursionAvailable, m.AuthenticData, m.CheckingDisabled, m.Rcode, m.TrailingBytes, m.Question)
	for i, sec := range [][]RR{m.Answer, m.Authority, m.Additional} {
		fmt.Fprintf(&b, " | section %d:", i)
		for _, rr := range sec {
			b.WriteString(" " + rr.String())
			if o, ok := rr.Data.(*OPT); ok {
				fmt.Fprintf(&b, " %v", o.Options)
			}
		}
	}
	return b.String()
}

// checkNamesMatchWire walks msg, which Unpack accepted as m, and checks
// that every name m holds — question, owners and the names inside
// RDATA — splits into the labels it was read from, lowercased: a name
// repacks to the label sequence on the wire.
func checkNamesMatchWire(t *testing.T, msg []byte, m *Message) {
	t.Helper()
	off := 12
	check := func(name string, at int) int {
		labels, next := wireLabels(msg, at)
		if got := SplitLabels(name); !slices.Equal(got, labels) {
			t.Fatalf("name at octet %d decoded as %q, labels %q; the wire holds labels %q", at, name, got, labels)
		}
		return next
	}
	for _, q := range m.Question {
		off = check(q.Name, off) + 4
	}
	for _, sec := range [][]RR{m.Answer, m.Authority, m.Additional} {
		for _, rr := range sec {
			off = check(rr.Name, off) + 8
			rdata := off + 2
			off = rdata + (int(msg[off])<<8 | int(msg[off+1]))
			switch d := rr.Data.(type) {
			case *NS:
				check(d.Target, rdata)
			case *CNAME:
				check(d.Target, rdata)
			case *PTR:
				check(d.Target, rdata)
			case *DNAME:
				check(d.Target, rdata)
			case *SOA:
				check(d.RName, check(d.MName, rdata))
			case *MX:
				check(d.Host, rdata+2)
			case *SRV:
				check(d.Target, rdata+6)
			case *RRSIG:
				check(d.SignerName, rdata+18)
			case *NSEC:
				check(d.NextDomain, rdata)
			}
		}
	}
}

// wireLabels reads the name at off in a message Unpack accepted,
// following compression pointers, and returns its labels with ASCII
// letters lowercased and the offset after the name.
func wireLabels(msg []byte, off int) ([]string, int) {
	var labels []string
	end := -1
	for {
		c := int(msg[off])
		switch {
		case c == 0:
			if end < 0 {
				end = off + 1
			}
			return labels, end
		case c&0xC0 == 0xC0:
			if end < 0 {
				end = off + 2
			}
			off = (c&0x3F)<<8 | int(msg[off+1])
		default:
			label := []byte(string(msg[off+1 : off+1+c]))
			for i, ch := range label {
				if 'A' <= ch && ch <= 'Z' {
					label[i] = ch + 'a' - 'A'
				}
			}
			labels = append(labels, string(label))
			off += 1 + c
		}
	}
}
