package server

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"strings"
	"testing"
	"time"

	"dnssecboot/internal/dnswire"
	"dnssecboot/internal/transport"
)

func TestUDPListenerEndToEnd(t *testing.T) {
	s := New(1)
	s.AddZone(buildZone(t, true))
	l, err := Listen("127.0.0.1:0", s)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	c := &transport.Client{Timeout: 2 * time.Second, Retries: 1}
	q := dnswire.NewQuery(0, "www.example.com.", dnswire.TypeA)
	q.SetEDNS(dnswire.EDNS{UDPSize: dnswire.MaxUDPPayload, DO: true})
	resp, err := c.Exchange(context.Background(), l.Addr(), q)
	if err != nil {
		t.Fatalf("Exchange: %v", err)
	}
	if resp.Rcode != dnswire.RcodeNoError || len(resp.Answer) == 0 {
		t.Fatalf("resp: %s, %d answers", resp.Rcode, len(resp.Answer))
	}
	hasSig := false
	for _, rr := range resp.Answer {
		if rr.Type() == dnswire.TypeRRSIG {
			hasSig = true
		}
	}
	if !hasSig {
		t.Error("no RRSIG over UDP with DO")
	}
}

func TestTCPFallbackOnTruncation(t *testing.T) {
	s := New(1)
	z := buildZone(t, false)
	// Enough TXT data at one name to overflow a 512-byte UDP response.
	for i := 0; i < 20; i++ {
		z.MustAdd(dnswire.RR{Name: "big.example.com.", TTL: 60,
			Data: &dnswire.TXT{Strings: []string{string(rune('a'+i)) + " padding padding padding padding padding padding"}}})
	}
	s.AddZone(z)
	l, err := Listen("127.0.0.1:0", s)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	c := &transport.Client{Timeout: 2 * time.Second}
	q := dnswire.NewQuery(0, "big.example.com.", dnswire.TypeTXT) // no EDNS → 512 limit
	resp, err := c.Exchange(context.Background(), l.Addr(), q)
	if err != nil {
		t.Fatalf("Exchange: %v", err)
	}
	if resp.Truncated {
		t.Error("final response still truncated after TCP fallback")
	}
	if len(resp.Answer) != 20 {
		t.Errorf("answers over TCP = %d, want 20", len(resp.Answer))
	}
}

func TestAXFREndToEnd(t *testing.T) {
	s := New(1)
	z := buildZone(t, true)
	s.AddZone(z)
	l, err := Listen("127.0.0.1:0", s)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	got, err := AXFR(ctx, l.Addr(), "example.com.")
	if err != nil {
		t.Fatalf("AXFR: %v", err)
	}
	if got.Size() != z.Size() {
		t.Errorf("transferred %d records, want %d", got.Size(), z.Size())
	}
	if got.SOA() == nil {
		t.Error("transferred zone lacks SOA")
	}
	if !got.IsSigned() {
		t.Error("transferred zone lost its DNSKEYs")
	}
}

// The AXFR client must verify that every streamed message echoes the
// query ID (RFC 5936 §2.2); pre-fix it ingested any stream the server
// sent.
func TestAXFRRejectsMismatchedID(t *testing.T) {
	tl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	go func() {
		conn, err := tl.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		wire, err := transport.ReadTCPMessage(conn)
		if err != nil {
			return
		}
		q, err := dnswire.Unpack(wire)
		if err != nil {
			return
		}
		soa := dnswire.RR{Name: "example.com.", Class: dnswire.ClassIN, TTL: 3600,
			Data: &dnswire.SOA{MName: "ns1.example.com.", RName: "host.example.com.",
				Serial: 1, Refresh: 7200, Retry: 3600, Expire: 1209600, Minimum: 300}}
		m := &dnswire.Message{
			ID: q.ID + 1, Response: true, Authoritative: true, // wrong ID
			Question: q.Question, Answer: []dnswire.RR{soa, soa},
		}
		out, err := m.Pack()
		if err != nil {
			return
		}
		_ = transport.WriteTCPMessage(conn, out)
	}()
	ap, err := netip.ParseAddrPort(tl.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_, err = AXFR(ctx, ap, "example.com.")
	if err == nil {
		t.Fatal("AXFR accepted a stream with a mismatched message ID")
	}
	if !strings.Contains(err.Error(), "ID") {
		t.Errorf("error %q does not mention the ID mismatch", err)
	}
}

// RFC 5936 §2.2.1: in a multi-message transfer the question section
// appears in the first message only. Pre-fix every chunk repeated it.
func TestAXFRQuestionInFirstMessageOnly(t *testing.T) {
	s := New(1)
	z := buildZone(t, false)
	// Enough records to force several 200-record AXFR chunks.
	for i := 0; i < 450; i++ {
		z.MustAdd(dnswire.RR{Name: fmt.Sprintf("h%03d.example.com.", i), TTL: 60,
			Data: &dnswire.A{Addr: netip.MustParseAddr("192.0.2.77")}})
	}
	s.AddZone(z)
	l, err := Listen("127.0.0.1:0", s)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	q := dnswire.NewQuery(77, "example.com.", dnswire.TypeAXFR)
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	if err := transport.WriteTCPMessage(conn, wire); err != nil {
		t.Fatal(err)
	}
	var msgs []*dnswire.Message
	soaSeen := 0
	for soaSeen < 2 {
		respWire, err := transport.ReadTCPMessage(conn)
		if err != nil {
			t.Fatalf("read message %d: %v", len(msgs), err)
		}
		m, err := dnswire.Unpack(respWire)
		if err != nil {
			t.Fatal(err)
		}
		for _, rr := range m.Answer {
			if rr.Type() == dnswire.TypeSOA {
				soaSeen++
			}
		}
		msgs = append(msgs, m)
	}
	if len(msgs) < 3 {
		t.Fatalf("transfer used %d messages, want >= 3 for the chunking assertion", len(msgs))
	}
	if len(msgs[0].Question) != 1 {
		t.Errorf("first message has %d questions, want 1", len(msgs[0].Question))
	}
	for i, m := range msgs[1:] {
		if len(m.Question) != 0 {
			t.Errorf("message %d repeats the question section", i+1)
		}
		if m.ID != 77 {
			t.Errorf("message %d ID = %d, want 77", i+1, m.ID)
		}
	}
	// The client still reassembles such a stream correctly.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	got, err := AXFR(ctx, l.Addr(), "example.com.")
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != z.Size() {
		t.Errorf("transferred %d records, want %d", got.Size(), z.Size())
	}
}

func TestAXFRUnknownZone(t *testing.T) {
	s := New(1)
	s.AddZone(buildZone(t, false))
	l, err := Listen("127.0.0.1:0", s)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := AXFR(ctx, l.Addr(), "nothosted.org."); err == nil {
		t.Error("AXFR of unknown zone succeeded")
	}
}

// TestUDPEDNSPayloadFloor: the listener treats an advertised UDP
// payload size below 512 as 512 (RFC 6891 §6.2.5). With size 0 a
// 40-record answer must come back truncated within 512 octets, not
// whole — an amplification hole otherwise — and with size 100 a
// 5-record answer that fits in 512 octets must come back whole.
func TestUDPEDNSPayloadFloor(t *testing.T) {
	z := buildZone(t, false)
	for name, records := range map[string]int{"small.example.com.": 5, "big.example.com.": 40} {
		for i := 0; i < records; i++ {
			z.MustAdd(dnswire.RR{Name: name, TTL: 60,
				Data: &dnswire.TXT{Strings: []string{fmt.Sprintf("%02d padding padding padding", i)}}})
		}
	}
	s := New(1)
	s.AddZone(z)
	l, err := Listen("127.0.0.1:0", s)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	conn, err := net.Dial("udp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	buf := make([]byte, 65535)
	for _, size := range []uint16{0, 100} {
		for _, tc := range []struct {
			name      string
			truncated bool
		}{{"big.example.com.", true}, {"small.example.com.", false}} {
			q := dnswire.NewQuery(uint16(size)+1, tc.name, dnswire.TypeTXT)
			q.SetEDNS(dnswire.EDNS{UDPSize: size})
			wire, err := q.Pack()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Write(wire); err != nil {
				t.Fatal(err)
			}
			_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			n, err := conn.Read(buf)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := dnswire.Unpack(buf[:n])
			if err != nil {
				t.Fatal(err)
			}
			if resp.Truncated != tc.truncated || n > 512 {
				t.Errorf("UDP size %d, %s: %d octets, tc=%v, want tc=%v within 512",
					size, tc.name, n, resp.Truncated, tc.truncated)
			}
			if !tc.truncated && len(resp.Answer) != 5 {
				t.Errorf("UDP size %d, %s: %d answers, want 5", size, tc.name, len(resp.Answer))
			}
		}
	}
}
