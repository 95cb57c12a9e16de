//go:build !race

// Allocation tests for the answer path. Excluded under the race
// detector, whose instrumentation adds allocations of its own.
package server

import (
	"context"
	"fmt"
	"net/netip"
	"testing"

	"dnssecboot/internal/dnswire"
	"dnssecboot/internal/zone"
)

// TestHandleDNSIntoAllocFree: once a reused reply's sections have grown
// and the zone's signatures are made, answering into it allocates
// nothing, for a signed positive answer and for a referral carrying DS,
// its RRSIG and glue — the two shapes a scan asks for most.
func TestHandleDNSIntoAllocFree(t *testing.T) {
	z := buildZone(t, false)
	z.MustAdd(dnswire.RR{Name: "sub.example.com.", TTL: 3600,
		Data: &dnswire.DS{KeyTag: 4711, Algorithm: 15, DigestType: 2, Digest: make([]byte, 32)}})
	z.MustAdd(dnswire.RR{Name: "ns.sub.example.com.", TTL: 3600,
		Data: &dnswire.AAAA{Addr: netip.MustParseAddr("2001:db8::54")}})
	if err := z.GenerateKeys(zone.SignConfig{Algorithm: dnswire.AlgEd25519}, nil); err != nil {
		t.Fatal(err)
	}
	if err := z.Sign(zone.SignConfig{Now: testNow}); err != nil {
		t.Fatal(err)
	}
	s := New(1)
	s.AddZone(z)
	for _, tc := range []struct {
		name  string
		qname string
		qtype dnswire.Type
		check func(m *dnswire.Message) bool
	}{
		{"positive", "www.example.com.", dnswire.TypeA, func(m *dnswire.Message) bool {
			return m.Authoritative && len(m.Answer) == 2 && m.Answer[1].Type() == dnswire.TypeRRSIG
		}},
		{"referral", "host.sub.example.com.", dnswire.TypeA, func(m *dnswire.Message) bool {
			return !m.Authoritative && len(m.Authority) == 3 && m.Authority[1].Type() == dnswire.TypeDS &&
				m.Authority[2].Type() == dnswire.TypeRRSIG && len(m.Additional) == 3
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := dnswire.NewQuery(7, tc.qname, tc.qtype)
			q.SetEDNS(dnswire.EDNS{UDPSize: dnswire.MaxUDPPayload, DO: true})
			var reply dnswire.Message
			ctx := context.Background()
			if ok, err := s.HandleDNSInto(ctx, localAddr, q, &reply); !ok || err != nil || !tc.check(&reply) {
				t.Fatalf("answered=%v err=%v reply: %s", ok, err, sections(&reply))
			}
			avg := testing.AllocsPerRun(100, func() {
				if ok, err := s.HandleDNSInto(ctx, localAddr, q, &reply); !ok || err != nil {
					t.Fatal("no answer")
				}
			})
			if !tc.check(&reply) {
				t.Fatalf("reused reply changed shape: %s", sections(&reply))
			}
			if avg != 0 {
				t.Errorf("answering into a reused reply allocates %.1f per query, want 0", avg)
			}
		})
	}
}

// sections lists a message's records by section, for failure messages.
func sections(m *dnswire.Message) string {
	out := fmt.Sprintf("aa=%v", m.Authoritative)
	for i, sec := range [][]dnswire.RR{m.Answer, m.Authority, m.Additional} {
		out += fmt.Sprintf(" [%d]", i)
		for _, rr := range sec {
			out += " " + rr.Name + "/" + rr.Type().String()
		}
	}
	return out
}
