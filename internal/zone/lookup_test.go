package zone

import (
	"fmt"
	"net/netip"
	"testing"

	"dnssecboot/internal/dnswire"
)

// BenchmarkZoneLookup reads one RRset per iteration, round-robin over
// the owners of a built zone: a generated child zone's three owners,
// and a registry-sized zone of 15 000 delegations with their DS.
func BenchmarkZoneLookup(b *testing.B) {
	for _, owners := range []int{3, 15_000} {
		b.Run(fmt.Sprintf("owners=%d", owners), func(b *testing.B) {
			z := New("example.")
			z.SetBasics("ns1.example.net.", []string{"ns1.example.net.", "ns2.example.net."}, 1)
			names := []string{"example."}
			typ := dnswire.TypeNS
			if owners == 3 {
				typ = dnswire.TypeA
				a := &dnswire.A{Addr: netip.MustParseAddr("192.0.2.1")}
				names = append(names, "www.example.", "mail.example.")
				for _, n := range names {
					z.MustAdd(dnswire.RR{Name: n, TTL: 300, Data: a})
				}
			} else {
				ns := dnswire.NewNS("ns1.example.net.")
				ds := &dnswire.DS{KeyTag: 1, Algorithm: dnswire.AlgEd25519, DigestType: dnswire.DigestSHA256, Digest: make([]byte, 32)}
				for i := range owners - 1 {
					n := fmt.Sprintf("zone-%06d.example.", i*7919%owners)
					z.MustAdd(dnswire.RR{Name: n, TTL: 300, Data: ns})
					z.MustAdd(dnswire.RR{Name: n, TTL: 300, Data: ds})
					names = append(names, n)
				}
			}
			for _, n := range names {
				if _, ok := z.First(n, typ); !ok {
					b.Fatalf("no %s at %s", typ, n)
				}
			}
			b.ResetTimer()
			for i := range b.N {
				z.First(names[i%len(names)], typ)
			}
		})
	}
}
