package resolver

import (
	"context"
	"net/netip"
	"testing"

	"dnssecboot/internal/dnswire"
	"dnssecboot/internal/rate"
	"dnssecboot/internal/server"
	"dnssecboot/internal/transport"
	"dnssecboot/internal/zone"
)

// benchExchangeSetup builds a simulated network serving an A record
// from one server at four addresses, with a (generous) per-server rate
// limit installed so the benchmark exercises the real query path:
// limiter, pooled query build, MemNetwork codec round-trip.
func benchExchangeSetup() (*Resolver, []netip.AddrPort) {
	z := zone.New("example.com.")
	z.SetBasics("ns1.example.com.", []string{"ns1.example.com."}, 1)
	z.MustAdd(dnswire.RR{Name: "www.example.com.", TTL: 300,
		Data: &dnswire.A{Addr: netip.MustParseAddr("203.0.113.80")}})
	srv := server.New(1)
	srv.AddZone(z)
	net := transport.NewMemNetwork()
	var servers []netip.AddrPort
	addr := netip.MustParseAddr("192.0.2.61")
	for i := 0; i < 4; i++ {
		net.Register(addr, srv)
		servers = append(servers, netip.AddrPortFrom(addr, 53))
		addr = addr.Next()
	}
	r := &Resolver{
		Net:    net,
		Limits: rate.NewPerKey(1e9, 1e6),
	}
	return r, servers
}

// BenchmarkQueryHotPath measures one full resolver exchange against the
// in-memory network: rate limit, query build, pack, server-side parse,
// handler, response pack and parse. The bench gate tracks its allocs/op.
func BenchmarkQueryHotPath(b *testing.B) {
	r, servers := benchExchangeSetup()
	server := servers[0]
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := r.Exchange(ctx, server, "www.example.com.", dnswire.TypeA)
		if err != nil {
			b.Fatal(err)
		}
		if len(resp.Answer) != 1 {
			b.Fatalf("answers = %d", len(resp.Answer))
		}
	}
}

// trailingExchanger returns a canned response reporting trailing
// garbage, as a malformed responder would produce.
type trailingExchanger struct{ trailing int }

func (t *trailingExchanger) Exchange(_ context.Context, _ netip.AddrPort, q *dnswire.Message) (*dnswire.Message, error) {
	return &dnswire.Message{ID: q.ID, Response: true, Question: q.Question,
		TrailingBytes: t.trailing}, nil
}

// TestExchangeCountsTrailingBytes pins the resolver-side surfacing of
// dnswire's TrailingBytes: responses carrying trailing garbage must
// accumulate into the resolver_trailing_bytes_total counter so the
// classifier can see malformed responders.
func TestExchangeCountsTrailingBytes(t *testing.T) {
	r := &Resolver{Net: &trailingExchanger{trailing: 7}}
	server := netip.MustParseAddrPort("192.0.2.1:53")
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := r.Exchange(ctx, server, "example.com.", dnswire.TypeA); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.TrailingBytes(); got != 21 {
		t.Errorf("TrailingBytes = %d, want 21", got)
	}
}
