package server_test

import (
	"context"
	"net/netip"
	"runtime"
	"sync"
	"testing"

	"dnssecboot/internal/dnswire"
	"dnssecboot/internal/ecosystem"
	"dnssecboot/internal/resolver"
	"dnssecboot/internal/scan"
	"dnssecboot/internal/transport"
)

// exchange is one query a scan sent to a server, as the server parsed
// it.
type exchange struct {
	h     transport.ReplyHandler
	local netip.Addr
	q     *dnswire.Message
}

// exchangeLog is an Exchanger that records every query passing through
// it to a ReplyHandler of net, the way the in-memory network hands it
// over: packed and parsed again.
type exchangeLog struct {
	net       *transport.MemNetwork
	mu        sync.Mutex
	exchanges []exchange
}

func (l *exchangeLog) Exchange(ctx context.Context, srv netip.AddrPort, q *dnswire.Message) (*dnswire.Message, error) {
	if h, ok := l.net.Route(srv.Addr()); ok {
		if rh, ok := h.(transport.ReplyHandler); ok {
			wire, err := q.Pack()
			if err != nil {
				return nil, err
			}
			parsed, err := dnswire.Unpack(wire)
			if err != nil {
				return nil, err
			}
			l.mu.Lock()
			l.exchanges = append(l.exchanges, exchange{rh, srv.Addr(), parsed})
			l.mu.Unlock()
		}
	}
	return l.net.Exchange(ctx, srv, q)
}

// scanExchanges generates the seed-1 world at scale, scans every target
// once on one goroutine with the scanner's cache, and returns the
// queries the scan sent to servers, in order.
func scanExchanges(tb testing.TB, scale int) []exchange {
	tb.Helper()
	world, err := ecosystem.Generate(ecosystem.Config{Seed: 1, ScaleDivisor: scale})
	if err != nil {
		tb.Fatal(err)
	}
	log := &exchangeLog{net: world.Net}
	s := scan.New(scan.Config{
		Resolver:         &resolver.Resolver{Net: log, Roots: world.Roots, Cache: resolver.NewCache(0)},
		Now:              world.Now,
		Concurrency:      1,
		SampleSuffixes:   world.CloudflareSuffixes,
		FullScanFraction: 0.05,
		ProbeSignals:     true,
		TrustAnchor:      world.TrustAnchor,
		Seed:             1,
	})
	for _, z := range world.Targets {
		s.ScanZone(context.Background(), z)
	}
	return log.exchanges
}

// BenchmarkAnswerMix replays the queries a scan of the seed-1,
// scale-50000 world (5 9xx zones) sends to its servers through
// HandleDNSInto on one goroutine, into one reused reply, and reports
// the time and allocations per query. The replay runs once before the
// timer starts, so every lazily made signature is made.
func BenchmarkAnswerMix(b *testing.B) {
	mix := scanExchanges(b, 50_000)
	var reply dnswire.Message
	ctx := context.Background()
	replay := func() {
		for _, e := range mix {
			if _, err := e.h.HandleDNSInto(ctx, e.local, e.q, &reply); err != nil {
				b.Fatal(err)
			}
		}
	}
	replay()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replay()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	queries := float64(b.N) * float64(len(mix))
	b.ReportMetric(b.Elapsed().Seconds()*1e9/queries, "ns/query")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/queries, "allocs/query")
	b.ReportMetric(float64(len(mix)), "queries")
}
