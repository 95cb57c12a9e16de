//go:build !race

// Allocation-regression guard for the resolver single-query path.
// Excluded under the race detector, whose instrumentation inflates
// allocation counts.
package resolver

import (
	"context"
	"testing"

	"dnssecboot/internal/dnswire"
)

// TestExchangeAllocBudget pins the per-query allocation budget of a
// full resolver exchange over the in-memory network. Steady state
// measures ~12 allocs/op (the returned response message and the
// handler's answer construction; query build, rate limiting, and both
// codec directions are allocation-free). The ceiling leaves modest
// headroom — a regression that reintroduces per-query scratch (query
// messages, compression maps, read buffers) costs far more than 8
// allocations.
func TestExchangeAllocBudget(t *testing.T) {
	r, servers := benchExchangeSetup()
	server := servers[0]
	ctx := context.Background()
	for i := 0; i < 5; i++ { // warm pools and caches
		if _, err := r.Exchange(ctx, server, "www.example.com.", dnswire.TypeA); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		resp, err := r.Exchange(ctx, server, "www.example.com.", dnswire.TypeA)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Answer) != 1 {
			t.Fatalf("answers = %d", len(resp.Answer))
		}
	})
	if avg > 20 {
		t.Errorf("resolver exchange allocates %.1f/op, budget 20", avg)
	}
}

// TestQueryAnyAllocs pins queryAny's own cost on the all-healthy path:
// choosing the first server and the try order allocates nothing, so a
// query over four servers allocates no more than the Exchange it wraps.
func TestQueryAnyAllocs(t *testing.T) {
	r, servers := benchExchangeSetup()
	ctx := context.Background()
	const name = "www.example.com."
	exchange := testing.AllocsPerRun(200, func() {
		if _, err := r.Exchange(ctx, servers[0], name, dnswire.TypeA); err != nil {
			t.Fatal(err)
		}
	})
	queryAny := testing.AllocsPerRun(200, func() {
		if _, _, err := r.queryAny(ctx, servers, name, dnswire.TypeA); err != nil {
			t.Fatal(err)
		}
	})
	if queryAny > exchange {
		t.Errorf("queryAny allocates %.1f/op, the Exchange it wraps %.1f", queryAny, exchange)
	}
}
