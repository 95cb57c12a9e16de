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
// measures 2 allocs/op: the returned response message, which holds its
// question, OPT payload and record sections, and the answer's one
// RDATA. Query build, rate limiting, both codec directions and the
// server's answer, built in the network's reused reply, are
// allocation-free. The ceiling leaves one allocation of headroom, so
// any reintroduced per-query scratch (query or reply messages, OPT
// records, compression maps, read buffers) fails it.
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
	if avg > 3 {
		t.Errorf("resolver exchange allocates %.1f/op, budget 3", avg)
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
