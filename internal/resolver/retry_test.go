package resolver

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"testing"
	"time"

	"dnssecboot/internal/dnswire"
	"dnssecboot/internal/transport"
)

// handlerFunc adapts a function to transport.Handler.
type handlerFunc func(ctx context.Context, local netip.Addr, query *dnswire.Message) (*dnswire.Message, error)

func (f handlerFunc) HandleDNS(ctx context.Context, local netip.Addr, query *dnswire.Message) (*dnswire.Message, error) {
	return f(ctx, local, query)
}

// flakyWorld registers a single answering server at addr behind the
// given fault profile and returns a resolver pointed at it.
func flakyWorld(t *testing.T, profile transport.FaultProfile) (*Resolver, netip.AddrPort) {
	t.Helper()
	net := transport.NewMemNetwork()
	addr := netip.MustParseAddr("192.0.2.10")
	net.Register(addr, handlerFunc(func(_ context.Context, _ netip.Addr, q *dnswire.Message) (*dnswire.Message, error) {
		m := &dnswire.Message{ID: q.ID, Response: true, Authoritative: true, Question: q.Question}
		m.Answer = []dnswire.RR{{Name: q.Question[0].Name, Class: dnswire.ClassIN, TTL: 60,
			Data: &dnswire.A{Addr: netip.MustParseAddr("203.0.113.1")}}}
		return m, nil
	}))
	r := &Resolver{Net: &transport.Faults{Inner: net, Profile: profile, Seed: 1}, Roots: []netip.AddrPort{netip.AddrPortFrom(addr, 53)}}
	return r, netip.AddrPortFrom(addr, 53)
}

func TestExchangeRetriesFlakyServer(t *testing.T) {
	r, server := flakyWorld(t, transport.FaultProfile{FlakyEveryN: 3})
	r.Retry = &RetryPolicy{Attempts: 3}
	resp, err := r.Exchange(context.Background(), server, "www.test.", dnswire.TypeA)
	if err != nil {
		t.Fatalf("Exchange with 3 attempts against answer-every-3rd server: %v", err)
	}
	if len(resp.Answer) != 1 {
		t.Errorf("answers = %d", len(resp.Answer))
	}
	if r.Queries() != 3 || r.Retries() != 2 || r.GaveUp() != 0 {
		t.Errorf("queries=%d retries=%d gaveUp=%d, want 3/2/0", r.Queries(), r.Retries(), r.GaveUp())
	}
}

func TestExchangeGivesUpAfterAttempts(t *testing.T) {
	r, server := flakyWorld(t, transport.FaultProfile{FlakyEveryN: 5})
	r.Retry = &RetryPolicy{Attempts: 3}
	_, err := r.Exchange(context.Background(), server, "www.test.", dnswire.TypeA)
	if !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("err = %v, want wrapped ErrTimeout", err)
	}
	if r.GaveUp() != 1 || r.Retries() != 2 {
		t.Errorf("gaveUp=%d retries=%d, want 1/2", r.GaveUp(), r.Retries())
	}
}

func TestExchangeServFailRetriedThenSurfaced(t *testing.T) {
	r, server := flakyWorld(t, transport.FaultProfile{ServFail: true})
	r.Retry = &RetryPolicy{Attempts: 3}
	resp, err := r.Exchange(context.Background(), server, "www.test.", dnswire.TypeA)
	if err != nil {
		t.Fatalf("persistent SERVFAIL must surface as a response, got err %v", err)
	}
	if resp.Rcode != dnswire.RcodeServFail {
		t.Errorf("rcode = %s", resp.Rcode)
	}
	if r.Queries() != 3 || r.GaveUp() != 1 {
		t.Errorf("queries=%d gaveUp=%d, want 3/1 (SERVFAIL is transient)", r.Queries(), r.GaveUp())
	}
}

func TestExchangeHardFailureNotRetried(t *testing.T) {
	r, _ := flakyWorld(t, transport.FaultProfile{})
	r.Retry = &RetryPolicy{Attempts: 4}
	dead := netip.AddrPortFrom(netip.MustParseAddr("198.51.100.99"), 53)
	_, err := r.Exchange(context.Background(), dead, "www.test.", dnswire.TypeA)
	if !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("err = %v", err)
	}
	if r.Queries() != 1 || r.Retries() != 0 {
		t.Errorf("queries=%d retries=%d, want 1/0 (no retry on hard failure)", r.Queries(), r.Retries())
	}
}

func TestRetryBackoffDeterministicJitter(t *testing.T) {
	p := &RetryPolicy{Attempts: 5, BaseBackoff: 100 * time.Millisecond, MaxBackoff: time.Second, Jitter: 0.5, Seed: 9}
	server := netip.AddrPortFrom(netip.MustParseAddr("192.0.2.1"), 53)
	for attempt := 1; attempt <= 4; attempt++ {
		a := p.backoffFor(server, "x.test.", attempt)
		b := p.backoffFor(server, "x.test.", attempt)
		if a != b {
			t.Errorf("attempt %d: backoff not deterministic (%v vs %v)", attempt, a, b)
		}
		full := p.BaseBackoff << (attempt - 1)
		if full > p.MaxBackoff {
			full = p.MaxBackoff
		}
		if a > full || a < full/2 {
			t.Errorf("attempt %d: backoff %v outside [%v, %v]", attempt, a, full/2, full)
		}
	}
	// Different seeds shift the jitter.
	q := &RetryPolicy{Attempts: 5, BaseBackoff: 100 * time.Millisecond, Jitter: 0.5, Seed: 10}
	same := 0
	for attempt := 1; attempt <= 4; attempt++ {
		if p.backoffFor(server, "x.test.", attempt) == q.backoffFor(server, "x.test.", attempt) {
			same++
		}
	}
	if same == 4 {
		t.Error("jitter ignored the seed")
	}
}

// multiServerNet builds a resolver whose roots are n addresses, each
// with its own handler.
func multiServerNet(t *testing.T, handlers ...transport.Handler) (*Resolver, []netip.AddrPort) {
	t.Helper()
	net := transport.NewMemNetwork()
	var servers []netip.AddrPort
	for i, h := range handlers {
		addr := netip.AddrPortFrom(netip.MustParseAddr("192.0.2.0").Next(), 53)
		for j := 0; j < i; j++ {
			addr = netip.AddrPortFrom(addr.Addr().Next(), 53)
		}
		net.Register(addr.Addr(), h)
		servers = append(servers, addr)
	}
	return &Resolver{Net: net, Roots: servers}, servers
}

func dropHandler() transport.Handler {
	return handlerFunc(func(context.Context, netip.Addr, *dnswire.Message) (*dnswire.Message, error) {
		return nil, nil // silent drop → ErrTimeout at the client
	})
}

func rcodeHandler(rc dnswire.Rcode) transport.Handler {
	return handlerFunc(func(_ context.Context, _ netip.Addr, q *dnswire.Message) (*dnswire.Message, error) {
		return &dnswire.Message{ID: q.ID, Response: true, Rcode: rc, Question: q.Question}, nil
	})
}

func TestQueryAnyJoinsPerServerErrors(t *testing.T) {
	cases := []struct {
		name         string
		handlers     []transport.Handler
		wantTimeout  bool
		wantServFail bool
	}{
		{"all timeout", []transport.Handler{dropHandler(), dropHandler()}, true, false},
		{"all servfail", []transport.Handler{rcodeHandler(dnswire.RcodeServFail), rcodeHandler(dnswire.RcodeServFail)}, false, true},
		{"mixed", []transport.Handler{dropHandler(), rcodeHandler(dnswire.RcodeServFail)}, true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, servers := multiServerNet(t, tc.handlers...)
			_, _, err := r.queryAny(context.Background(), servers, "x.test.", dnswire.TypeA)
			if err == nil {
				t.Fatal("expected total failure")
			}
			if !errors.Is(err, ErrNoServers) {
				t.Errorf("err = %v, want wrapped ErrNoServers", err)
			}
			if got := errors.Is(err, transport.ErrTimeout); got != tc.wantTimeout {
				t.Errorf("errors.Is(ErrTimeout) = %v, want %v (err: %v)", got, tc.wantTimeout, err)
			}
			if got := errors.Is(err, ErrServFail); got != tc.wantServFail {
				t.Errorf("errors.Is(ErrServFail) = %v, want %v (err: %v)", got, tc.wantServFail, err)
			}
		})
	}
}

// spreadZone is one zone served at four addresses by one handler that
// logs which address each query reached. Addresses in down drop their
// queries.
type spreadZone struct {
	r       *Resolver
	servers []netip.AddrPort
	mu      sync.Mutex
	hits    []netip.Addr
	down    map[netip.Addr]bool
}

func newSpreadZone(t *testing.T) *spreadZone {
	t.Helper()
	z := &spreadZone{down: map[netip.Addr]bool{}}
	h := handlerFunc(func(_ context.Context, local netip.Addr, q *dnswire.Message) (*dnswire.Message, error) {
		z.mu.Lock()
		defer z.mu.Unlock()
		z.hits = append(z.hits, local)
		if z.down[local] {
			return nil, nil
		}
		return &dnswire.Message{ID: q.ID, Response: true, Authoritative: true, Question: q.Question}, nil
	})
	z.r, z.servers = multiServerNet(t, h, h, h, h)
	return z
}

// ask sends one any-server question and returns the addresses it
// reached, in order.
func (z *spreadZone) ask(t *testing.T, r *Resolver, name string) []netip.Addr {
	t.Helper()
	z.mu.Lock()
	z.hits = z.hits[:0]
	z.mu.Unlock()
	if _, _, err := r.queryAny(context.Background(), z.servers, name, dnswire.TypeA); err != nil {
		t.Fatalf("queryAny(%s): %v", name, err)
	}
	z.mu.Lock()
	defer z.mu.Unlock()
	return append([]netip.Addr(nil), z.hits...)
}

// TestQueryAnySpreadsOverServers pins the any-server rule: the first
// try goes to a server chosen by the query name, so distinct names share
// a zone's addresses evenly, one name always reaches one address, and
// the circuit breaker still only reorders.
func TestQueryAnySpreadsOverServers(t *testing.T) {
	t.Run("distinct names spread evenly", func(t *testing.T) {
		z := newSpreadZone(t)
		const names = 4000
		first := map[netip.Addr]int{}
		for i := 0; i < names; i++ {
			first[z.ask(t, z.r, fmt.Sprintf("host%d.spread.test.", i))[0]]++
		}
		want := names / len(z.servers)
		for _, s := range z.servers {
			if n := first[s.Addr()]; n < want*9/10 || n > want*11/10 {
				t.Errorf("%s got %d of %d first tries, want %d ± 10 %%", s.Addr(), n, names, want)
			}
		}
	})
	t.Run("one name, one server", func(t *testing.T) {
		z := newSpreadZone(t)
		fresh := &Resolver{Net: z.r.Net, Roots: z.servers}
		for _, name := range []string{"a.spread.test.", "_dsboot.example.com._signal.ns1.spread.test."} {
			want := z.ask(t, z.r, name)[0]
			for i := 0; i < 3; i++ {
				if got := z.ask(t, z.r, name)[0]; got != want {
					t.Errorf("%s: repeat %d went to %s, first to %s", name, i, got, want)
				}
			}
			if got := z.ask(t, fresh, name)[0]; got != want {
				t.Errorf("%s: a fresh resolver went to %s, the first to %s", name, got, want)
			}
		}
	})
	t.Run("tripped server tried last", func(t *testing.T) {
		z := newSpreadZone(t)
		tripped := z.servers[0]
		for i := 0; i < trippedAfter; i++ {
			z.r.health.note(tripped, false)
		}
		for i := 0; i < 400; i++ {
			if got := z.ask(t, z.r, fmt.Sprintf("host%d.spread.test.", i))[0]; got == tripped.Addr() {
				t.Fatalf("host%d: first try went to the tripped %s", i, got)
			}
		}
		for _, s := range z.servers[1:] {
			z.down[s.Addr()] = true
		}
		hits := z.ask(t, z.r, "last.spread.test.")
		if len(hits) != len(z.servers) || hits[len(hits)-1] != tripped.Addr() {
			t.Errorf("with the healthy servers down the tries were %v, want the tripped %s last", hits, tripped.Addr())
		}
	})
}

func TestHealthTrackerDeprioritisesAndRecovers(t *testing.T) {
	r, server := flakyWorld(t, transport.FaultProfile{Down: false})
	good := server
	bad := netip.AddrPortFrom(netip.MustParseAddr("198.51.100.50"), 53)

	for i := 0; i < trippedAfter; i++ {
		r.health.note(bad, false)
	}
	if !r.ServerTripped(bad) {
		t.Fatal("server not tripped after consecutive failures")
	}
	ordered := r.health.order(nil, []netip.AddrPort{bad, good}, 0)
	if ordered[0] != good || ordered[1] != bad {
		t.Errorf("order = %v, want healthy first", ordered)
	}
	// Deprioritised, not blacklisted: still present, and one success
	// restores standing.
	r.health.note(bad, true)
	if r.ServerTripped(bad) {
		t.Error("success did not reset the breaker")
	}
	ordered = r.health.order(nil, []netip.AddrPort{bad, good}, 0)
	if ordered[0] != bad {
		t.Errorf("recovered server not restored to input order: %v", ordered)
	}
}

func TestHealthOrderStableWhenAllHealthy(t *testing.T) {
	var h healthTracker
	servers := []netip.AddrPort{
		netip.AddrPortFrom(netip.MustParseAddr("192.0.2.1"), 53),
		netip.AddrPortFrom(netip.MustParseAddr("192.0.2.2"), 53),
		netip.AddrPortFrom(netip.MustParseAddr("192.0.2.3"), 53),
	}
	var buf [4]netip.AddrPort
	got := h.order(buf[:0], servers, 1)
	if len(got) != 3 || got[0] != servers[1] || got[1] != servers[2] || got[2] != servers[0] {
		t.Errorf("order from 1 = %v, want the rotation %v %v %v", got, servers[1], servers[2], servers[0])
	}
	if &got[0] != &buf[0] {
		t.Error("healthy path should fill the caller's buffer, not allocate")
	}
}
