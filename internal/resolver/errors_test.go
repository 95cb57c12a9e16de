package resolver

import (
	"context"
	"errors"
	"net/netip"
	"strings"
	"testing"

	"dnssecboot/internal/dnswire"
	"dnssecboot/internal/transport"
)

// loopNet registers a single server that answers every query with the
// same non-authoritative referral to itself: the walk descends into
// "loopy.test." forever without making progress.
func loopNet(t *testing.T) *Resolver {
	t.Helper()
	net := transport.NewMemNetwork()
	addr := netip.MustParseAddr("192.0.2.77")
	net.Register(addr, handlerFunc(func(_ context.Context, _ netip.Addr, q *dnswire.Message) (*dnswire.Message, error) {
		m := &dnswire.Message{ID: q.ID, Response: true, Question: q.Question}
		m.Authority = []dnswire.RR{{Name: "loopy.test.", Class: dnswire.ClassIN, TTL: 60, Data: dnswire.NewNS("ns.loopy.test.")}}
		m.Additional = []dnswire.RR{{Name: "ns.loopy.test.", Class: dnswire.ClassIN, TTL: 60, Data: &dnswire.A{Addr: addr}}}
		return m, nil
	}))
	return &Resolver{Net: net, Roots: []netip.AddrPort{netip.AddrPortFrom(addr, 53)}}
}

func TestDelegationReferralLoop(t *testing.T) {
	r := loopNet(t)
	_, err := r.Delegation(context.Background(), "www.loopy.test.")
	if !errors.Is(err, ErrLoop) {
		t.Fatalf("err = %v, want ErrLoop", err)
	}
}

func TestLookupReferralLoop(t *testing.T) {
	r := loopNet(t)
	_, _, err := r.Lookup(context.Background(), "www.loopy.test.", dnswire.TypeA)
	if !errors.Is(err, ErrLoop) {
		t.Fatalf("err = %v, want ErrLoop", err)
	}
}

func TestMaxDepthBoundsReferralChain(t *testing.T) {
	// A chain that makes genuine downward progress on every step (so
	// the referral-direction check cannot reject it): query number i is
	// answered with a referral to the suffix of the qname that is i
	// labels long, pointing back at the same server. Only MaxDepth can
	// stop this walk.
	net := transport.NewMemNetwork()
	addr := netip.MustParseAddr("192.0.2.77")
	var step int
	net.Register(addr, handlerFunc(func(_ context.Context, _ netip.Addr, q *dnswire.Message) (*dnswire.Message, error) {
		step++
		labels := strings.Split(strings.TrimSuffix(dnswire.CanonicalName(q.Question[0].Name), "."), ".")
		n := step
		if n > len(labels)-1 {
			n = len(labels) - 1
		}
		cut := strings.Join(labels[len(labels)-n:], ".") + "."
		m := &dnswire.Message{ID: q.ID, Response: true, Question: q.Question}
		m.Authority = []dnswire.RR{{Name: cut, Class: dnswire.ClassIN, TTL: 60, Data: dnswire.NewNS("ns." + cut)}}
		m.Additional = []dnswire.RR{{Name: "ns." + cut, Class: dnswire.ClassIN, TTL: 60, Data: &dnswire.A{Addr: addr}}}
		return m, nil
	}))
	r := &Resolver{Net: net, Roots: []netip.AddrPort{netip.AddrPortFrom(addr, 53)}, MaxDepth: 3}
	// One referral chain from the roots (Delegation itself resolves the
	// target's ancestors first, each with a chain of its own).
	_, err := r.delegationFrom(context.Background(), "a.b.c.d.e.f.g.h.loopy.test.", r.Roots, ".")
	if !errors.Is(err, ErrLoop) {
		t.Fatalf("err = %v, want ErrLoop", err)
	}
	// One NS query per referral step: the walk must stop at MaxDepth,
	// not at the default 16.
	if got := r.Queries(); got != 3 {
		t.Errorf("queries = %d, want exactly MaxDepth (3)", got)
	}
}

func TestDelegationLameNoReferral(t *testing.T) {
	// Non-authoritative answer with no referral shape: a lame server.
	net := transport.NewMemNetwork()
	addr := netip.MustParseAddr("192.0.2.78")
	net.Register(addr, handlerFunc(func(_ context.Context, _ netip.Addr, q *dnswire.Message) (*dnswire.Message, error) {
		return &dnswire.Message{ID: q.ID, Response: true, Question: q.Question}, nil
	}))
	r := &Resolver{Net: net, Roots: []netip.AddrPort{netip.AddrPortFrom(addr, 53)}}
	if _, err := r.Delegation(context.Background(), "x.test."); !errors.Is(err, ErrLameReferal) {
		t.Errorf("Delegation err = %v, want ErrLameReferal", err)
	}
	if _, _, err := r.Lookup(context.Background(), "x.test.", dnswire.TypeA); !errors.Is(err, ErrLameReferal) {
		t.Errorf("Lookup err = %v, want ErrLameReferal", err)
	}
}

func TestDelegationLameAuthoritativeWithoutNS(t *testing.T) {
	// Authoritative NOERROR with no NS RRset for the asked zone: the
	// name exists but is not a zone cut anywhere the server knows.
	net := transport.NewMemNetwork()
	addr := netip.MustParseAddr("192.0.2.79")
	net.Register(addr, handlerFunc(func(_ context.Context, _ netip.Addr, q *dnswire.Message) (*dnswire.Message, error) {
		return &dnswire.Message{ID: q.ID, Response: true, Authoritative: true, Question: q.Question}, nil
	}))
	r := &Resolver{Net: net, Roots: []netip.AddrPort{netip.AddrPortFrom(addr, 53)}}
	if _, err := r.Delegation(context.Background(), "notacut.test."); !errors.Is(err, ErrLameReferal) {
		t.Errorf("err = %v, want ErrLameReferal", err)
	}
}

// downNet makes the addresses in down unreachable and passes every
// other query to inner.
type downNet struct {
	inner transport.Exchanger
	down  map[netip.Addr]bool
}

func (n *downNet) Exchange(ctx context.Context, server netip.AddrPort, q *dnswire.Message) (*dnswire.Message, error) {
	if n.down[server.Addr()] {
		return nil, transport.ErrUnreachable
	}
	return n.inner.Exchange(ctx, server, q)
}

// TestCacheSurvivesServerOutage covers the recovery scenario: cached
// zone servers go dark mid-scan, lookups fail with a joined
// unreachable error, and once the servers return the cached entries
// serve again without a fresh root walk.
func TestCacheSurvivesServerOutage(t *testing.T) {
	net, r, _ := miniNet(t)
	excom1 := netip.MustParseAddr("192.0.2.61")
	excom2 := netip.MustParseAddr("192.0.2.62")

	if _, _, err := r.Lookup(context.Background(), "www.example.com.", dnswire.TypeA); err != nil {
		t.Fatalf("priming lookup: %v", err)
	}
	if _, ok := r.cache().posLookup("example.com."); !ok {
		t.Fatal("example.com. servers not cached after lookup")
	}

	// Outage: both authoritative addresses go hard-down.
	r.Net = &downNet{inner: net, down: map[netip.Addr]bool{excom1: true, excom2: true}}
	_, _, err := r.Lookup(context.Background(), "alias.example.com.", dnswire.TypeA)
	if !errors.Is(err, ErrNoServers) || !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("outage err = %v, want joined ErrNoServers+ErrUnreachable", err)
	}

	// Recovery: the servers come back; the cached zone entry must work
	// again immediately and cheaply.
	r.Net = net
	before := r.Queries()
	answer, _, err := r.Lookup(context.Background(), "alias.example.com.", dnswire.TypeA)
	if err != nil {
		t.Fatalf("post-recovery lookup: %v", err)
	}
	if len(answer) == 0 {
		t.Fatal("post-recovery lookup returned no answer")
	}
	if used := r.Queries() - before; used > 3 {
		t.Errorf("post-recovery lookup used %d queries — cache not reused", used)
	}
}

// TestMismatchedResponsesAreRetriedNotCached: a response to another
// name, another type, another opcode, or with QR clear does not answer
// the query sent (RFC 5452 §9.1). Every attempt is discarded and
// retried, the exchange gives up, and the NXDOMAIN it carried never
// reaches the negative cache; the same NXDOMAIN for the right question
// does.
func TestMismatchedResponsesAreRetriedNotCached(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spoil func(m *dnswire.Message)
	}{
		{"another name", func(m *dnswire.Message) { m.Question[0].Name = "other.test." }},
		{"another type", func(m *dnswire.Message) { m.Question[0].Type = dnswire.TypeTXT }},
		{"another opcode", func(m *dnswire.Message) { m.Opcode = dnswire.OpcodeNotify }},
		{"QR clear", func(m *dnswire.Message) { m.Response = false }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := transport.NewMemNetwork()
			addr := netip.MustParseAddr("192.0.2.80")
			honest := false
			net.Register(addr, handlerFunc(func(_ context.Context, _ netip.Addr, q *dnswire.Message) (*dnswire.Message, error) {
				m := &dnswire.Message{ID: q.ID, Response: true, Authoritative: true, Rcode: dnswire.RcodeNXDomain,
					Question: append([]dnswire.Question(nil), q.Question...)}
				if !honest {
					tc.spoil(m)
				}
				return m, nil
			}))
			r := &Resolver{Net: net, Roots: []netip.AddrPort{netip.AddrPortFrom(addr, 53)}, Retry: &RetryPolicy{Attempts: 3}}
			_, err := r.Delegation(context.Background(), "gone.test.")
			if !errors.Is(err, ErrMismatch) || errors.Is(err, ErrNXDomain) {
				t.Fatalf("err = %v, want ErrMismatch and no NXDOMAIN", err)
			}
			queries, mismatches := r.Queries(), r.metrics().Mismatches.Value()
			if queries == 0 || mismatches != queries || r.Retries() != queries-r.GaveUp() || r.GaveUp() == 0 {
				t.Errorf("%d queries, %d mismatches, %d retries, %d gave up: want every attempt discarded and retried until given up",
					queries, mismatches, r.Retries(), r.GaveUp())
			}
			if n := r.cache().NegativeLen(); n != 0 {
				t.Errorf("%d negative cache entries from mismatched responses", n)
			}
			honest = true
			if _, err := r.Delegation(context.Background(), "gone.test."); !errors.Is(err, ErrNXDomain) {
				t.Fatalf("honest server: err = %v, want ErrNXDomain", err)
			}
			if r.cache().NegativeLen() == 0 {
				t.Error("the honest NXDOMAIN was not cached either: the test cannot tell")
			}
		})
	}
}

// TestQuestionNameCaseIsIgnored: a response echoing the question in
// another letter case (0x20 mixing, RFC 5452 §9.1) answers it.
func TestQuestionNameCaseIsIgnored(t *testing.T) {
	net := transport.NewMemNetwork()
	addr := netip.MustParseAddr("192.0.2.81")
	net.Register(addr, handlerFunc(func(_ context.Context, _ netip.Addr, q *dnswire.Message) (*dnswire.Message, error) {
		m := &dnswire.Message{ID: q.ID, Response: true, Authoritative: true, Rcode: dnswire.RcodeNXDomain,
			Question: append([]dnswire.Question(nil), q.Question...)}
		m.Question[0].Name = strings.ToUpper(m.Question[0].Name)
		return m, nil
	}))
	r := &Resolver{Net: net, Roots: []netip.AddrPort{netip.AddrPortFrom(addr, 53)}}
	if _, err := r.Delegation(context.Background(), "gone.test."); !errors.Is(err, ErrNXDomain) {
		t.Fatalf("err = %v, want ErrNXDomain", err)
	}
	if n := r.metrics().Mismatches.Value(); n != 0 {
		t.Errorf("%d mismatches counted for an upper-cased echo", n)
	}
}

// exchangerFunc adapts a function to transport.Exchanger.
type exchangerFunc func(ctx context.Context, server netip.AddrPort, q *dnswire.Message) (*dnswire.Message, error)

func (f exchangerFunc) Exchange(ctx context.Context, server netip.AddrPort, q *dnswire.Message) (*dnswire.Message, error) {
	return f(ctx, server, q)
}

// TestQuestionNameUnicodeFoldIsMismatch: names match case-insensitively
// in ASCII only (RFC 4343). A response whose question spells
// kelvin.test. with U+212A KELVIN SIGN, which Unicode folding equates
// with "k", does not answer a query for kelvin.test.
func TestQuestionNameUnicodeFoldIsMismatch(t *testing.T) {
	wire := []byte{0, 0, 0x84, 3, 0, 1, 0, 0, 0, 0, 0, 0, // QR AA NXDOMAIN, one question
		8, 0xE2, 0x84, 0xAA, 'e', 'l', 'v', 'i', 'n', 4, 't', 'e', 's', 't', 0, 0, byte(dnswire.TypeNS), 0, byte(dnswire.ClassIN)}
	net := exchangerFunc(func(_ context.Context, _ netip.AddrPort, q *dnswire.Message) (*dnswire.Message, error) {
		wire[0], wire[1] = byte(q.ID>>8), byte(q.ID)
		return dnswire.Unpack(wire)
	})
	r := &Resolver{Net: net, Retry: &RetryPolicy{Attempts: 1}}
	server := netip.AddrPortFrom(netip.MustParseAddr("192.0.2.82"), 53)
	if resp, err := r.Exchange(context.Background(), server, "kelvin.test.", dnswire.TypeNS); !errors.Is(err, ErrMismatch) {
		t.Fatalf("response for %q accepted for kelvin.test.: %v", resp.Question[0].Name, err)
	}
}
