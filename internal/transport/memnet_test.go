package transport

import (
	"context"
	"net/netip"
	"testing"

	"dnssecboot/internal/dnswire"
)

// handlerFunc adapts a function to Handler.
type handlerFunc func(ctx context.Context, local netip.Addr, query *dnswire.Message) (*dnswire.Message, error)

func (f handlerFunc) HandleDNS(ctx context.Context, local netip.Addr, query *dnswire.Message) (*dnswire.Message, error) {
	return f(ctx, local, query)
}

func echoHandler(rcode dnswire.Rcode) Handler {
	return handlerFunc(func(_ context.Context, _ netip.Addr, q *dnswire.Message) (*dnswire.Message, error) {
		return &dnswire.Message{ID: q.ID, Response: true, Rcode: rcode, Question: q.Question}, nil
	})
}

func TestMemNetworkRouting(t *testing.T) {
	n := NewMemNetwork()
	addr := netip.MustParseAddr("192.0.2.1")
	n.Register(addr, echoHandler(dnswire.RcodeNoError))

	q := dnswire.NewQuery(7, "example.com.", dnswire.TypeA)
	resp, err := n.Exchange(context.Background(), netip.AddrPortFrom(addr, 53), q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != 7 || !resp.Response {
		t.Errorf("resp = %+v", resp)
	}

	_, err = n.Exchange(context.Background(), netip.AddrPortFrom(netip.MustParseAddr("198.51.100.1"), 53), q)
	if err != ErrUnreachable {
		t.Errorf("unroutable exchange err = %v", err)
	}
}

func TestMemNetworkAnycastPrefix(t *testing.T) {
	n := NewMemNetwork()
	n.RegisterPrefix(netip.MustParsePrefix("198.51.100.0/24"), echoHandler(dnswire.RcodeNoError))
	q := dnswire.NewQuery(1, "x.", dnswire.TypeA)
	for _, ip := range []string{"198.51.100.1", "198.51.100.200", "198.51.100.77"} {
		if _, err := n.Exchange(context.Background(), netip.AddrPortFrom(netip.MustParseAddr(ip), 53), q); err != nil {
			t.Errorf("anycast %s: %v", ip, err)
		}
	}
	if _, err := n.Exchange(context.Background(), netip.AddrPortFrom(netip.MustParseAddr("198.51.101.1"), 53), q); err != ErrUnreachable {
		t.Errorf("out-of-prefix err = %v", err)
	}
	// Single-host registration takes precedence over the prefix.
	special := netip.MustParseAddr("198.51.100.50")
	n.Register(special, echoHandler(dnswire.RcodeRefused))
	resp, err := n.Exchange(context.Background(), netip.AddrPortFrom(special, 53), q)
	if err != nil || resp.Rcode != dnswire.RcodeRefused {
		t.Errorf("specific host did not win: %v %v", resp, err)
	}
}

func TestMemNetworkNilResponseIsTimeout(t *testing.T) {
	n := NewMemNetwork()
	addr := netip.MustParseAddr("192.0.2.1")
	n.Register(addr, handlerFunc(func(context.Context, netip.Addr, *dnswire.Message) (*dnswire.Message, error) {
		return nil, nil
	}))
	q := dnswire.NewQuery(1, "x.", dnswire.TypeA)
	if _, err := n.Exchange(context.Background(), netip.AddrPortFrom(addr, 53), q); err != ErrTimeout {
		t.Errorf("dropped query err = %v", err)
	}
}

func TestMemNetworkTruncationRetry(t *testing.T) {
	n := NewMemNetwork()
	addr := netip.MustParseAddr("192.0.2.1")
	n.Register(addr, handlerFunc(func(_ context.Context, _ netip.Addr, q *dnswire.Message) (*dnswire.Message, error) {
		m := &dnswire.Message{ID: q.ID, Response: true, Question: q.Question}
		for i := 0; i < 30; i++ {
			m.Answer = append(m.Answer, dnswire.RR{Name: q.Question[0].Name, Class: dnswire.ClassIN, TTL: 1,
				Data: &dnswire.TXT{Strings: []string{"padding padding padding padding padding"}}})
		}
		return m, nil
	}))
	q := dnswire.NewQuery(1, "big.test.", dnswire.TypeTXT) // no EDNS → 512-byte UDP
	resp, err := n.Exchange(context.Background(), netip.AddrPortFrom(addr, 53), q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Truncated || len(resp.Answer) != 30 {
		t.Errorf("tc=%v answers=%d", resp.Truncated, len(resp.Answer))
	}
	queries, _, _ := n.Stats()
	if queries != 2 {
		t.Errorf("query count = %d, want 2 (UDP + TCP retry)", queries)
	}
}

func TestMemNetworkStats(t *testing.T) {
	n := NewMemNetwork()
	addr := netip.MustParseAddr("192.0.2.1")
	n.Register(addr, echoHandler(dnswire.RcodeNoError))
	q := dnswire.NewQuery(1, "example.com.", dnswire.TypeA)
	for i := 0; i < 5; i++ {
		if _, err := n.Exchange(context.Background(), netip.AddrPortFrom(addr, 53), q); err != nil {
			t.Fatal(err)
		}
	}
	queries, out, in := n.Stats()
	if queries != 5 || out <= 0 || in <= 0 {
		t.Errorf("stats = %d %d %d", queries, out, in)
	}
	n.ResetStats()
	queries, out, in = n.Stats()
	if queries != 0 || out != 0 || in != 0 {
		t.Error("ResetStats did not zero counters")
	}
}
