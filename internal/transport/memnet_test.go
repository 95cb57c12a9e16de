package transport

import (
	"context"
	"net/netip"
	"sync"
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

// txtHandler answers every query with n padded TXT records.
func txtHandler(n int) Handler {
	return handlerFunc(func(_ context.Context, _ netip.Addr, q *dnswire.Message) (*dnswire.Message, error) {
		return txtAnswer(q, n), nil
	})
}

func txtAnswer(q *dnswire.Message, n int) *dnswire.Message {
	m := &dnswire.Message{ID: q.ID, Response: true, Question: q.Question}
	for i := 0; i < n; i++ {
		m.Answer = append(m.Answer, dnswire.RR{Name: q.Question[0].Name, Class: dnswire.ClassIN, TTL: 1,
			Data: &dnswire.TXT{Strings: []string{"padding padding padding padding padding"}}})
	}
	return m
}

// TestMemNetworkTruncationStats pins the traffic a truncate-then-retry
// exchange accounts: two queries, the query's bytes twice, and both
// responses — the truncated UDP one and the full TCP one.
func TestMemNetworkTruncationStats(t *testing.T) {
	n := NewMemNetwork()
	addr := netip.MustParseAddr("192.0.2.1")
	n.Register(addr, txtHandler(30))
	q := dnswire.NewQuery(1, "big.test.", dnswire.TypeTXT) // no EDNS → 512-byte UDP
	if _, err := n.Exchange(context.Background(), netip.AddrPortFrom(addr, 53), q); err != nil {
		t.Fatal(err)
	}
	query, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	full, err := txtAnswer(q, 30).Pack()
	if err != nil {
		t.Fatal(err)
	}
	truncated, err := txtAnswer(q, 30).AppendPackTruncating(nil, 512)
	if err != nil {
		t.Fatal(err)
	}
	queries, out, in := n.Stats()
	want := [3]int64{2, 2 * int64(len(query)), int64(len(truncated) + len(full))}
	if got := [3]int64{queries, out, in}; got != want {
		t.Errorf("Stats() = %v, want %v (queries, query bytes twice, truncated %d + full %d response bytes)",
			got, want, len(truncated), len(full))
	}
}

// TestMemNetworkEDNSPayloadFloor: an advertised UDP payload size below
// 512 counts as 512 (RFC 6891 §6.2.5). A size of 0 must not lift the
// limit — a 40-record answer is truncated and fetched again — and a
// size of 100 must not truncate an answer that fits in 512 octets.
func TestMemNetworkEDNSPayloadFloor(t *testing.T) {
	for _, size := range []uint16{0, 100} {
		for _, tc := range []struct {
			records int
			queries int64
		}{{40, 2}, {5, 1}} {
			n := NewMemNetwork()
			addr := netip.MustParseAddr("192.0.2.1")
			n.Register(addr, txtHandler(tc.records))
			q := dnswire.NewQuery(1, "floor.test.", dnswire.TypeTXT)
			q.SetEDNS(dnswire.EDNS{UDPSize: size})
			resp, err := n.Exchange(context.Background(), netip.AddrPortFrom(addr, 53), q)
			if err != nil {
				t.Fatal(err)
			}
			if resp.Truncated || len(resp.Answer) != tc.records {
				t.Fatalf("UDP size %d, %d records: tc=%v answers=%d", size, tc.records, resp.Truncated, len(resp.Answer))
			}
			if queries, _, _ := n.Stats(); queries != tc.queries {
				t.Errorf("UDP size %d, %d records: %d queries, want %d", size, tc.records, queries, tc.queries)
			}
		}
	}
}

// TestMemNetworkRegisterDuringExchanges: routes added while exchanges
// run reach every exchange that starts after them, and never disturb
// the routes already there. Run under -race this is the check that an
// exchange reads the routes without a lock.
func TestMemNetworkRegisterDuringExchanges(t *testing.T) {
	n := NewMemNetwork()
	first := netip.MustParseAddr("192.0.2.1")
	n.Register(first, echoHandler(dnswire.RcodeNoError))
	const added = 200
	done := make(chan struct{})
	errs := make(chan error, 4)
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := dnswire.NewQuery(1, "example.", dnswire.TypeA)
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, err := n.Exchange(context.Background(), netip.AddrPortFrom(first, 53), q); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	q := dnswire.NewQuery(2, "example.", dnswire.TypeA)
	for i := range added {
		addr := netip.AddrFrom4([4]byte{10, 0, byte(i / 250), byte(1 + i%250)})
		if i%2 == 0 {
			n.Register(addr, echoHandler(dnswire.RcodeNoError))
		} else {
			n.RegisterPrefix(netip.PrefixFrom(addr, 32), echoHandler(dnswire.RcodeNoError))
		}
		if _, err := n.Exchange(context.Background(), netip.AddrPortFrom(addr, 53), q); err != nil {
			t.Fatalf("route %d (%s) just added: %v", i, addr, err)
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("exchange with the first route: %v", err)
	}
}
