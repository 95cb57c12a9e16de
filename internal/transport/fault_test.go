package transport

import (
	"context"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dnssecboot/internal/dnswire"
)

var faultAddr = netip.AddrPortFrom(netip.MustParseAddr("192.0.2.1"), 53)

func faultQuery(name string) *dnswire.Message {
	return dnswire.NewQuery(1, name, dnswire.TypeA)
}

// faulty returns a network with one answering server at faultAddr
// behind profile p, seeded with 1.
func faulty(p FaultProfile) (*Faults, *MemNetwork) {
	n := NewMemNetwork()
	n.Register(faultAddr.Addr(), echoHandler(dnswire.RcodeNoError))
	return &Faults{Inner: n, Profile: p, Seed: 1}, n
}

func TestFaultDown(t *testing.T) {
	f, n := faulty(FaultProfile{Down: true})
	if _, err := f.Exchange(context.Background(), faultAddr, faultQuery("x.")); err != ErrUnreachable {
		t.Fatalf("down server err = %v, want ErrUnreachable", err)
	}
	if q, _, _ := n.Stats(); q != 0 {
		t.Errorf("a down server's query reached the network (%d deliveries)", q)
	}
	// The zero profile passes every query through.
	f.Profile = FaultProfile{}
	if _, err := f.Exchange(context.Background(), faultAddr, faultQuery("x.")); err != nil {
		t.Fatalf("zero profile err = %v", err)
	}
}

func TestFaultServFail(t *testing.T) {
	f, _ := faulty(FaultProfile{ServFail: true})
	q := dnswire.NewQuery(4711, "Case.Test.", dnswire.TypeCDS)
	q.Opcode = 2
	resp, err := f.Exchange(context.Background(), faultAddr, q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Rcode != dnswire.RcodeServFail || !resp.Response {
		t.Errorf("rcode = %s, response = %v, want a SERVFAIL response", resp.Rcode, resp.Response)
	}
	// The resolver discards a response that does not echo its query.
	if resp.ID != q.ID || resp.Opcode != q.Opcode || len(resp.Question) != 1 || resp.Question[0] != q.Question[0] {
		t.Errorf("SERVFAIL does not echo the query: id %d opcode %d question %v, want %d %d %v",
			resp.ID, resp.Opcode, resp.Question, q.ID, q.Opcode, q.Question)
	}
}

func TestFaultFlakyEveryN(t *testing.T) {
	f, _ := faulty(FaultProfile{FlakyEveryN: 3})
	// Repeats of the same query tuple: attempts 1 and 2 drop, 3 answers.
	for i, wantErr := range []bool{true, true, false, true, true, false} {
		_, err := f.Exchange(context.Background(), faultAddr, faultQuery("flaky.test."))
		if wantErr && err != ErrTimeout {
			t.Fatalf("attempt %d: err = %v, want ErrTimeout", i+1, err)
		}
		if !wantErr && err != nil {
			t.Fatalf("attempt %d: err = %v, want success", i+1, err)
		}
	}
	// Distinct tuples keep independent sequences.
	if _, err := f.Exchange(context.Background(), faultAddr, faultQuery("other.test.")); err != ErrTimeout {
		t.Errorf("fresh tuple first attempt err = %v, want ErrTimeout", err)
	}
}

func TestFaultLossDeterministicAcrossNetworks(t *testing.T) {
	pattern := func(seed int64) []bool {
		f, _ := faulty(FaultProfile{Loss: 0.5})
		f.Seed = seed
		var out []bool
		for i := 0; i < 64; i++ {
			_, err := f.Exchange(context.Background(), faultAddr, faultQuery("det.test."))
			out = append(out, err == ErrTimeout)
		}
		return out
	}
	a, b := pattern(42), pattern(42)
	dropsA := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("drop pattern diverged at query %d", i)
		}
		if a[i] {
			dropsA++
		}
	}
	if dropsA == 0 || dropsA == len(a) {
		t.Errorf("loss=0.5 dropped %d/%d — not injecting", dropsA, len(a))
	}
	if n := pattern(43); equalBools(a, n) {
		t.Error("different chaos seeds produced the identical drop pattern")
	}
}

func equalBools(a, b []bool) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestFaultExtraLatencyRespectsDeadline(t *testing.T) {
	f, _ := faulty(FaultProfile{ExtraLatency: 200 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := f.Exchange(ctx, faultAddr, faultQuery("x.")); err != ErrTimeout {
		t.Errorf("slow server within short deadline: err = %v, want ErrTimeout", err)
	}
}

func TestFaultInjectedDropsCounter(t *testing.T) {
	f, n := faulty(FaultProfile{FlakyEveryN: 2})
	drops := 0
	for i := 0; i < 4; i++ {
		if _, err := f.Exchange(context.Background(), faultAddr, faultQuery("x.")); err == ErrTimeout {
			drops++
		}
	}
	if drops != 2 {
		t.Errorf("%d of 4 exchanges dropped, want 2", drops)
	}
	if q, _, _ := n.Stats(); q != 2 {
		t.Errorf("network delivered %d queries, want the 2 not dropped", q)
	}
}

// TestFaultConcurrentDraws: goroutines repeating one query tuple draw
// from one sequence, so exactly every other exchange is dropped.
func TestFaultConcurrentDraws(t *testing.T) {
	f, _ := faulty(FaultProfile{FlakyEveryN: 2})
	var drops atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := f.Exchange(context.Background(), faultAddr, faultQuery("x.")); err == ErrTimeout {
					drops.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if got := drops.Load(); got != 200 {
		t.Errorf("%d of 400 concurrent exchanges dropped, want 200", got)
	}
}
