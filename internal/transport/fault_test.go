package transport

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"dnssecboot/internal/dnswire"
)

func faultQuery(name string) *dnswire.Message {
	return dnswire.NewQuery(1, name, dnswire.TypeA)
}

func TestFaultDown(t *testing.T) {
	n := NewMemNetwork(1)
	addr := netip.MustParseAddr("192.0.2.1")
	n.Register(addr, echoHandler(dnswire.RcodeNoError))
	n.SetFault(addr, FaultProfile{Down: true})
	if _, err := n.Exchange(context.Background(), netip.AddrPortFrom(addr, 53), faultQuery("x.")); err != ErrUnreachable {
		t.Fatalf("down server err = %v, want ErrUnreachable", err)
	}
	// Clearing the profile restores the server.
	n.SetFault(addr, FaultProfile{})
	if _, err := n.Exchange(context.Background(), netip.AddrPortFrom(addr, 53), faultQuery("x.")); err != nil {
		t.Fatalf("cleared profile err = %v", err)
	}
}

func TestFaultServFail(t *testing.T) {
	n := NewMemNetwork(1)
	addr := netip.MustParseAddr("192.0.2.1")
	n.Register(addr, echoHandler(dnswire.RcodeNoError))
	n.SetFault(addr, FaultProfile{ServFail: true})
	resp, err := n.Exchange(context.Background(), netip.AddrPortFrom(addr, 53), faultQuery("x."))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Rcode != dnswire.RcodeServFail {
		t.Errorf("rcode = %s, want SERVFAIL", resp.Rcode)
	}
}

func TestFaultFlakyEveryN(t *testing.T) {
	n := NewMemNetwork(1)
	addr := netip.MustParseAddr("192.0.2.1")
	n.Register(addr, echoHandler(dnswire.RcodeNoError))
	n.SetFault(addr, FaultProfile{FlakyEveryN: 3})
	server := netip.AddrPortFrom(addr, 53)
	// Repeats of the same query tuple: attempts 1 and 2 drop, 3 answers.
	for i, wantErr := range []bool{true, true, false, true, true, false} {
		_, err := n.Exchange(context.Background(), server, faultQuery("flaky.test."))
		if wantErr && err != ErrTimeout {
			t.Fatalf("attempt %d: err = %v, want ErrTimeout", i+1, err)
		}
		if !wantErr && err != nil {
			t.Fatalf("attempt %d: err = %v, want success", i+1, err)
		}
	}
	// Distinct tuples keep independent sequences.
	if _, err := n.Exchange(context.Background(), server, faultQuery("other.test.")); err != ErrTimeout {
		t.Errorf("fresh tuple first attempt err = %v, want ErrTimeout", err)
	}
}

func TestFaultLossDeterministicAcrossNetworks(t *testing.T) {
	pattern := func(seed int64) []bool {
		n := NewMemNetwork(7)
		addr := netip.MustParseAddr("192.0.2.1")
		n.Register(addr, echoHandler(dnswire.RcodeNoError))
		n.SetChaosSeed(seed)
		n.SetFault(addr, FaultProfile{Loss: 0.5})
		var out []bool
		for i := 0; i < 64; i++ {
			_, err := n.Exchange(context.Background(), netip.AddrPortFrom(addr, 53), faultQuery("det.test."))
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

func TestFaultTruncateAlwaysForcesTCP(t *testing.T) {
	n := NewMemNetwork(1)
	addr := netip.MustParseAddr("192.0.2.1")
	n.Register(addr, echoHandler(dnswire.RcodeNoError))
	n.SetFault(addr, FaultProfile{TruncateAlways: true})
	resp, err := n.Exchange(context.Background(), netip.AddrPortFrom(addr, 53), faultQuery("x."))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Truncated {
		t.Error("TCP retry still truncated")
	}
	if q, _, _ := n.Stats(); q != 2 {
		t.Errorf("queries = %d, want 2 (forced UDP truncation + TCP retry)", q)
	}
}

func TestFaultAddressOverridesDefault(t *testing.T) {
	n := NewMemNetwork(1)
	pinned := netip.MustParseAddr("198.51.100.20")
	elsewhere := netip.MustParseAddr("203.0.113.1")
	for _, a := range []netip.Addr{pinned, elsewhere} {
		n.Register(a, echoHandler(dnswire.RcodeNoError))
	}
	n.SetDefaultFault(FaultProfile{ServFail: true})
	n.SetFault(pinned, FaultProfile{Down: true})
	exchange := func(a netip.Addr) (*dnswire.Message, error) {
		return n.Exchange(context.Background(), netip.AddrPortFrom(a, 53), faultQuery("x."))
	}

	if resp, err := exchange(elsewhere); err != nil || resp.Rcode != dnswire.RcodeServFail {
		t.Errorf("default profile not applied: %v, %v", resp, err)
	}
	if _, err := exchange(pinned); err != ErrUnreachable {
		t.Errorf("address profile did not win over the default: err = %v", err)
	}
	// Clearing the default exposes unmatched addresses again.
	n.SetDefaultFault(FaultProfile{})
	if resp, err := exchange(elsewhere); err != nil || resp.Rcode != dnswire.RcodeNoError {
		t.Errorf("cleared default still active: %v, %v", resp, err)
	}
}

func TestFaultExtraLatencyRespectsDeadline(t *testing.T) {
	n := NewMemNetwork(1)
	addr := netip.MustParseAddr("192.0.2.1")
	n.Register(addr, echoHandler(dnswire.RcodeNoError))
	n.SetFault(addr, FaultProfile{ExtraLatency: 200 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := n.Exchange(ctx, netip.AddrPortFrom(addr, 53), faultQuery("x.")); err != ErrTimeout {
		t.Errorf("slow server within short deadline: err = %v, want ErrTimeout", err)
	}
}

func TestFaultInjectedDropsCounter(t *testing.T) {
	n := NewMemNetwork(1)
	addr := netip.MustParseAddr("192.0.2.1")
	n.Register(addr, echoHandler(dnswire.RcodeNoError))
	n.SetFault(addr, FaultProfile{FlakyEveryN: 2})
	server := netip.AddrPortFrom(addr, 53)
	drops := 0
	for i := 0; i < 4; i++ {
		if _, err := n.Exchange(context.Background(), server, faultQuery("x.")); err == ErrTimeout {
			drops++
		}
	}
	if drops != 2 {
		t.Errorf("%d of 4 exchanges dropped, want 2", drops)
	}
}
