package scan

import (
	"context"
	"errors"
	"net/netip"
	"testing"
	"time"

	"dnssecboot/internal/dnswire"
	"dnssecboot/internal/resolver"
	"dnssecboot/internal/server"
	"dnssecboot/internal/transport"
	"dnssecboot/internal/zone"
)

// handlerFunc adapts a function to transport.Handler.
type handlerFunc func(ctx context.Context, local netip.Addr, query *dnswire.Message) (*dnswire.Message, error)

func (f handlerFunc) HandleDNS(ctx context.Context, local netip.Addr, query *dnswire.Message) (*dnswire.Message, error) {
	return f(ctx, local, query)
}

// faultScanner wires a scanner to a single authoritative address so the
// per-NS CDS query path can be driven against scripted faults.
func faultScanner(t *testing.T) (*transport.MemNetwork, *Scanner, netip.Addr) {
	t.Helper()
	addr := netip.MustParseAddr("192.0.2.99")
	z := zone.New("example.com.")
	z.SetBasics("ns1.example.com.", []string{"ns1.example.com."}, 1)
	srv := server.New(1)
	srv.AddZone(z)
	net := transport.NewMemNetwork()
	net.Register(addr, srv)
	r := &resolver.Resolver{Net: net, Roots: []netip.AddrPort{netip.AddrPortFrom(addr, 53)}}
	return net, New(Config{Resolver: r, Now: time.Unix(1_750_000_000, 0)}), addr
}

// TestQueryCDSOutcomePerErrorKind pins the outcome taxonomy of the
// per-NS CDS query. Pre-fix, every non-unreachable error — including a
// malformed response — was recorded as OutcomeTimeout, inflating the
// timeout share of Table 2.
func TestQueryCDSOutcomePerErrorKind(t *testing.T) {
	type setup func(s *Scanner, net *transport.MemNetwork, addr netip.Addr)
	faulty := func(p transport.FaultProfile) setup {
		return func(s *Scanner, n *transport.MemNetwork, _ netip.Addr) {
			s.cfg.Resolver.Net = &transport.Faults{Inner: n, Profile: p, Seed: 1}
		}
	}
	cases := []struct {
		name  string
		setup setup
		want  Outcome
	}{
		{
			name:  "host down",
			setup: faulty(transport.FaultProfile{Down: true}),
			want:  OutcomeUnreachable,
		},
		{
			name:  "query dropped",
			setup: faulty(transport.FaultProfile{Loss: 1}),
			want:  OutcomeTimeout,
		},
		{
			name:  "servfail",
			setup: faulty(transport.FaultProfile{ServFail: true}),
			want:  OutcomeError,
		},
		{
			// The regression: a server whose response cannot be parsed
			// (handler error) is a protocol failure, not a timeout.
			name: "malformed response",
			setup: func(_ *Scanner, n *transport.MemNetwork, a netip.Addr) {
				n.Register(a, handlerFunc(func(context.Context, netip.Addr, *dnswire.Message) (*dnswire.Message, error) {
					return nil, errors.New("malformed response")
				}))
			},
			want: OutcomeError,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net, s, addr := faultScanner(t)
			tc.setup(s, net, addr)
			_, _, outcome := s.queryCDS(context.Background(), addr, "example.com.", dnswire.TypeCDS)
			if outcome != tc.want {
				t.Errorf("outcome = %s, want %s", outcome, tc.want)
			}
		})
	}
}

// signalWorld hosts a signal zone with both CDS and CDNSKEY records on
// one address, with a switchable drop for one record type so exactly
// one of probeSignal's two lookups can be failed.
func signalWorld(t *testing.T, dropType dnswire.Type) (*Scanner, string, string) {
	t.Helper()
	addr := netip.MustParseAddr("192.0.2.77")
	child, nsHost := "example.com.", "ns1.example.net."
	owner, err := zone.SignalName(child, nsHost)
	if err != nil {
		t.Fatal(err)
	}

	sigZone := zone.New(zone.SignalZoneName(nsHost))
	sigZone.SetBasics("ns.root.", []string{"ns.root."}, 1)
	sigZone.MustAdd(dnswire.RR{Name: owner, TTL: 60, Data: &dnswire.CDS{DS: dnswire.DS{
		KeyTag: 4711, Algorithm: dnswire.AlgEd25519, DigestType: dnswire.DigestSHA256, Digest: make([]byte, 32)}}})
	sigZone.MustAdd(dnswire.RR{Name: owner, TTL: 60, Data: &dnswire.CDNSKEY{DNSKEY: dnswire.DNSKEY{
		Flags: dnswire.DNSKEYFlagZone, Protocol: 3, Algorithm: dnswire.AlgEd25519, PublicKey: make([]byte, 32)}}})
	srv := server.New(1)
	srv.AddZone(sigZone)

	net := transport.NewMemNetwork()
	net.Register(addr, handlerFunc(func(ctx context.Context, local netip.Addr, q *dnswire.Message) (*dnswire.Message, error) {
		if len(q.Question) == 1 && q.Question[0].Type == dropType {
			return nil, nil // silent drop → client-side timeout
		}
		return srv.HandleDNS(ctx, local, q)
	}))
	r := &resolver.Resolver{Net: net, Roots: []netip.AddrPort{netip.AddrPortFrom(addr, 53)}}
	s := New(Config{Resolver: r, Now: time.Unix(1_750_000_000, 0)})
	return s, child, nsHost
}

// TestProbeSignalPartialFailure drops exactly one of the probe's two
// lookups. Pre-fix a single Outcome field was overwritten by whichever
// lookup ran last, so a CDS timeout followed by a clean CDNSKEY answer
// reported the probe as fully successful.
func TestProbeSignalPartialFailure(t *testing.T) {
	t.Run("CDS dropped", func(t *testing.T) {
		s, child, nsHost := signalWorld(t, dnswire.TypeCDS)
		so, _, _ := s.probeSignal(context.Background(), child, nsHost)
		if so.CDSOutcome != OutcomeTimeout {
			t.Errorf("CDSOutcome = %s, want %s", so.CDSOutcome, OutcomeTimeout)
		}
		if so.CDNSKEYOutcome != OutcomeOK {
			t.Errorf("CDNSKEYOutcome = %s, want %s", so.CDNSKEYOutcome, OutcomeOK)
		}
		// The aggregate must surface the partial failure (pre-fix: OK).
		if so.Outcome != OutcomeTimeout {
			t.Errorf("Outcome = %s, want %s (partial failure masked)", so.Outcome, OutcomeTimeout)
		}
		if len(so.Records) == 0 {
			t.Error("the successful CDNSKEY lookup should still contribute records")
		}
	})
	t.Run("CDNSKEY dropped", func(t *testing.T) {
		s, child, nsHost := signalWorld(t, dnswire.TypeCDNSKEY)
		so, _, _ := s.probeSignal(context.Background(), child, nsHost)
		if so.CDSOutcome != OutcomeOK || so.CDNSKEYOutcome != OutcomeTimeout {
			t.Errorf("per-type outcomes = %s/%s, want ok/timeout", so.CDSOutcome, so.CDNSKEYOutcome)
		}
		if so.Outcome != OutcomeTimeout {
			t.Errorf("Outcome = %s, want %s", so.Outcome, OutcomeTimeout)
		}
	})
	t.Run("nothing dropped", func(t *testing.T) {
		s, child, nsHost := signalWorld(t, 0)
		so, _, _ := s.probeSignal(context.Background(), child, nsHost)
		if so.CDSOutcome != OutcomeOK || so.CDNSKEYOutcome != OutcomeOK || so.Outcome != OutcomeOK {
			t.Errorf("outcomes = %s/%s/%s, want all ok", so.CDSOutcome, so.CDNSKEYOutcome, so.Outcome)
		}
		if len(so.Records) != 2 {
			t.Errorf("records = %d, want 2", len(so.Records))
		}
	})
}
