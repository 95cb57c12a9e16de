package scan_test

import (
	"context"
	"fmt"
	"net/netip"
	"sync"
	"testing"
	"time"

	"dnssecboot/internal/dnswire"
	"dnssecboot/internal/ecosystem"
	"dnssecboot/internal/resolver"
	"dnssecboot/internal/scan"
	"dnssecboot/internal/server"
	"dnssecboot/internal/transport"
	"dnssecboot/internal/zone"
)

// question is one exchange as the network saw it.
type question struct {
	server netip.AddrPort
	name   string
	qtype  dnswire.Type
	nx     bool // answered NXDOMAIN
}

func (q question) String() string { return fmt.Sprintf("%s %s/%s", q.server, q.name, q.qtype) }

// questionLog is an Exchanger that records every exchange passing
// through it, so a test can read one zone's questions.
type questionLog struct {
	inner transport.Exchanger
	mu    sync.Mutex
	asked []question
}

func (l *questionLog) Exchange(ctx context.Context, srv netip.AddrPort, q *dnswire.Message) (*dnswire.Message, error) {
	resp, err := l.inner.Exchange(ctx, srv, q)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.asked = append(l.asked, question{
		server: srv,
		name:   dnswire.CanonicalName(q.Question[0].Name),
		qtype:  q.Question[0].Type,
		nx:     err == nil && resp != nil && resp.Rcode == dnswire.RcodeNXDomain,
	})
	return resp, err
}

// take returns the exchanges logged so far and starts a new log.
func (l *questionLog) take() []question {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.asked
	l.asked = nil
	return out
}

// count reports how many logged exchanges asked (name, qtype).
func count(asked []question, name string, qtype dnswire.Type) int {
	n := 0
	for _, q := range asked {
		if q.name == name && q.qtype == qtype {
			n++
		}
	}
	return n
}

// wasted lists one zone's exchanges whose answer the scanner already
// held: a repeat of an earlier (server, qname, qtype), or any question
// about a qname that had answered NXDOMAIN, which holds for every type
// (RFC 8020 §2).
func wasted(asked []question) (repeats, afterNX []question) {
	seen := map[question]bool{}
	nx := map[string]bool{}
	for _, q := range asked {
		key := q
		key.nx = false
		switch {
		case nx[q.name]:
			afterNX = append(afterNX, q)
		case seen[key]:
			repeats = append(repeats, q)
		}
		seen[key] = true
		if q.nx {
			nx[q.name] = true
		}
	}
	return repeats, afterNX
}

// TestScanZoneAsksEachQuestionOnce scans a whole world one zone at a
// time and holds every zone to the rule that no question is asked whose
// answer the scan already has. Two questions broke it: the CDNSKEY probe
// after its owner answered NXDOMAIN for CDS, and the chain check's
// second apex SOA to the liveness server.
func TestScanZoneAsksEachQuestionOnce(t *testing.T) {
	world, err := ecosystem.Generate(ecosystem.Config{Seed: 1, ScaleDivisor: 200_000})
	if err != nil {
		t.Fatal(err)
	}
	log := &questionLog{inner: world.Net}
	s := scannerOn(world, log)
	ctx := context.Background()
	var repeats, afterNX []question
	exchanges, nxProbes := 0, 0
	for _, z := range world.Targets {
		log.take()
		zo := s.ScanZone(ctx, z)
		asked := log.take()
		exchanges += len(asked)
		r, a := wasted(asked)
		repeats, afterNX = append(repeats, r...), append(afterNX, a...)
		for _, so := range zo.Signals {
			if so.CDSOutcome == scan.OutcomeNXDomain {
				nxProbes++
			}
		}
	}
	if exchanges == 0 || nxProbes == 0 {
		t.Fatalf("vacuous world: %d exchanges, %d NXDOMAIN signal probes", exchanges, nxProbes)
	}
	if len(repeats) > 0 {
		t.Errorf("%d repeated questions, first %s", len(repeats), repeats[0])
	}
	if len(afterNX) > 0 {
		t.Errorf("%d questions to a name that had answered NXDOMAIN, first %s", len(afterNX), afterNX[0])
	}
}

// TestRootAskedEachDelegationOnce scans a whole world with one scanner
// and fails when a root server is asked the same NS question twice. A
// zone cut the resolver walked to find its servers is returned by
// Delegation from then on: the validator's chain walk used to ask the
// root for com./NS again after the delegation walk had.
func TestRootAskedEachDelegationOnce(t *testing.T) {
	world, err := ecosystem.Generate(ecosystem.Config{Seed: 1, ScaleDivisor: 200_000})
	if err != nil {
		t.Fatal(err)
	}
	log := &questionLog{inner: world.Net}
	s := scannerOn(world, log)
	for _, z := range world.Targets {
		s.ScanZone(context.Background(), z)
	}
	root := map[netip.AddrPort]bool{}
	for _, r := range world.Roots {
		root[r] = true
	}
	seen := map[question]bool{}
	for _, q := range log.take() {
		q.nx = false
		if !root[q.server] || q.qtype != dnswire.TypeNS {
			continue
		}
		if seen[q] {
			t.Errorf("root asked %s twice", q)
		}
		seen[q] = true
	}
	if len(seen) == 0 {
		t.Fatal("no NS question reached the root: vacuous world")
	}
}

// rowsNow is the clock of the one-server scans: signing and validation.
var rowsNow = time.Date(2025, 4, 15, 12, 0, 0, 0, time.UTC)

// oneServerScan serves example.com. from one address with the given
// quirks; edit adds to the zone before it is served. The zone's NS host
// lies inside it, so its signal zone does too.
func oneServerScan(t *testing.T, quirks server.Behavior, edit func(z *zone.Zone)) (*scan.Scanner, *questionLog) {
	t.Helper()
	addr := netip.MustParseAddr("192.0.2.60")
	z := zone.New("example.com.")
	z.SetBasics("ns1.example.com.", []string{"ns1.example.com."}, 1)
	z.MustAdd(dnswire.RR{Name: "ns1.example.com.", TTL: 300, Data: &dnswire.A{Addr: addr}})
	if edit != nil {
		edit(z)
	}
	srv := server.New(1)
	srv.Behavior = quirks
	srv.AddZone(z)
	net := transport.NewMemNetwork()
	net.Register(addr, srv)
	log := &questionLog{inner: net}
	return scan.New(scan.Config{
		Resolver:     &resolver.Resolver{Net: log, Roots: []netip.AddrPort{netip.AddrPortFrom(addr, 53)}},
		Now:          rowsNow,
		ProbeSignals: true,
	}), log
}

// signZone signs z; breakSOASig then corrupts the apex SOA's RRSIG only.
func signZone(t *testing.T, breakSOASig bool) func(z *zone.Zone) {
	return func(z *zone.Zone) {
		cfg := zone.SignConfig{Now: rowsNow, Algorithm: dnswire.AlgEd25519}
		if err := z.GenerateKeys(cfg, nil); err != nil {
			t.Fatal(err)
		}
		if err := z.Sign(cfg); err != nil {
			t.Fatal(err)
		}
		if !breakSOASig {
			return
		}
		sigs := z.RRset(z.Origin, dnswire.TypeRRSIG)
		z.RemoveSet(z.Origin, dnswire.TypeRRSIG)
		for _, rr := range sigs {
			if sig := rr.Data.(*dnswire.RRSIG); sig.TypeCovered == dnswire.TypeSOA {
				bad := *sig
				bad.Signature = append([]byte(nil), sig.Signature...)
				bad.Signature[0] ^= 0xFF
				rr.Data = &bad
			}
			z.MustAdd(rr)
		}
	}
}

// TestScanZoneQuestionRows pins the edges of the rule: what an answer
// does not tell the scanner is still asked.
func TestScanZoneQuestionRows(t *testing.T) {
	ctx := context.Background()
	owner, err := zone.SignalName("example.com.", "ns1.example.com.")
	if err != nil {
		t.Fatal(err)
	}

	t.Run("legacy server still gets the CDNSKEY probe", func(t *testing.T) {
		s, log := oneServerScan(t, server.Behavior{LegacyUnknownTypes: true}, nil)
		zo := s.ScanZone(ctx, "example.com.")
		asked := log.take()
		if len(zo.Signals) != 1 {
			t.Fatalf("signals = %+v", zo.Signals)
		}
		so := zo.Signals[0]
		if so.CDSOutcome != scan.OutcomeError || so.CDNSKEYOutcome != scan.OutcomeError {
			t.Errorf("outcomes = %s/%s, want error/error", so.CDSOutcome, so.CDNSKEYOutcome)
		}
		if n := count(asked, owner, dnswire.TypeCDNSKEY); n != 1 {
			t.Errorf("CDNSKEY probes after FORMERR for CDS = %d, want 1", n)
		}
	})

	t.Run("NXDOMAIN owner answers CDNSKEY too", func(t *testing.T) {
		s, log := oneServerScan(t, server.Behavior{}, nil)
		zo := s.ScanZone(ctx, "example.com.")
		asked := log.take()
		if len(zo.Signals) != 1 {
			t.Fatalf("signals = %+v", zo.Signals)
		}
		so := zo.Signals[0]
		if so.CDSOutcome != scan.OutcomeNXDomain || so.CDNSKEYOutcome != scan.OutcomeNXDomain || so.Outcome != scan.OutcomeNXDomain {
			t.Errorf("outcomes = %s/%s/%s, want nxdomain throughout", so.CDSOutcome, so.CDNSKEYOutcome, so.Outcome)
		}
		n := 0
		for _, q := range asked {
			if q.name == owner {
				n++
			}
		}
		if n != 1 {
			t.Errorf("exchanges to %s = %d, want 1", owner, n)
		}
	})

	for _, broken := range []bool{false, true} {
		t.Run(fmt.Sprintf("signed zone, broken SOA RRSIG %t", broken), func(t *testing.T) {
			s, log := oneServerScan(t, server.Behavior{}, signZone(t, broken))
			zo := s.ScanZone(ctx, "example.com.")
			asked := log.take()
			if !zo.IsSigned() {
				t.Fatal("zone not observed as signed")
			}
			if zo.ChainValid == broken || (zo.ChainErr != "") != broken {
				t.Errorf("ChainValid=%t ChainErr=%q, want valid=%t", zo.ChainValid, zo.ChainErr, !broken)
			}
			if n := count(asked, "example.com.", dnswire.TypeSOA); n != 1 {
				t.Errorf("apex SOA exchanges = %d, want 1", n)
			}
		})
	}
}
