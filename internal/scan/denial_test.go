package scan_test

import (
	"bytes"
	"context"
	"net/netip"
	"sync"
	"testing"
	"time"

	"dnssecboot/internal/dnssec"
	"dnssecboot/internal/dnswire"
	"dnssecboot/internal/resolver"
	"dnssecboot/internal/scan"
	"dnssecboot/internal/server"
	"dnssecboot/internal/transport"
	"dnssecboot/internal/zone"
)

// denialWorld is oneServerScan's world with a chain of trust: one
// address serves a signed root, a signed example.com. whose ns1 carries
// every target's signal names, and unsigned target zones delegated from
// the root to ns1.example.com.
type denialWorld struct {
	log *questionLog
}

// denialSetup shapes example.com.: edit runs before it is signed,
// tamper after. nsec3 signs it with NSEC3, and online serves it through
// an RFC 4470 online signer.
type denialSetup struct {
	quirks   server.Behavior
	unsigned bool
	nsec3    bool
	online   bool
	edit     func(z *zone.Zone)
	tamper   func(t *testing.T, z *zone.Zone)
}

const nsHost = "ns1.example.com."

func newDenialWorld(t *testing.T, setup denialSetup, targets ...string) *denialWorld {
	t.Helper()
	addr := netip.MustParseAddr("192.0.2.60")
	cfg := zone.SignConfig{Now: rowsNow, Algorithm: dnswire.AlgEd25519}
	exCfg := cfg
	exCfg.UseNSEC3 = setup.nsec3
	srv := server.New(1)
	srv.Behavior = setup.quirks

	ex := zone.New("example.com.")
	ex.SetBasics(nsHost, []string{nsHost}, 1)
	ex.MustAdd(dnswire.RR{Name: nsHost, TTL: 300, Data: &dnswire.A{Addr: addr}})
	if setup.edit != nil {
		setup.edit(ex)
	}
	root := zone.New(".")
	root.SetBasics(nsHost, []string{nsHost}, 1)
	root.MustAdd(dnswire.RR{Name: ex.Origin, TTL: 300, Data: dnswire.NewNS(nsHost)})
	root.MustAdd(dnswire.RR{Name: nsHost, TTL: 300, Data: &dnswire.A{Addr: addr}})
	if !setup.unsigned {
		if err := ex.GenerateKeys(exCfg, nil); err != nil {
			t.Fatal(err)
		}
		if err := ex.Sign(exCfg); err != nil {
			t.Fatal(err)
		}
		ds, err := dnssec.DSFromKey(ex.Origin, ex.Keys[0].DNSKEY(), dnswire.DigestSHA256)
		if err != nil {
			t.Fatal(err)
		}
		root.MustAdd(dnswire.RR{Name: ex.Origin, TTL: 300, Data: ds})
	}
	if setup.tamper != nil {
		setup.tamper(t, ex)
	}
	for _, name := range targets {
		z := zone.New(name)
		z.SetBasics(nsHost, []string{nsHost}, 1)
		srv.AddZone(z)
		root.MustAdd(dnswire.RR{Name: z.Origin, TTL: 300, Data: dnswire.NewNS(nsHost)})
	}
	if err := root.GenerateKeys(cfg, nil); err != nil {
		t.Fatal(err)
	}
	if err := root.Sign(cfg); err != nil {
		t.Fatal(err)
	}
	srv.AddZone(root)
	srv.AddZone(ex)
	net := transport.NewMemNetwork()
	net.Register(addr, srv)
	if setup.online {
		return &denialWorld{log: &questionLog{inner: &onlineSigner{t: t, inner: net, zone: ex}}}
	}
	return &denialWorld{log: &questionLog{inner: net}}
}

// onlineSigner answers like an RFC 4470 online signer: the NSEC of an
// NXDOMAIN from its zone is replaced by a freshly signed one whose
// interval holds only the name asked (its next name lies just below it).
type onlineSigner struct {
	t     *testing.T
	inner transport.Exchanger
	zone  *zone.Zone
}

func (o *onlineSigner) Exchange(ctx context.Context, srv netip.AddrPort, q *dnswire.Message) (*dnswire.Message, error) {
	resp, err := o.inner.Exchange(ctx, srv, q)
	qname := dnswire.CanonicalName(q.Question[0].Name)
	if err != nil || resp.Rcode != dnswire.RcodeNXDomain || !dnswire.IsSubdomain(qname, o.zone.Origin) {
		return resp, err
	}
	lies := *resp
	lies.Authority = nil
	for _, rr := range resp.Authority {
		switch d := rr.Data.(type) {
		case *dnswire.NSEC:
			lie := *d
			lie.NextDomain = dnswire.Join("0", qname)
			rr.Data = &lie
			sig, err := dnssec.SignRRset([]dnswire.RR{rr}, o.zone.Keys[len(o.zone.Keys)-1], dnssec.ValidityWindow(rowsNow, o.zone.Origin))
			if err != nil {
				o.t.Error(err)
			}
			lies.Authority = append(lies.Authority, rr, sig)
		case *dnswire.RRSIG:
			if d.TypeCovered != dnswire.TypeNSEC {
				lies.Authority = append(lies.Authority, rr)
			}
		default:
			lies.Authority = append(lies.Authority, rr)
		}
	}
	return &lies, nil
}

// scanner returns a scanner with nothing learned yet, on cache's clock
// (a private cache on the wall clock when cache is nil).
func (w *denialWorld) scanner(cache *resolver.Cache) *scan.Scanner {
	return scan.New(scan.Config{
		Resolver: &resolver.Resolver{Net: w.log, Cache: cache,
			Roots: []netip.AddrPort{netip.AddrPortFrom(netip.MustParseAddr("192.0.2.60"), 53)}},
		Now:          rowsNow,
		ProbeSignals: true,
	})
}

// probes counts the exchanges that asked about zoneName's signal name.
func probes(t *testing.T, asked []question, zoneName string) int {
	t.Helper()
	owner, err := zone.SignalName(zoneName, nsHost)
	if err != nil {
		t.Fatal(err)
	}
	return count(asked, owner, dnswire.TypeCDS) + count(asked, owner, dnswire.TypeCDNSKEY)
}

// scanAfter scans first and then second with one scanner, and returns
// second's observation, the exchanges its signal probe sent and every
// exchange of both scans. Its body must equal the one a scanner that
// learned nothing records.
func (w *denialWorld) scanAfter(t *testing.T, first, second string) (zo *scan.ZoneObservation, sent int, asked []question) {
	t.Helper()
	ctx := context.Background()
	s := w.scanner(nil)
	s.ScanZone(ctx, first)
	asked = w.log.take()
	if n := probes(t, asked, first); n == 0 {
		t.Fatalf("%s: signal name never asked", first)
	}
	zo = s.ScanZone(ctx, second)
	again := w.log.take()
	sent, asked = probes(t, again, second), append(asked, again...)
	if warm, cold := bodyOf(t, zo), bodyOf(t, w.scanner(nil).ScanZone(ctx, second)); !bytes.Equal(warm, cold) {
		t.Errorf("%s: body differs from a cold scan\nwarm %s\ncold %s", second, warm, cold)
	}
	w.log.take()
	return zo, sent, asked
}

// TestDenialStore holds the validated denial store to its rule: a probe
// is answered without a query only when validated NSECs prove its name
// absent, and the answer is the one the server would have given.
func TestDenialStore(t *testing.T) {
	ctx := context.Background()

	t.Run("covered probe sends nothing and matches a cold scan", func(t *testing.T) {
		w := newDenialWorld(t, denialSetup{}, "a.test.", "b.test.")
		zo, sent, _ := w.scanAfter(t, "a.test.", "b.test.")
		if sent != 0 {
			t.Errorf("covered probe sent %d exchanges, want 0", sent)
		}
		if so := zo.Signals[0]; so.Outcome != scan.OutcomeNXDomain || so.CDSOutcome != scan.OutcomeNXDomain || so.CDNSKEYOutcome != scan.OutcomeNXDomain {
			t.Errorf("outcomes = %s/%s/%s, want nxdomain throughout", so.Outcome, so.CDSOutcome, so.CDNSKEYOutcome)
		}

		// The denial is a cache hit in the zone's cost.
		if zo.CacheHits == 0 {
			t.Error("denied probe not counted in cost.cache_hits")
		}
	})

	// The §4.4 zone cut inside a signal zone: the parent's NSEC at the
	// cut says nothing about the names below it.
	t.Run("name below a delegation NSEC is probed", func(t *testing.T) {
		w := newDenialWorld(t, denialSetup{edit: func(z *zone.Zone) {
			z.MustAdd(dnswire.RR{Name: "test._signal." + nsHost, TTL: 300, Data: dnswire.NewNS(nsHost)})
		}}, "a.test-x.", "a.test.")
		_, sent, _ := w.scanAfter(t, "a.test-x.", "a.test.")
		if sent == 0 {
			t.Error("probe below the cut answered from the delegation NSEC")
		}
	})

	t.Run("DNAME NSEC is not used", func(t *testing.T) {
		w := newDenialWorld(t, denialSetup{edit: func(z *zone.Zone) {
			dname := new(dnswire.DNAME)
			dname.Target = "elsewhere.example.com."
			z.MustAdd(dnswire.RR{Name: "test._signal." + nsHost, TTL: 300, Data: dname})
		}}, "a.test-x.", "a.test.")
		_, sent, _ := w.scanAfter(t, "a.test-x.", "a.test.")
		if sent == 0 {
			t.Error("probe below the DNAME answered from its NSEC")
		}
	})

	// a.y.'s answer brings the NSEC *.x._signal… → example.com., which
	// also spans a.x.'s signal name; but that name's closest encloser
	// holds the wildcard, which answers it.
	t.Run("wildcard at the closest encloser blocks the denial", func(t *testing.T) {
		w := newDenialWorld(t, denialSetup{edit: func(z *zone.Zone) {
			z.MustAdd(dnswire.RR{Name: "*.x._signal." + nsHost, TTL: 300, Data: &dnswire.TXT{Strings: []string{"wildcard"}}})
		}}, "a.y.", "a.x.")
		zo, sent, _ := w.scanAfter(t, "a.y.", "a.x.")
		if sent == 0 {
			t.Error("probe under a wildcard answered from the store")
		}
		if so := zo.Signals[0]; so.CDSOutcome != scan.OutcomeNoData {
			t.Errorf("CDS outcome = %s, want nodata from the wildcard", so.CDSOutcome)
		}
	})

	// The NSEC learned from a.test.'s answer lives for the zone's
	// negative TTL (300 s, its SOA MINIMUM) on the resolver's clock.
	t.Run("learned NSEC expires with its TTL", func(t *testing.T) {
		w := newDenialWorld(t, denialSetup{}, "a.test.", "b.test.", "c.test.")
		var mu sync.Mutex
		now := time.Unix(1_000_000, 0)
		cache := resolver.NewCache(0)
		cache.SetClock(func() time.Time {
			mu.Lock()
			defer mu.Unlock()
			return now
		})
		advance := func(d time.Duration) {
			mu.Lock()
			defer mu.Unlock()
			now = now.Add(d)
		}
		s := w.scanner(cache)
		s.ScanZone(ctx, "a.test.")
		w.log.take()
		advance(299 * time.Second)
		s.ScanZone(ctx, "b.test.")
		if sent := probes(t, w.log.take(), "b.test."); sent != 0 {
			t.Errorf("probe within the TTL sent %d exchanges, want 0", sent)
		}
		advance(time.Second)
		zo := s.ScanZone(ctx, "c.test.")
		if sent := probes(t, w.log.take(), "c.test."); sent != 1 {
			t.Errorf("probe at the TTL sent %d exchanges, want the one NXDOMAIN", sent)
		}
		if so := zo.Signals[0]; so.CDSOutcome != scan.OutcomeNXDomain {
			t.Errorf("CDS outcome = %s, want nxdomain", so.CDSOutcome)
		}
	})

	for _, tc := range []struct {
		name  string
		setup denialSetup
		// validates: the scan checks the NSEC it could not use, which
		// costs the signer's DNSKEY lookup.
		validates bool
	}{
		{"corrupt NSEC RRSIGs are not learned", denialSetup{tamper: resignNSEC(false)}, true},
		{"expired NSEC RRSIGs are not learned", denialSetup{tamper: resignNSEC(true)}, true},
		{"unsigned zone teaches nothing", denialSetup{unsigned: true}, false},
		{"NSEC3 zone teaches nothing", denialSetup{nsec3: true}, false},
		{"online signer's white lies teach nothing", denialSetup{online: true}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newDenialWorld(t, tc.setup, "a.test.", "b.test.")
			_, sent, asked := w.scanAfter(t, "a.test.", "b.test.")
			if sent != 1 {
				t.Errorf("probe sent %d exchanges, want the one NXDOMAIN", sent)
			}
			if n := count(asked, "example.com.", dnswire.TypeDNSKEY); (n > 0) != tc.validates {
				t.Errorf("example.com./DNSKEY asked %d times, want validation %t", n, tc.validates)
			}
		})
	}

	t.Run("legacy FORMERR server keeps FORMERR", func(t *testing.T) {
		w := newDenialWorld(t, denialSetup{quirks: server.Behavior{LegacyUnknownTypes: true}}, "a.test.", "b.test.")
		zo, sent, _ := w.scanAfter(t, "a.test.", "b.test.")
		if sent != 2 {
			t.Errorf("probe sent %d exchanges, want CDS and CDNSKEY", sent)
		}
		if so := zo.Signals[0]; so.CDSOutcome != scan.OutcomeError || so.CDNSKEYOutcome != scan.OutcomeError {
			t.Errorf("outcomes = %s/%s, want error/error", so.CDSOutcome, so.CDNSKEYOutcome)
		}
	})
}

// resignNSEC replaces every NSEC signature of a signed zone with one
// that fails: a flipped signature byte, or an expired validity window.
func resignNSEC(expired bool) func(t *testing.T, z *zone.Zone) {
	return func(t *testing.T, z *zone.Zone) {
		t.Helper()
		zsk := z.Keys[len(z.Keys)-1]
		tampered := 0
		for _, name := range z.Names() {
			nsec := z.RRset(name, dnswire.TypeNSEC)
			if len(nsec) == 0 {
				continue
			}
			tampered++
			sigs := z.RRset(name, dnswire.TypeRRSIG)
			z.RemoveSet(name, dnswire.TypeRRSIG)
			for _, rr := range sigs {
				if rr.Data.(*dnswire.RRSIG).TypeCovered != dnswire.TypeNSEC {
					z.MustAdd(rr)
				}
			}
			opts := dnssec.ValidityWindow(rowsNow, z.Origin)
			if expired {
				opts = dnssec.ExpiredWindow(rowsNow, z.Origin)
			}
			sig, err := dnssec.SignRRset(nsec, zsk, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !expired {
				bad := *sig.Data.(*dnswire.RRSIG)
				bad.Signature = append([]byte(nil), bad.Signature...)
				bad.Signature[0] ^= 0xFF
				sig.Data = &bad
			}
			z.MustAdd(sig)
		}
		if tampered == 0 {
			t.Fatal("zone has no NSEC records to tamper with")
		}
	}
}
