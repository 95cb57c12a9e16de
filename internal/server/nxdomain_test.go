package server_test

import (
	"context"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"dnssecboot/internal/dnssec"
	"dnssecboot/internal/dnswire"
	"dnssecboot/internal/ecosystem"
	"dnssecboot/internal/resolver"
	"dnssecboot/internal/scan"
	"dnssecboot/internal/server"
	"dnssecboot/internal/transport"
	"dnssecboot/internal/zone"
)

// provesAbsent applies the NXDOMAIN proof rule to an answer's
// authority section.
func provesAbsent(authority []dnswire.RR, qname string) bool {
	_, ok := dnssec.ProveNXDomain(qname, func(n string) (dnswire.RR, bool) { return dnssec.CoveringNSEC(authority, n) })
	return ok
}

func hasNSEC(rrs []dnswire.RR) bool {
	for _, rr := range rrs {
		if rr.Type() == dnswire.TypeNSEC {
			return true
		}
	}
	return false
}

// nxAudit is an Exchanger that checks every NSEC-signed NXDOMAIN
// answer passing through it against the proof rule.
type nxAudit struct {
	inner           transport.Exchanger
	mu              sync.Mutex
	signed, unruled int
	first           string
}

func (a *nxAudit) Exchange(ctx context.Context, srv netip.AddrPort, q *dnswire.Message) (*dnswire.Message, error) {
	resp, err := a.inner.Exchange(ctx, srv, q)
	if err != nil || resp.Rcode != dnswire.RcodeNXDomain || !hasNSEC(resp.Authority) {
		return resp, err
	}
	qname := q.Question[0].Name
	a.mu.Lock()
	defer a.mu.Unlock()
	a.signed++
	if !provesAbsent(resp.Authority, qname) {
		if a.unruled == 0 {
			a.first = qname
		}
		a.unruled++
	}
	return resp, err
}

// TestNXDOMAINAnswersProveAbsence scans the seed-1, scale-200000 world
// and holds every NSEC-signed NXDOMAIN answer to the proof rule: the
// NSEC covering the name and the one covering the wildcard at its
// closest encloser (RFC 4035 §3.1.3.2). Before the server sent the
// wildcard proof, 254 of the 2 999 such answers of a scan without the
// denial store lacked it.
func TestNXDOMAINAnswersProveAbsence(t *testing.T) {
	world, err := ecosystem.Generate(ecosystem.Config{Seed: 1, ScaleDivisor: 200_000})
	if err != nil {
		t.Fatal(err)
	}
	audit := &nxAudit{inner: world.Net}
	s := scan.New(scan.Config{
		Resolver:     &resolver.Resolver{Net: audit, Roots: world.Roots},
		Now:          world.Now,
		ProbeSignals: true,
		TrustAnchor:  world.TrustAnchor,
	})
	for _, z := range world.Targets {
		s.ScanZone(context.Background(), z)
	}
	if audit.signed < 100 {
		t.Fatalf("only %d NSEC-signed NXDOMAIN answers: vacuous world", audit.signed)
	}
	if audit.unruled > 0 {
		t.Errorf("%d of %d NSEC-signed NXDOMAIN answers do not prove their name absent, first %s",
			audit.unruled, audit.signed, audit.first)
	}
}

// fuzzOrigin is the zone FuzzNXDOMAINProof builds.
const fuzzOrigin = "z."

// fuzzName turns a fuzzed relative name into one under fuzzOrigin: at
// most four short labels of [a-z0-9_-], "*" allowed as the first.
func fuzzName(rel string) (string, bool) {
	rel = strings.Trim(strings.ToLower(rel), ".")
	if rel == "" {
		return fuzzOrigin, true
	}
	labels := strings.Split(rel, ".")
	if len(labels) > 4 {
		return "", false
	}
	for i, l := range labels {
		if l == "*" && i == 0 {
			continue
		}
		if l == "" || len(l) > 10 || strings.Trim(l, "abcdefghijklmnopqrstuvwxyz0123456789_-") != "" {
			return "", false
		}
	}
	return rel + "." + fuzzOrigin, true
}

// fuzzZone builds a zone from spec, one name per line, each optionally
// prefixed "NS " (a delegation) or "DNAME " (a redirection); other names
// hold a TXT record. Names may start with "*" (wildcards) and leave
// empty non-terminals above them. It reports the DNAME owners.
func fuzzZone(spec string) (z *zone.Zone, dnames []string) {
	z = zone.New(fuzzOrigin)
	z.SetBasics("ns.elsewhere.", []string{"ns.elsewhere."}, 1)
	for _, line := range strings.Split(spec, "\n") {
		kind, rel, ok := strings.Cut(line, " ")
		if !ok {
			kind, rel = "", line
		}
		name, ok := fuzzName(rel)
		if !ok || name == fuzzOrigin {
			continue
		}
		switch kind {
		case "NS":
			z.MustAdd(dnswire.RR{Name: name, TTL: 300, Data: dnswire.NewNS("ns.elsewhere.")})
		case "DNAME":
			dname := new(dnswire.DNAME)
			dname.Target = "elsewhere."
			z.MustAdd(dnswire.RR{Name: name, TTL: 300, Data: dname})
			dnames = append(dnames, name)
		default:
			z.MustAdd(dnswire.RR{Name: name, TTL: 300, Data: &dnswire.TXT{Strings: []string{"x"}}})
		}
	}
	return z, dnames
}

// FuzzNXDOMAINProof checks the NXDOMAIN proof rule against zones built
// and signed from fuzzed names: empty non-terminals, wildcards, NS cuts
// and DNAMEs.
//
//   - Soundness: when the rule accepts the zone's own NSECs for qname,
//     the name does not exist, no wildcard answers it, and it is not at
//     or below a cut. NSEC intervals in one chain are disjoint, so this
//     covers every subset of the records as well.
//   - Completeness: the server's own NXDOMAIN answer satisfies the rule.
//     Names below a DNAME are left out: the server does not synthesise
//     DNAME redirects, so its NXDOMAIN there is one no validator accepts.
func FuzzNXDOMAINProof(f *testing.F) {
	f.Add("www\nmail\n", "nope")
	f.Add("a.b.c\n*.d\n", "x.b.c")
	f.Add("*\nNS sub\nsub.deep\n", "q.sub")
	f.Add("_dsboot.a.com._signal.ns1\nNS cut._signal.ns1\n", "_dsboot.b.net._signal.ns1")
	f.Add("DNAME d\nd-x\n", "a.d")
	f.Add("x.e\n*.x.e\n", "a.x.e")

	keyZone := zone.New(fuzzOrigin)
	cfg := zone.SignConfig{Now: time.Date(2025, 4, 15, 12, 0, 0, 0, time.UTC), Algorithm: dnswire.AlgEd25519}
	if err := keyZone.GenerateKeys(cfg, nil); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, spec, rel string) {
		qname, ok := fuzzName(rel)
		if !ok {
			return
		}
		z, dnames := fuzzZone(spec)
		z.Keys = keyZone.Keys
		if err := z.Sign(cfg); err != nil {
			t.Fatal(err)
		}

		var nsecs []dnswire.RR
		for _, name := range z.Names() {
			nsecs = append(nsecs, z.RRset(name, dnswire.TypeNSEC)...)
		}
		if provesAbsent(nsecs, qname) {
			var r zone.Reader
			held := false
			z.Read(&r, qname, func() { held = r.Exists() || r.Wildcard() != "" || r.FindCut(qname) != "" })
			if held {
				t.Fatalf("rule denies %s, which exists, matches a wildcard or lies at or below a cut\n%s", qname, z.Text())
			}
		}

		srv := server.New(1)
		srv.AddZone(z)
		q := dnswire.NewQuery(1, qname, dnswire.TypeCDS)
		q.SetEDNS(dnswire.EDNS{UDPSize: dnswire.MaxUDPPayload, DO: true})
		resp, err := srv.HandleDNS(context.Background(), netip.MustParseAddr("192.0.2.53"), q)
		if err != nil || resp.Rcode != dnswire.RcodeNXDomain {
			return
		}
		for _, d := range dnames {
			if qname != d && dnswire.IsSubdomain(qname, d) {
				return
			}
		}
		if !provesAbsent(resp.Authority, qname) {
			t.Fatalf("server's NXDOMAIN for %s fails the rule\nauthority %v\n%s", qname, resp.Authority, z.Text())
		}
	})
}
