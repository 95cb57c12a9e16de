package scan

import (
	"context"
	"errors"
	"hash/fnv"
	"io"
	"net/netip"
	"time"

	"dnssecboot/internal/dnssec"
	"dnssecboot/internal/dnswire"
	"dnssecboot/internal/resolver"
	"dnssecboot/internal/transport"
	"dnssecboot/internal/zone"
)

// Config parameterises a Scanner.
type Config struct {
	// Resolver performs all lookups (and carries rate limits).
	Resolver *resolver.Resolver
	// Now anchors DNSSEC validity checks.
	Now time.Time
	// Concurrency is the number of parallel zone scans in ScanStream.
	// Zero means 8.
	Concurrency int
	// SampleSuffixes lists NS-hostname suffixes whose address pools are
	// sampled rather than exhaustively queried — the paper's Cloudflare
	// optimisation (§3). For matching zones only one IPv4 and one IPv6
	// address are queried, except for FullScanFraction of zones.
	SampleSuffixes []string
	// FullScanFraction is the fraction of sampled-operator zones still
	// scanned exhaustively (the paper used 5 %).
	FullScanFraction float64
	// ProbeSignals enables RFC 9615 signalling-name probes.
	ProbeSignals bool
	// SignalOnlyCandidates restricts signal probes to zones that are
	// signed or publish CDS — the short-circuit a registry would apply
	// (Appendix D).
	SignalOnlyCandidates bool
	// TrustAnchor optionally pins the root keys (see Validator).
	TrustAnchor []dnswire.RR
	// Seed makes sampling decisions deterministic.
	Seed int64
	// Retry, when non-nil, is installed on the Resolver so every scan
	// query retries transient failures (timeouts, SERVFAIL) — the
	// resilience a lossy network demands. Nil leaves the Resolver's own
	// policy (possibly none) in place.
	Retry *resolver.RetryPolicy
	// ProgressWriter, when non-nil, receives live progress lines
	// (zones/s, ETA, error rate) from ScanStream every ProgressInterval
	// (default 2 s).
	ProgressWriter   io.Writer
	ProgressInterval time.Duration
}

// Scanner runs measurement scans.
type Scanner struct {
	cfg Config
	val *Validator
}

// New creates a Scanner.
func New(cfg Config) *Scanner {
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 8
	}
	if cfg.Now.IsZero() {
		cfg.Now = time.Now()
	}
	if cfg.Retry != nil && cfg.Resolver != nil {
		cfg.Resolver.Retry = cfg.Retry
	}
	return &Scanner{
		cfg: cfg,
		val: &Validator{R: cfg.Resolver, Now: cfg.Now, TrustAnchor: cfg.TrustAnchor},
	}
}

// Validator exposes the scanner's chain validator (shared cache).
func (s *Scanner) Validator() *Validator { return s.val }

// ScanZone performs the full per-zone measurement.
func (s *Scanner) ScanZone(ctx context.Context, zoneName string) *ZoneObservation {
	zoneName = dnswire.CanonicalName(zoneName)
	zo := &ZoneObservation{Zone: zoneName}
	ctx, stats := resolver.WithQueryStats(ctx, zoneName)
	defer func() {
		zo.Cost = Cost{
			Queries:     stats.Queries.Load(),
			Retries:     stats.Retries.Load(),
			GaveUp:      stats.GaveUp.Load(),
			CacheHits:   stats.CacheHits.Load(),
			CacheMisses: stats.CacheMisses.Load(),
			Coalesced:   stats.Coalesced.Load(),
		}
	}()

	d, err := s.cfg.Resolver.Delegation(ctx, zoneName)
	if err != nil {
		zo.ResolveErr = err.Error()
		return zo
	}
	zo.ParentZone = d.ParentZone
	zo.ParentNS = d.NSHosts()
	zo.DS = d.DS
	zo.DSSigs = d.DSSigs

	// Resolve every NS host to its addresses.
	var pairsBuf [8]hostAddr
	pairs := s.nsAddrs(ctx, pairsBuf[:0], zo.ParentNS, d.Glue)
	if len(pairs) == 0 {
		zo.ResolveErr = "no reachable nameserver addresses"
		return zo
	}

	// Baseline queries against the first responsive server: SOA
	// (liveness), apex NS (child view), DNSKEY. The accepted SOA answer
	// is kept: chain validation checks its signatures rather than asking
	// the same server the same question again.
	var alive *hostAddr
	var soaResp *dnswire.Message
	for i := range pairs {
		resp, err := s.exchange(ctx, pairs[i].addr, zoneName, dnswire.TypeSOA)
		if err != nil || resp.Rcode == dnswire.RcodeServFail {
			continue
		}
		alive, soaResp = &pairs[i], resp
		break
	}
	if alive == nil {
		zo.ResolveErr = "no nameserver answered SOA"
		return zo
	}
	if resp, err := s.exchange(ctx, alive.addr, zoneName, dnswire.TypeNS); err == nil {
		for _, rr := range resp.Answer {
			if ns, ok := rr.Data.(*dnswire.NS); ok && dnswire.CanonicalName(rr.Name) == zoneName {
				if zo.ChildNS == nil {
					zo.ChildNS = make([]string, 0, len(resp.Answer))
				}
				zo.ChildNS = append(zo.ChildNS, ns.Target)
			}
		}
	}
	if resp, err := s.exchange(ctx, alive.addr, zoneName, dnswire.TypeDNSKEY); err == nil {
		for _, rr := range resp.Answer {
			switch rd := rr.Data.(type) {
			case *dnswire.DNSKEY:
				zo.DNSKEY = append(zo.DNSKEY, rr)
			case *dnswire.RRSIG:
				if rd.TypeCovered == dnswire.TypeDNSKEY {
					zo.DNSKEYSigs = append(zo.DNSKEYSigs, rr)
				}
			}
		}
	}

	// Per-NS CDS queries, with the sampling optimisation.
	selected := pairs
	if s.sampled(zoneName, zo.ParentNS) {
		selected = samplePairs(pairs)
		zo.SampledNS = len(selected) < len(pairs)
	}
	zo.PerNS = make([]NSObservation, 0, len(selected))
	for _, p := range selected {
		zo.PerNS = append(zo.PerNS, s.observeNS(ctx, zoneName, p.host, p.addr))
	}

	// Chain validation: DS → DNSKEY, then the SOA RRset under those
	// keys (the zone-passes-validation check).
	if zo.IsSigned() && zo.HasDS() {
		err := dnssec.VerifyChainLink(zoneName, zo.DS, zo.DNSKEY, zo.DNSKEYSigs, s.cfg.Now)
		if err == nil {
			err = s.verifyApexSOA(soaResp, zo.DNSKEY)
		}
		if err != nil {
			zo.ChainErr = err.Error()
		} else {
			zo.ChainValid = true
		}
	} else if zo.IsSigned() {
		// Secure island: still check internal consistency so classify
		// can distinguish well-signed islands from broken ones.
		err := dnssec.VerifyRRset(zo.DNSKEY, zo.DNSKEYSigs, zo.DNSKEY, s.cfg.Now)
		if err == nil {
			err = s.verifyApexSOA(soaResp, zo.DNSKEY)
		}
		if err != nil {
			zo.ChainErr = err.Error()
		} else {
			zo.ChainValid = true
		}
	}

	// RFC 9615 signal probes.
	if s.cfg.ProbeSignals && (!s.cfg.SignalOnlyCandidates || s.signalCandidate(zo)) {
		// Probe the union of parent- and child-side NS hosts: RFC 9615
		// requires signals under every NS, and disagreements between
		// the two views are exactly the Cloudflare misconfiguration the
		// paper reports (§4.4).
		hosts := zo.AllNSHosts()
		zo.allNS = hosts
		zo.Signals = make([]SignalObservation, 0, len(hosts))
		for _, host := range hosts {
			zo.Signals = append(zo.Signals, s.probeSignal(ctx, zoneName, host))
		}
		s.checkZoneCuts(ctx, zo)
	}
	return zo
}

func (s *Scanner) signalCandidate(obs *ZoneObservation) bool {
	if obs.IsSigned() {
		return true
	}
	for _, ns := range obs.PerNS {
		if len(ns.CombinedCDS()) > 0 {
			return true
		}
	}
	return false
}

// nsAddrs appends a (host, address) pair to dst for every address of
// each host: the delegation's glue for it, or, for a host without
// glue, its resolved addresses.
func (s *Scanner) nsAddrs(ctx context.Context, dst []hostAddr, hosts []string, glue []dnswire.RR) []hostAddr {
	for _, host := range hosts {
		host = dnswire.CanonicalName(host)
		n := len(dst)
		for _, rr := range glue {
			if dnswire.CanonicalName(rr.Name) != host {
				continue
			}
			switch a := rr.Data.(type) {
			case *dnswire.A:
				dst = append(dst, hostAddr{host, a.Addr})
			case *dnswire.AAAA:
				dst = append(dst, hostAddr{host, a.Addr})
			}
		}
		if len(dst) > n {
			continue
		}
		if addrs, err := s.cfg.Resolver.AddrsOf(ctx, host); err == nil {
			for _, a := range addrs {
				dst = append(dst, hostAddr{host, a})
			}
		}
	}
	return dst
}

// sampled decides whether this zone's NS pool is subject to sampling:
// every NS host must match a sample suffix, and the zone must not fall
// into the full-scan fraction.
func (s *Scanner) sampled(zoneName string, hosts []string) bool {
	if len(s.cfg.SampleSuffixes) == 0 || len(hosts) == 0 {
		return false
	}
	for _, h := range hosts {
		matched := false
		for _, suf := range s.cfg.SampleSuffixes {
			if dnswire.IsSubdomain(h, suf) {
				matched = true
				break
			}
		}
		if !matched {
			return false
		}
	}
	// The seed bytes must enter the hash BEFORE the zone name. FNV-64a
	// is h = (h0 ^ b0)·p ... — appending the seed last leaves the
	// difference between two seeds' hashes a small constant times p^8,
	// so switching seeds flipped far fewer decisions than independent
	// draws would (measured: 31% of zones at F=0.5, expected ~50%).
	// Seeding first re-mixes every zone-name byte through a different
	// initial state, decorrelating the sampled sets across seeds.
	h := fnv.New64a()
	var seed [8]byte
	for i := range seed {
		seed[i] = byte(s.cfg.Seed >> (8 * i))
	}
	h.Write(seed[:])
	h.Write([]byte(zoneName))
	frac := float64(h.Sum64()%10000) / 10000
	return frac >= s.cfg.FullScanFraction
}

// hostAddr is one (nameserver hostname, address) pair to query.
type hostAddr struct {
	host string
	addr netip.Addr
}

// samplePairs keeps one IPv4 and one IPv6 address overall — the
// paper's reduced Cloudflare scan shape ("1 IPv4 and 1 IPv6").
func samplePairs(pairs []hostAddr) []hostAddr {
	var out []hostAddr
	got4, got6 := false, false
	for _, p := range pairs {
		switch {
		case p.addr.Is4() && !got4:
			out = append(out, p)
			got4 = true
		case p.addr.Is6() && !got6:
			out = append(out, p)
			got6 = true
		}
		if got4 && got6 {
			break
		}
	}
	if len(out) == 0 {
		return pairs
	}
	return out
}

func (s *Scanner) observeNS(ctx context.Context, zoneName, host string, addr netip.Addr) NSObservation {
	ns := NSObservation{Host: host, Addr: addr}
	ns.CDS, ns.CDSSigs, ns.CDSOutcome = s.queryCDS(ctx, addr, zoneName, dnswire.TypeCDS)
	ns.CDNSKEY, ns.CDNSKEYSigs, ns.CDNSKEYOutcome = s.queryCDS(ctx, addr, zoneName, dnswire.TypeCDNSKEY)
	return ns
}

func (s *Scanner) queryCDS(ctx context.Context, addr netip.Addr, zoneName string, typ dnswire.Type) ([]dnswire.RR, []dnswire.RR, Outcome) {
	resp, err := s.exchange(ctx, addr, zoneName, typ)
	if err != nil {
		// Only genuine silence is a timeout. Everything else — a
		// malformed response, SERVFAIL exhausted through retries, a
		// cancelled context — is a server/protocol failure; lumping it
		// into the timeout bucket inflated the timeout share of Table 2.
		switch {
		case errors.Is(err, transport.ErrUnreachable):
			return nil, nil, OutcomeUnreachable
		case errors.Is(err, transport.ErrTimeout):
			return nil, nil, OutcomeTimeout
		default:
			return nil, nil, OutcomeError
		}
	}
	switch resp.Rcode {
	case dnswire.RcodeNoError:
	case dnswire.RcodeNXDomain:
		return nil, nil, OutcomeNXDomain
	default:
		return nil, nil, OutcomeError
	}
	var records, sigs []dnswire.RR
	for _, rr := range resp.Answer {
		if rr.Type() == typ && dnswire.CanonicalName(rr.Name) == zoneName {
			records = append(records, rr)
		}
		if sig, ok := rr.Data.(*dnswire.RRSIG); ok && sig.TypeCovered == typ {
			sigs = append(sigs, rr)
		}
	}
	if len(records) == 0 {
		return nil, nil, OutcomeNoData
	}
	return records, sigs, OutcomeOK
}

func (s *Scanner) exchange(ctx context.Context, addr netip.Addr, name string, typ dnswire.Type) (*dnswire.Message, error) {
	return s.cfg.Resolver.Exchange(ctx, netip.AddrPortFrom(addr, s.cfg.Resolver.Port()), name, typ)
}

// verifyApexSOA validates the apex SOA RRset in resp, the answer the
// liveness check accepted, under keys.
func (s *Scanner) verifyApexSOA(resp *dnswire.Message, keys []dnswire.RR) error {
	var soa, sigs []dnswire.RR
	for _, rr := range resp.Answer {
		switch rd := rr.Data.(type) {
		case *dnswire.SOA:
			soa = append(soa, rr)
		case *dnswire.RRSIG:
			if rd.TypeCovered == dnswire.TypeSOA {
				sigs = append(sigs, rr)
			}
		}
	}
	if len(soa) == 0 {
		return errors.New("scan: no SOA in apex answer")
	}
	return dnssec.VerifyRRset(soa, sigs, keys, s.cfg.Now)
}

// probeSignal fetches CDS/CDNSKEY at _dsboot.<child>._signal.<ns> and
// chain-validates what it finds. The two lookups are recorded
// individually (CDSOutcome, CDNSKEYOutcome); the aggregate Outcome is
// the worst of the two, so a partial failure (CDS answered, CDNSKEY
// timed out) is never masked by the success. An NXDOMAIN for CDS also
// answers CDNSKEY without a second lookup: it says the owner name does
// not exist, whatever the type (RFC 8020 §2). An owner that validated
// NSECs from earlier answers already prove absent is not asked at all.
func (s *Scanner) probeSignal(ctx context.Context, child, nsHost string) (so SignalObservation) {
	so.NSHost = nsHost
	owner, err := zone.SignalName(child, nsHost)
	if err != nil {
		so.NameTooLong = true
		so.Outcome = OutcomeError
		so.CDSOutcome = OutcomeError
		so.CDNSKEYOutcome = OutcomeError
		return so
	}
	so.Owner = owner
	if _, ok := s.val.denied(owner); ok {
		s.cfg.Resolver.NoteCacheHit(ctx)
		so.Outcome, so.CDSOutcome, so.CDNSKEYOutcome = OutcomeNXDomain, OutcomeNXDomain, OutcomeNXDomain
		return so
	}
	so.CDSOutcome = s.probeSignalType(ctx, &so, dnswire.TypeCDS)
	if so.CDSOutcome == OutcomeNXDomain {
		so.CDNSKEYOutcome = OutcomeNXDomain
	} else {
		so.CDNSKEYOutcome = s.probeSignalType(ctx, &so, dnswire.TypeCDNSKEY)
	}
	so.Outcome = aggregateSignalOutcome(so.CDSOutcome, so.CDNSKEYOutcome, len(so.Records) > 0)
	if len(so.Records) == 0 {
		return so
	}

	// RFC 9615 requires the signalling records to be DNSSEC-secure.
	byType := dnswire.GroupRRsets(so.Records)
	secure := true
	for _, set := range byType {
		var sigs []dnswire.RR
		for _, sig := range so.Sigs {
			if sig.Data.(*dnswire.RRSIG).TypeCovered == set[0].Type() {
				sigs = append(sigs, sig)
			}
		}
		if err := s.val.ValidateRRset(ctx, set, sigs); err != nil {
			secure = false
			so.ValidationErr = err.Error()
			break
		}
	}
	so.Secure = secure
	return so
}

// probeSignalType performs one CDS-or-CDNSKEY lookup at the signal
// owner, appending any records and signatures into so, and returns how
// that lookup ended. The NSECs of an NXDOMAIN answer go to the
// validator's denial store.
func (s *Scanner) probeSignalType(ctx context.Context, so *SignalObservation, typ dnswire.Type) Outcome {
	answer, rcode, err := s.cfg.Resolver.Lookup(ctx, so.Owner, typ)
	if err != nil {
		var nx *resolver.NXDomainError
		switch {
		case rcode == dnswire.RcodeNXDomain:
			if errors.As(err, &nx) {
				s.val.learnDenials(ctx, nx.Name, nx.Authority)
			}
			return OutcomeNXDomain
		case errors.Is(err, transport.ErrUnreachable):
			return OutcomeUnreachable
		case errors.Is(err, transport.ErrTimeout):
			return OutcomeTimeout
		default:
			return OutcomeError
		}
	}
	found := false
	for _, rr := range answer {
		if rr.Type() == typ && dnswire.CanonicalName(rr.Name) == so.Owner {
			so.Records = append(so.Records, rr)
			found = true
		}
		if sig, ok := rr.Data.(*dnswire.RRSIG); ok && sig.TypeCovered == typ {
			so.Sigs = append(so.Sigs, rr)
		}
	}
	if !found {
		return OutcomeNoData
	}
	return OutcomeOK
}

// aggregateSignalOutcome folds the two per-type outcomes into one. A
// failure or NXDOMAIN on either lookup dominates (the Outcome ordering
// ranks severity); otherwise the probe is OK when any records were
// found and NoData when both lookups came back empty — a signal zone
// publishing only CDS or only CDNSKEY is still a working signal.
func aggregateSignalOutcome(cds, cdnskey Outcome, haveRecords bool) Outcome {
	worst := cds
	if cdnskey > worst {
		worst = cdnskey
	}
	if worst.Failed() || worst == OutcomeNXDomain {
		return worst
	}
	if haveRecords {
		return OutcomeOK
	}
	return OutcomeNoData
}

// checkZoneCuts looks for zone cuts inside signal zones, which RFC 9615
// forbids. It only runs when at least one signal observation found
// records (the interesting zones), and probes the intermediate names
// between each _signal.<ns> apex and the record owner with NS queries.
func (s *Scanner) checkZoneCuts(ctx context.Context, obs *ZoneObservation) {
	any := false
	for _, so := range obs.Signals {
		if len(so.Records) > 0 {
			any = true
			break
		}
	}
	if !any {
		return
	}
	for i := range obs.Signals {
		so := &obs.Signals[i]
		if so.Owner == "" {
			continue
		}
		apex := zone.SignalZoneName(so.NSHost)
		for _, name := range intermediateNames(so.Owner, apex) {
			answer, _, err := s.cfg.Resolver.Lookup(ctx, name, dnswire.TypeNS)
			if err != nil {
				continue // NXDOMAIN / timeout: no cut evidence here
			}
			for _, rr := range answer {
				if rr.Type() == dnswire.TypeNS && dnswire.CanonicalName(rr.Name) == name {
					so.ZoneCut = true
				}
			}
			if so.ZoneCut {
				break
			}
		}
	}
}

// intermediateNames lists the names strictly between owner and apex
// (exclusive on both ends), deepest first.
func intermediateNames(owner, apex string) []string {
	owner, apex = dnswire.CanonicalName(owner), dnswire.CanonicalName(apex)
	var out []string
	for n := dnswire.Parent(owner); n != apex && n != "." && dnswire.IsSubdomain(n, apex); n = dnswire.Parent(n) {
		out = append(out, n)
	}
	return out
}
