// Package server implements an authoritative DNS server over any
// transport. It answers from internal/zone data with correct referral,
// NODATA, NXDOMAIN and DNSSEC (DO-bit) semantics, and supports the
// behaviour modes the paper observed in the wild: legacy servers that
// error on post-2003 record types (§4.2, "Lack of support for CDS"),
// flaky servers that intermittently drop queries or corrupt signatures
// (§4.4, deSEC's transient failures), RFC 8482 ANY refusal, and
// domain-parking servers that answer every name identically (§4.4, the
// Afternic zone-cut illusion).
package server

import (
	"context"
	"math/rand"
	"net/netip"
	"sort"
	"sync"

	"dnssecboot/internal/dnssec"
	"dnssecboot/internal/dnswire"
	"dnssecboot/internal/zone"
)

// Behavior selects server quirks. The zero value is a fully
// standards-compliant authoritative server.
type Behavior struct {
	// LegacyUnknownTypes makes the server return FORMERR for any
	// query type outside the classic pre-DNSSEC set, modelling
	// nameservers never updated for RFC 3597. The paper found 7.6 M
	// domains behind such servers.
	LegacyUnknownTypes bool
	// DropUnknownTypes makes the server silently drop such queries
	// instead (the other failure mode the paper reports).
	DropUnknownTypes bool
	// RefuseANY answers ANY queries with a minimal HINFO per RFC 8482,
	// as Cloudflare does.
	RefuseANY bool
	// ServfailRate is the probability of answering SERVFAIL
	// regardless of the question (transient failures).
	ServfailRate float64
	// DropRate is the probability of silently dropping a query.
	DropRate float64
	// CorruptSigRate is the probability that RRSIGs in a response are
	// corrupted, modelling deSEC's transient invalid signatures.
	CorruptSigRate float64
	// MinimalResponses suppresses additional-section glue except where
	// required for in-bailiwick referrals.
	MinimalResponses bool
}

// Server is an authoritative DNS server holding any number of zones.
// It implements transport.Handler.
type Server struct {
	Behavior

	mu    sync.RWMutex
	zones map[string]*zone.Zone

	rngMu sync.Mutex
	rng   *rand.Rand
}

// New creates an empty server with deterministic behaviour randomness.
func New(seed int64) *Server {
	return &Server{
		zones: make(map[string]*zone.Zone),
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// AddZone makes the server authoritative for z.
func (s *Server) AddZone(z *zone.Zone) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.zones[z.Origin] = z
}

// RemoveZone drops authority for origin.
func (s *Server) RemoveZone(origin string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.zones, dnswire.CanonicalName(origin))
}

// Zone returns the zone exactly matching origin, or nil.
func (s *Server) Zone(origin string) *zone.Zone {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.zones[dnswire.CanonicalName(origin)]
}

// Zones lists the origins the server is authoritative for, sorted.
func (s *Server) Zones() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.zones))
	for o := range s.zones {
		out = append(out, o)
	}
	sort.Strings(out)
	return out
}

// findZone returns the most-specific zone whose origin encloses qname.
// A child zone hosted alongside its parent wins for names under it.
// Lookup walks the name's ancestor chain, so it is O(labels) even when
// the server hosts hundreds of thousands of zones.
func (s *Server) findZone(qname string, qtype dnswire.Type) *zone.Zone {
	s.mu.RLock()
	defer s.mu.RUnlock()
	name := dnswire.CanonicalName(qname)
	if qtype == dnswire.TypeDS && name != "." {
		// DS records live on the parent side of a zone cut: when the
		// server hosts both parent and child, the child's apex must not
		// capture its own DS query (RFC 4035 §3.1.4.1).
		if _, hostsChild := s.zones[name]; hostsChild {
			name = dnswire.Parent(name)
		}
	}
	for ; ; name = dnswire.Parent(name) {
		if z, ok := s.zones[name]; ok {
			return z
		}
		if name == "." {
			return nil
		}
	}
}

func (s *Server) chance(p float64) bool {
	if p <= 0 {
		return false
	}
	s.rngMu.Lock()
	defer s.rngMu.Unlock()
	return s.rng.Float64() < p
}

var classicTypes = map[dnswire.Type]bool{
	dnswire.TypeA: true, dnswire.TypeNS: true, dnswire.TypeCNAME: true,
	dnswire.TypeSOA: true, dnswire.TypePTR: true, dnswire.TypeMX: true,
	dnswire.TypeTXT: true, dnswire.TypeAAAA: true, dnswire.TypeSRV: true,
	dnswire.TypeANY: true,
}

// HandleDNS implements transport.Handler.
func (s *Server) HandleDNS(ctx context.Context, local netip.Addr, q *dnswire.Message) (*dnswire.Message, error) {
	if len(q.Question) != 1 || q.Opcode != dnswire.OpcodeQuery || q.Response {
		return reply(q, dnswire.RcodeFormErr), nil
	}
	if s.chance(s.DropRate) {
		return nil, nil // silent drop → client timeout
	}
	if s.chance(s.ServfailRate) {
		return reply(q, dnswire.RcodeServFail), nil
	}
	question := q.Question[0]
	qname := dnswire.CanonicalName(question.Name)
	qtype := question.Type

	if (s.LegacyUnknownTypes || s.DropUnknownTypes) && !classicTypes[qtype] {
		if s.DropUnknownTypes {
			return nil, nil
		}
		return reply(q, dnswire.RcodeFormErr), nil
	}
	if s.RefuseANY && qtype == dnswire.TypeANY {
		m := reply(q, dnswire.RcodeNoError)
		m.Authoritative = true
		// RFC 8482 §4.2: a synthesised HINFO with CPU "RFC8482".
		m.Answer = append(m.Answer, dnswire.RR{
			Name: qname, Class: dnswire.ClassIN, TTL: 3789,
			Data: &dnswire.Generic{T: dnswire.Type(13), Octets: hinfoRFC8482},
		})
		return s.finish(q, m), nil
	}

	z := s.findZone(qname, qtype)
	if z == nil {
		return reply(q, dnswire.RcodeRefused), nil
	}
	m := s.answerFromZone(z, qname, qtype, q.DNSSECOK())
	return s.finish(q, m), nil
}

// hinfoRFC8482 is the wire RDATA of `HINFO "RFC8482" ""`.
var hinfoRFC8482 = []byte{7, 'R', 'F', 'C', '8', '4', '8', '2', 0}

func (s *Server) answerFromZone(z *zone.Zone, qname string, qtype dnswire.Type, do bool) *dnswire.Message {
	m := &dnswire.Message{Response: true, Authoritative: true}

	// DS at a zone cut is answered authoritatively by the parent
	// (RFC 4035 §3.1.4.1), never as a referral.
	if qtype == dnswire.TypeDS && z.DelegationAt(qname) {
		if ds := z.RRset(qname, dnswire.TypeDS); len(ds) > 0 {
			m.Answer = append(m.Answer, ds...)
			s.appendSigs(z, &m.Answer, qname, dnswire.TypeDS, do)
		} else {
			s.negative(z, m, qname, do)
		}
		return m
	}

	// Referral: qname at or below a zone cut (but not the apex itself).
	if cut := z.FindCut(qname); cut != "" {
		return s.referral(z, cut, do)
	}

	if z.NameExists(qname) {
		// CNAME handling.
		if qtype != dnswire.TypeCNAME {
			if cname := z.RRset(qname, dnswire.TypeCNAME); len(cname) > 0 {
				m.Answer = append(m.Answer, cname...)
				s.appendSigs(z, &m.Answer, qname, dnswire.TypeCNAME, do)
				target := cname[0].Data.(*dnswire.CNAME).Target
				if dnswire.IsSubdomain(target, z.Origin) && z.FindCut(target) == "" {
					if set := z.RRset(target, qtype); len(set) > 0 {
						m.Answer = append(m.Answer, set...)
						s.appendSigs(z, &m.Answer, target, qtype, do)
					}
				}
				return m
			}
		}
		if qtype == dnswire.TypeANY {
			for _, t := range z.TypesAt(qname) {
				m.Answer = append(m.Answer, z.RRset(qname, t)...)
			}
			return m
		}
		if set := z.RRset(qname, qtype); len(set) > 0 {
			m.Answer = append(m.Answer, set...)
			s.appendSigs(z, &m.Answer, qname, qtype, do)
			if qtype == dnswire.TypeNS && qname == z.Origin && !s.MinimalResponses {
				s.addGlue(z, m, set)
			}
			return m
		}
		// NODATA.
		s.negative(z, m, qname, do)
		return m
	}

	// Wildcard synthesis (RFC 1034 §4.3.3): if a wildcard exists at the
	// closest encloser, expand it under qname. The wildcard's RRSIGs are
	// served as-is; their Labels field lets validators verify the
	// expansion (RFC 4035 §3.1.3.3).
	if wc := z.WildcardFor(qname); wc != "" {
		if set := z.RRset(wc, qtype); len(set) > 0 {
			for _, rr := range set {
				rr.Name = qname
				m.Answer = append(m.Answer, rr)
			}
			if do {
				for _, sigRR := range z.Sigs(wc, qtype) {
					if s.chance(s.CorruptSigRate) {
						sigRR = corruptSig(sigRR)
					}
					sigRR.Name = qname
					appendUnique(&m.Answer, sigRR)
				}
				// Prove no exact match existed (the wildcard-answer
				// NSEC requirement).
				if nsec := s.coveringNSEC(z, qname); nsec != nil {
					appendUnique(&m.Authority, *nsec)
					s.appendSigs(z, &m.Authority, nsec.Name, dnswire.TypeNSEC, do)
				}
			}
			return m
		}
		// Wildcard exists but not for this type: NODATA.
		s.negative(z, m, qname, do)
		return m
	}

	// NXDOMAIN.
	m.Rcode = dnswire.RcodeNXDomain
	s.negative(z, m, qname, do)
	if do && len(z.RRset(z.Origin, dnswire.TypeNSEC)) > 0 {
		// The NSECs covering the denied name and the wildcard at its
		// closest encloser (RFC 4035 §3.1.3.2); often the same record.
		ce, _ := closestEncloser(z, qname)
		cover, wild := s.coveringNSEC(z, qname), s.coveringNSEC(z, dnswire.Join("*", ce))
		if cover != nil && wild != nil && cover.Name == wild.Name {
			wild = nil
		}
		for _, nsec := range []*dnswire.RR{cover, wild} {
			if nsec != nil {
				appendUnique(&m.Authority, *nsec)
				s.appendSigs(z, &m.Authority, nsec.Name, dnswire.TypeNSEC, do)
			}
		}
	}
	return m
}

// closestEncloser returns the longest existing ancestor of qname, a
// name the zone does not hold, and next, the ancestor one label below
// it on the way to qname (RFC 5155's next closer name).
func closestEncloser(z *zone.Zone, qname string) (ce, next string) {
	next = qname
	ce = dnswire.Parent(qname)
	for ce != "." && !z.NameExists(ce) {
		next = ce
		ce = dnswire.Parent(ce)
	}
	return ce, next
}

func (s *Server) referral(z *zone.Zone, cut string, do bool) *dnswire.Message {
	m := &dnswire.Message{Response: true, Authoritative: false}
	nsSet := z.RRset(cut, dnswire.TypeNS)
	m.Authority = append(m.Authority, nsSet...)
	if ds := z.RRset(cut, dnswire.TypeDS); len(ds) > 0 {
		m.Authority = append(m.Authority, ds...)
		s.appendSigs(z, &m.Authority, cut, dnswire.TypeDS, do)
	} else if do {
		// Prove the unsigned delegation with the cut's NSEC.
		if nsec := z.RRset(cut, dnswire.TypeNSEC); len(nsec) > 0 {
			m.Authority = append(m.Authority, nsec...)
			s.appendSigs(z, &m.Authority, cut, dnswire.TypeNSEC, do)
		}
	}
	s.addGlue(z, m, nsSet)
	return m
}

func (s *Server) addGlue(z *zone.Zone, m *dnswire.Message, nsSet []dnswire.RR) {
	for _, rr := range nsSet {
		host := rr.Data.(*dnswire.NS).Target
		if !dnswire.IsSubdomain(host, z.Origin) {
			continue
		}
		for _, t := range []dnswire.Type{dnswire.TypeA, dnswire.TypeAAAA} {
			m.Additional = append(m.Additional, z.RRset(host, t)...)
		}
	}
}

func (s *Server) negative(z *zone.Zone, m *dnswire.Message, qname string, do bool) {
	if soa := z.SOA(); soa != nil {
		m.Authority = append(m.Authority, *soa)
		s.appendSigs(z, &m.Authority, z.Origin, dnswire.TypeSOA, do)
	}
	if !do {
		return
	}
	if s.nsec3Zone(z) {
		s.nsec3Proofs(z, m, qname, m.Rcode == dnswire.RcodeNXDomain)
		return
	}
	if m.Rcode == dnswire.RcodeNoError {
		// NODATA proof: the qname's own NSEC.
		if nsec := z.RRset(qname, dnswire.TypeNSEC); len(nsec) > 0 {
			m.Authority = append(m.Authority, nsec...)
			s.appendSigs(z, &m.Authority, qname, dnswire.TypeNSEC, do)
		}
	}
}

// nsec3Zone reports whether z uses NSEC3 denial.
func (s *Server) nsec3Zone(z *zone.Zone) bool {
	return len(z.RRset(z.Origin, dnswire.TypeNSEC3PARAM)) > 0
}

// nsec3Proofs attaches the RFC 5155 denial records: for NODATA the
// NSEC3 matching qname; for NXDOMAIN the closest-encloser match plus
// covers for the next-closer and wildcard names (RFC 7129).
func (s *Server) nsec3Proofs(z *zone.Zone, m *dnswire.Message, qname string, nxdomain bool) {
	params := z.RRset(z.Origin, dnswire.TypeNSEC3PARAM)
	p := params[0].Data.(*dnswire.NSEC3PARAM)
	attach := func(name string, covering bool) {
		var rr *dnswire.RR
		if covering {
			rr = s.coveringNSEC3(z, p, name)
		} else {
			owner, err := dnssec.NSEC3Owner(name, z.Origin, p.Iterations, p.Salt)
			if err != nil {
				return
			}
			set := z.RRset(owner, dnswire.TypeNSEC3)
			if len(set) > 0 {
				rr = &set[0]
			}
		}
		if rr != nil {
			appendUnique(&m.Authority, *rr)
			s.appendSigs(z, &m.Authority, rr.Name, dnswire.TypeNSEC3, true)
		}
	}
	if !nxdomain {
		attach(qname, false)
		return
	}
	ce, next := closestEncloser(z, qname)
	attach(ce, false)                   // closest-encloser match
	attach(next, true)                  // next-closer cover
	attach(dnswire.Join("*", ce), true) // wildcard cover
}

// coveringNSEC3 finds the NSEC3 record whose hash interval covers
// name. NSEC3 owner names sort in hash order under canonical name
// ordering (shared suffix, base32hex first labels), so the zone's name
// index can be searched directly.
func (s *Server) coveringNSEC3(z *zone.Zone, p *dnswire.NSEC3PARAM, name string) *dnswire.RR {
	for _, owner := range z.Names() {
		set := z.RRset(owner, dnswire.TypeNSEC3)
		if len(set) == 0 {
			continue
		}
		if dnssec.NSEC3Covers(set[0], name) {
			rr := set[0]
			return &rr
		}
	}
	return nil
}

// coveringNSEC finds the NSEC record whose interval covers qname. The
// zone's canonical name order makes this a binary search: the covering
// NSEC (if any) is owned by the closest preceding name that has one.
func (s *Server) coveringNSEC(z *zone.Zone, qname string) *dnswire.RR {
	names := z.Names()
	if len(names) == 0 {
		return nil
	}
	qname = dnswire.CanonicalName(qname)
	idx := sort.Search(len(names), func(i int) bool {
		return !dnswire.CanonicalNameLess(names[i], qname)
	}) - 1
	// Walk back from the closest preceding name, skipping glue names
	// that carry no NSEC: the first NSEC found is the only candidate.
	for i := idx; i >= 0; i-- {
		if set := z.RRset(names[i], dnswire.TypeNSEC); len(set) > 0 {
			if dnssec.NSECCoversName(set[0], qname) {
				return &set[0]
			}
			return nil
		}
	}
	return nil
}

func (s *Server) appendSigs(z *zone.Zone, section *[]dnswire.RR, owner string, covered dnswire.Type, do bool) {
	if !do {
		return
	}
	for _, rr := range z.Sigs(owner, covered) {
		if s.chance(s.CorruptSigRate) {
			rr = corruptSig(rr)
		}
		appendUnique(section, rr)
	}
}

// corruptSig flips bits in a copy of an RRSIG's signature, leaving
// everything else intact — the shape of deSEC's observed transient
// validation failures.
func corruptSig(rr dnswire.RR) dnswire.RR {
	sig := *rr.Data.(*dnswire.RRSIG)
	sig.Signature = append([]byte(nil), sig.Signature...)
	if len(sig.Signature) > 0 {
		sig.Signature[0] ^= 0xFF
		sig.Signature[len(sig.Signature)/2] ^= 0x55
	}
	rr.Data = &sig
	return rr
}

func appendUnique(section *[]dnswire.RR, rr dnswire.RR) {
	for _, got := range *section {
		if got.Equal(rr) {
			return
		}
	}
	*section = append(*section, rr)
}

// finish copies query identity and EDNS state onto the response.
func (s *Server) finish(q *dnswire.Message, m *dnswire.Message) *dnswire.Message {
	m.ID = q.ID
	m.Response = true
	m.Opcode = q.Opcode
	m.Question = q.Question
	m.RecursionDesired = q.RecursionDesired
	if e, ok := q.GetEDNS(); ok {
		m.SetEDNS(dnswire.EDNS{UDPSize: dnswire.MaxUDPPayload, DO: e.DO})
	}
	return m
}

func reply(q *dnswire.Message, rcode dnswire.Rcode) *dnswire.Message {
	m := &dnswire.Message{ID: q.ID, Response: true, Opcode: q.Opcode, Rcode: rcode, Question: q.Question}
	if e, ok := q.GetEDNS(); ok {
		m.SetEDNS(dnswire.EDNS{UDPSize: dnswire.MaxUDPPayload, DO: e.DO})
	}
	return m
}

// Parking is a transport.Handler modelling domain-parking nameservers
// (e.g. GoDaddy's Afternic, paper §4.4): every query is answered with
// the same NS and A records regardless of the name asked about,
// creating the illusion of a zone cut at every level of the tree.
type Parking struct {
	NSHosts []string
	Addr    netip.Addr
}

// HandleDNS implements transport.Handler.
func (p *Parking) HandleDNS(_ context.Context, _ netip.Addr, q *dnswire.Message) (*dnswire.Message, error) {
	if len(q.Question) != 1 {
		return reply(q, dnswire.RcodeFormErr), nil
	}
	m := reply(q, dnswire.RcodeNoError)
	m.Authoritative = true
	qname := dnswire.CanonicalName(q.Question[0].Name)
	switch q.Question[0].Type {
	default:
		// Parking boxes predate the modern RR types; they error on
		// anything but the basics (compare §4.2's legacy servers).
		return reply(q, dnswire.RcodeNotImp), nil
	case dnswire.TypeNS:
		for _, h := range p.NSHosts {
			m.Answer = append(m.Answer, dnswire.RR{Name: qname, Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.NewNS(h)})
		}
	case dnswire.TypeA:
		m.Answer = append(m.Answer, dnswire.RR{Name: qname, Class: dnswire.ClassIN, TTL: 3600, Data: &dnswire.A{Addr: p.Addr}})
	case dnswire.TypeSOA:
		m.Answer = append(m.Answer, dnswire.RR{Name: qname, Class: dnswire.ClassIN, TTL: 3600, Data: &dnswire.SOA{
			MName: dnswire.CanonicalName(p.NSHosts[0]), RName: "hostmaster." + dnswire.CanonicalName(p.NSHosts[0]),
			Serial: 1, Refresh: 7200, Retry: 3600, Expire: 1209600, Minimum: 300}})
	}
	return m, nil
}
