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

// Zone returns the zone exactly matching origin, or nil.
func (s *Server) Zone(origin string) *zone.Zone {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.zones[dnswire.CanonicalName(origin)]
}

// Zones lists the origins the server is authoritative for, sorted.
//
//lint:allow unused test seam: ecosystem's HeldZones walks every server for TestWorldDigest
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

// HandleDNS implements transport.Handler: HandleDNSInto on a fresh
// message, nil when the query is dropped.
func (s *Server) HandleDNS(ctx context.Context, local netip.Addr, q *dnswire.Message) (*dnswire.Message, error) {
	m := new(dnswire.Message)
	if answered, err := s.HandleDNSInto(ctx, local, q, m); err != nil || !answered {
		return nil, err
	}
	return m, nil
}

// HandleDNSInto implements transport.ReplyHandler: it resets m,
// answers q into it and reports false when it drops the query. Every
// section is built by appending, so a caller may reuse m's storage for
// the next query once it is done with this answer.
func (s *Server) HandleDNSInto(_ context.Context, _ netip.Addr, q, m *dnswire.Message) (bool, error) {
	m.Reset()
	if len(q.Question) != 1 || q.Opcode != dnswire.OpcodeQuery || q.Response {
		reply(m, q, dnswire.RcodeFormErr)
		return true, nil
	}
	if s.chance(s.DropRate) {
		return false, nil // silent drop → client timeout
	}
	if s.chance(s.ServfailRate) {
		reply(m, q, dnswire.RcodeServFail)
		return true, nil
	}
	question := q.Question[0]
	qname := dnswire.CanonicalName(question.Name)
	qtype := question.Type

	if (s.LegacyUnknownTypes || s.DropUnknownTypes) && !classicTypes[qtype] {
		if s.DropUnknownTypes {
			return false, nil
		}
		reply(m, q, dnswire.RcodeFormErr)
		return true, nil
	}
	if s.RefuseANY && qtype == dnswire.TypeANY {
		m.Authoritative = true
		// RFC 8482 §4.2: a synthesised HINFO with CPU "RFC8482".
		m.Answer = append(m.Answer, dnswire.RR{
			Name: qname, Class: dnswire.ClassIN, TTL: 3789,
			Data: &dnswire.Generic{T: dnswire.Type(13), Octets: hinfoRFC8482},
		})
		finish(m, q)
		return true, nil
	}

	z := s.findZone(qname, qtype)
	if z == nil {
		reply(m, q, dnswire.RcodeRefused)
		return true, nil
	}
	s.answerFromZone(m, z, qname, qtype, q.DNSSECOK())
	finish(m, q)
	return true, nil
}

// hinfoRFC8482 is the wire RDATA of `HINFO "RFC8482" ""`.
var hinfoRFC8482 = []byte{7, 'R', 'F', 'C', '8', '4', '8', '2', 0}

// answerFromZone answers (qname, qtype) from z into the empty message m.
func (s *Server) answerFromZone(m *dnswire.Message, z *zone.Zone, qname string, qtype dnswire.Type, do bool) {
	m.Response, m.Authoritative = true, true

	// DS at a zone cut is answered authoritatively by the parent
	// (RFC 4035 §3.1.4.1), never as a referral.
	if qtype == dnswire.TypeDS && z.DelegationAt(qname) {
		if m.Answer = z.AppendRRset(m.Answer, qname, dnswire.TypeDS); len(m.Answer) > 0 {
			s.appendSigs(z, &m.Answer, qname, dnswire.TypeDS, do)
		} else {
			s.negative(z, m, qname, do)
		}
		return
	}

	// Referral: qname at or below a zone cut (but not the apex itself).
	if cut := z.FindCut(qname); cut != "" {
		s.referral(m, z, cut, do)
		return
	}

	if z.NameExists(qname) {
		// CNAME handling.
		if qtype != dnswire.TypeCNAME {
			if m.Answer = z.AppendRRset(m.Answer, qname, dnswire.TypeCNAME); len(m.Answer) > 0 {
				target := m.Answer[0].Data.(*dnswire.CNAME).Target
				s.appendSigs(z, &m.Answer, qname, dnswire.TypeCNAME, do)
				if dnswire.IsSubdomain(target, z.Origin) && z.FindCut(target) == "" {
					n := len(m.Answer)
					if m.Answer = z.AppendRRset(m.Answer, target, qtype); len(m.Answer) > n {
						s.appendSigs(z, &m.Answer, target, qtype, do)
					}
				}
				return
			}
		}
		if qtype == dnswire.TypeANY {
			for _, t := range z.TypesAt(qname) {
				m.Answer = z.AppendRRset(m.Answer, qname, t)
			}
			return
		}
		if m.Answer = z.AppendRRset(m.Answer, qname, qtype); len(m.Answer) > 0 {
			set := m.Answer
			s.appendSigs(z, &m.Answer, qname, qtype, do)
			if qtype == dnswire.TypeNS && qname == z.Origin && !s.MinimalResponses {
				s.addGlue(z, m, set)
			}
			return
		}
		// NODATA.
		s.negative(z, m, qname, do)
		return
	}

	// Wildcard synthesis (RFC 1034 §4.3.3): if a wildcard exists at the
	// closest encloser, expand it under qname. The wildcard's RRSIGs are
	// served as-is; their Labels field lets validators verify the
	// expansion (RFC 4035 §3.1.3.3).
	if wc := z.WildcardFor(qname); wc != "" {
		if m.Answer = z.AppendRRset(m.Answer, wc, qtype); len(m.Answer) > 0 {
			for i := range m.Answer {
				m.Answer[i].Name = qname
			}
			if do {
				s.appendSigsAs(z, &m.Answer, wc, qtype, qname)
				// Prove no exact match existed (the wildcard-answer
				// NSEC requirement).
				if nsec, ok := s.coveringNSEC(z, qname); ok {
					appendUnique(&m.Authority, nsec)
					s.appendSigs(z, &m.Authority, nsec.Name, dnswire.TypeNSEC, do)
				}
			}
			return
		}
		// Wildcard exists but not for this type: NODATA.
		s.negative(z, m, qname, do)
		return
	}

	// NXDOMAIN.
	m.Rcode = dnswire.RcodeNXDomain
	s.negative(z, m, qname, do)
	if _, nsecZone := z.First(z.Origin, dnswire.TypeNSEC); do && nsecZone {
		// The NSECs covering the denied name and the wildcard at its
		// closest encloser (RFC 4035 §3.1.3.2); often the same record.
		ce, _ := closestEncloser(z, qname)
		cover, coverOK := s.coveringNSEC(z, qname)
		wild, wildOK := s.coveringNSEC(z, dnswire.Join("*", ce))
		if coverOK {
			appendUnique(&m.Authority, cover)
			s.appendSigs(z, &m.Authority, cover.Name, dnswire.TypeNSEC, do)
		}
		if wildOK && !(coverOK && cover.Name == wild.Name) {
			appendUnique(&m.Authority, wild)
			s.appendSigs(z, &m.Authority, wild.Name, dnswire.TypeNSEC, do)
		}
	}
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

// referral answers with the delegation at cut into the empty message m.
func (s *Server) referral(m *dnswire.Message, z *zone.Zone, cut string, do bool) {
	m.Response, m.Authoritative = true, false
	m.Authority = z.AppendRRset(m.Authority, cut, dnswire.TypeNS)
	nsSet := m.Authority
	n := len(m.Authority)
	if m.Authority = z.AppendRRset(m.Authority, cut, dnswire.TypeDS); len(m.Authority) > n {
		s.appendSigs(z, &m.Authority, cut, dnswire.TypeDS, do)
	} else if do {
		// Prove the unsigned delegation with the cut's NSEC.
		if m.Authority = z.AppendRRset(m.Authority, cut, dnswire.TypeNSEC); len(m.Authority) > n {
			s.appendSigs(z, &m.Authority, cut, dnswire.TypeNSEC, do)
		}
	}
	s.addGlue(z, m, nsSet)
}

func (s *Server) addGlue(z *zone.Zone, m *dnswire.Message, nsSet []dnswire.RR) {
	for _, rr := range nsSet {
		host := rr.Data.(*dnswire.NS).Target
		if !dnswire.IsSubdomain(host, z.Origin) {
			continue
		}
		for _, t := range []dnswire.Type{dnswire.TypeA, dnswire.TypeAAAA} {
			m.Additional = z.AppendRRset(m.Additional, host, t)
		}
	}
}

func (s *Server) negative(z *zone.Zone, m *dnswire.Message, qname string, do bool) {
	if soa, ok := z.First(z.Origin, dnswire.TypeSOA); ok {
		m.Authority = append(m.Authority, soa)
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
		n := len(m.Authority)
		if m.Authority = z.AppendRRset(m.Authority, qname, dnswire.TypeNSEC); len(m.Authority) > n {
			s.appendSigs(z, &m.Authority, qname, dnswire.TypeNSEC, do)
		}
	}
}

// nsec3Zone reports whether z uses NSEC3 denial.
func (s *Server) nsec3Zone(z *zone.Zone) bool {
	_, ok := z.First(z.Origin, dnswire.TypeNSEC3PARAM)
	return ok
}

// nsec3Proofs attaches the RFC 5155 denial records: for NODATA the
// NSEC3 matching qname; for NXDOMAIN the closest-encloser match plus
// covers for the next-closer and wildcard names (RFC 7129).
func (s *Server) nsec3Proofs(z *zone.Zone, m *dnswire.Message, qname string, nxdomain bool) {
	params, _ := z.First(z.Origin, dnswire.TypeNSEC3PARAM)
	p := params.Data.(*dnswire.NSEC3PARAM)
	attach := func(name string, covering bool) {
		var rr dnswire.RR
		var ok bool
		if covering {
			rr, ok = s.coveringNSEC3(z, name, p)
		} else {
			owner, err := dnssec.NSEC3Owner(name, z.Origin, p.Iterations, p.Salt)
			if err != nil {
				return
			}
			rr, ok = z.First(owner, dnswire.TypeNSEC3)
		}
		if ok {
			appendUnique(&m.Authority, rr)
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
// name, hashing it once. NSEC3 owner names sort in hash order under canonical name
// ordering (one base32hex label under the apex), so the only candidate
// is the last NSEC3 before name's hashed owner, one search of the zone,
// or, when the hash precedes every owner's, the zone's last NSEC3, whose
// interval wraps around.
func (s *Server) coveringNSEC3(z *zone.Zone, name string, p *dnswire.NSEC3PARAM) (dnswire.RR, bool) {
	h, err := dnssec.NSEC3Hash(name, p.Iterations, p.Salt)
	if err != nil {
		return dnswire.RR{}, false
	}
	rr, ok := z.Preceding(dnssec.NSEC3HashOwner(h, z.Origin), dnswire.TypeNSEC3)
	if !ok {
		// base32hex uses only 0-9 and a-v, so every NSEC3 owner sorts
		// before w.<apex>.
		rr, ok = z.Preceding(dnswire.Join("w", z.Origin), dnswire.TypeNSEC3)
	}
	return rr, ok && dnssec.NSEC3CoversHash(rr, h)
}

// coveringNSEC finds the NSEC record whose interval covers qname: the
// only candidate is the one at the closest owner before qname that has
// an NSEC, found by one search of the zone's canonical order (glue
// names carry none and are passed over).
func (s *Server) coveringNSEC(z *zone.Zone, qname string) (dnswire.RR, bool) {
	nsec, ok := z.Preceding(qname, dnswire.TypeNSEC)
	if !ok {
		return dnswire.RR{}, false
	}
	return nsec, dnssec.NSECCoversName(nsec, dnswire.CanonicalName(qname))
}

// appendSigs adds the RRSIGs at owner covering covered to the section
// when the query set DO.
func (s *Server) appendSigs(z *zone.Zone, section *[]dnswire.RR, owner string, covered dnswire.Type, do bool) {
	if do {
		s.appendSigsAs(z, section, owner, covered, "")
	}
}

// appendSigsAs adds the RRSIGs at owner covering covered to the
// section, renamed to as unless that is empty (a wildcard expansion),
// corrupted at CorruptSigRate, skipping any the section already holds.
// They are appended straight from the zone and compacted in place.
func (s *Server) appendSigsAs(z *zone.Zone, section *[]dnswire.RR, owner string, covered dnswire.Type, as string) {
	n := len(*section)
	sec := z.AppendSigs(*section, owner, covered)
	out := sec[:n]
	for _, rr := range sec[n:] {
		if s.chance(s.CorruptSigRate) {
			rr = corruptSig(rr)
		}
		if as != "" {
			rr.Name = as
		}
		if !holds(out, rr) {
			out = append(out, rr)
		}
	}
	*section = out
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
	if !holds(*section, rr) {
		*section = append(*section, rr)
	}
}

// holds reports whether section already has a record equal to rr.
func holds(section []dnswire.RR, rr dnswire.RR) bool {
	for _, got := range section {
		if got.Equal(rr) {
			return true
		}
	}
	return false
}

// finish copies query identity and EDNS state onto the response.
func finish(m, q *dnswire.Message) {
	m.ID = q.ID
	m.Response = true
	m.Opcode = q.Opcode
	m.Question = q.Question
	m.RecursionDesired = q.RecursionDesired
	if e, ok := q.GetEDNS(); ok {
		m.SetEDNS(dnswire.EDNS{UDPSize: dnswire.MaxUDPPayload, DO: e.DO})
	}
}

// reply makes the empty message m a bare response to q with rcode.
func reply(m, q *dnswire.Message, rcode dnswire.Rcode) {
	m.ID, m.Response, m.Opcode, m.Rcode, m.Question = q.ID, true, q.Opcode, rcode, q.Question
	if e, ok := q.GetEDNS(); ok {
		m.SetEDNS(dnswire.EDNS{UDPSize: dnswire.MaxUDPPayload, DO: e.DO})
	}
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
	m := new(dnswire.Message)
	if len(q.Question) != 1 {
		reply(m, q, dnswire.RcodeFormErr)
		return m, nil
	}
	reply(m, q, dnswire.RcodeNoError)
	m.Authoritative = true
	qname := dnswire.CanonicalName(q.Question[0].Name)
	switch q.Question[0].Type {
	default:
		// Parking boxes predate the modern RR types; they error on
		// anything but the basics (compare §4.2's legacy servers).
		m.Rcode, m.Authoritative = dnswire.RcodeNotImp, false
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
