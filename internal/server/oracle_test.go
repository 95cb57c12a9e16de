package server_test

import (
	"bytes"
	"context"
	"math/rand"
	"net/netip"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"dnssecboot/internal/dnssec"
	"dnssecboot/internal/dnswire"
	"dnssecboot/internal/ecosystem"
	"dnssecboot/internal/server"
	"dnssecboot/internal/zone"
)

// oracle is the server's answer path as it was before it answered from
// one read of the zone: every question to the zone a lookup of its own,
// each name canonicalised and every zone cut, existence and wildcard
// test taken through the zone's public reads. It is the reference the
// one-read path must match byte for byte.
type oracle struct {
	server.Behavior
	zones map[string]*zone.Zone
	rng   *rand.Rand
	// owners caches each zone's owner names in canonical order.
	owners map[*zone.Zone][]string
}

// newOracle answers from srv's zones with behaviour b and the
// randomness server.New(seed) starts with.
func newOracle(b server.Behavior, srv *server.Server, seed int64) *oracle {
	o := &oracle{Behavior: b, zones: make(map[string]*zone.Zone), rng: rand.New(rand.NewSource(seed)),
		owners: make(map[*zone.Zone][]string)}
	for _, origin := range srv.Zones() {
		o.zones[origin] = srv.Zone(origin)
	}
	return o
}

func (o *oracle) names(z *zone.Zone) []string {
	if _, ok := o.owners[z]; !ok {
		o.owners[z] = z.Names()
	}
	return o.owners[z]
}

// search returns the index of the first owner of z that does not sort
// before name.
func (o *oracle) search(z *zone.Zone, name string) int {
	owners := o.names(z)
	return sort.Search(len(owners), func(i int) bool { return !dnswire.CanonicalNameLess(owners[i], name) })
}

func (o *oracle) nameExists(z *zone.Zone, name string) bool {
	name = dnswire.CanonicalName(name)
	owners := o.names(z)
	i := o.search(z, name)
	return i < len(owners) && dnswire.IsSubdomain(owners[i], name)
}

func delegationAt(z *zone.Zone, name string) bool {
	name = dnswire.CanonicalName(name)
	_, ns := z.First(name, dnswire.TypeNS)
	return name != z.Origin && ns
}

func findCut(z *zone.Zone, qname string) string {
	cut := ""
	for n := dnswire.CanonicalName(qname); n != z.Origin && n != "."; n = dnswire.Parent(n) {
		if delegationAt(z, n) {
			cut = n
		}
	}
	return cut
}

func (o *oracle) wildcardFor(z *zone.Zone, qname string) string {
	qname = dnswire.CanonicalName(qname)
	if o.nameExists(z, qname) || !dnswire.IsSubdomain(qname, z.Origin) {
		return ""
	}
	for anc := dnswire.Parent(qname); ; anc = dnswire.Parent(anc) {
		if o.nameExists(z, anc) || anc == z.Origin {
			wc := dnswire.Join("*", anc)
			if o.nameExists(z, wc) {
				return wc
			}
			return ""
		}
		if anc == "." {
			return ""
		}
	}
}

func (o *oracle) preceding(z *zone.Zone, name string, typ dnswire.Type) (dnswire.RR, bool) {
	owners := o.names(z)
	for i := o.search(z, dnswire.CanonicalName(name)) - 1; i >= 0; i-- {
		if rr, ok := z.First(owners[i], typ); ok {
			return rr, true
		}
	}
	return dnswire.RR{}, false
}

// sigs appends the RRSIGs at owner covering covered to dst.
func sigs(z *zone.Zone, dst []dnswire.RR, owner string, covered dnswire.Type) []dnswire.RR {
	for _, rr := range z.RRset(owner, dnswire.TypeRRSIG) {
		if rr.Data.(*dnswire.RRSIG).TypeCovered == covered {
			dst = append(dst, rr)
		}
	}
	return dst
}

func (o *oracle) chance(p float64) bool {
	return p > 0 && o.rng.Float64() < p
}

var oracleClassic = map[dnswire.Type]bool{
	dnswire.TypeA: true, dnswire.TypeNS: true, dnswire.TypeCNAME: true,
	dnswire.TypeSOA: true, dnswire.TypePTR: true, dnswire.TypeMX: true,
	dnswire.TypeTXT: true, dnswire.TypeAAAA: true, dnswire.TypeSRV: true,
	dnswire.TypeANY: true,
}

// handle answers q as HandleDNS did; nil when the query is dropped.
func (o *oracle) handle(q *dnswire.Message) *dnswire.Message {
	m := new(dnswire.Message)
	if len(q.Question) != 1 || q.Opcode != dnswire.OpcodeQuery || q.Response {
		oracleReply(m, q, dnswire.RcodeFormErr)
		return m
	}
	if o.chance(o.DropRate) {
		return nil
	}
	if o.chance(o.ServfailRate) {
		oracleReply(m, q, dnswire.RcodeServFail)
		return m
	}
	question := q.Question[0]
	qname := dnswire.CanonicalName(question.Name)
	qtype := question.Type
	if (o.LegacyUnknownTypes || o.DropUnknownTypes) && !oracleClassic[qtype] {
		if o.DropUnknownTypes {
			return nil
		}
		oracleReply(m, q, dnswire.RcodeFormErr)
		return m
	}
	if o.RefuseANY && qtype == dnswire.TypeANY {
		m.Authoritative = true
		m.Answer = append(m.Answer, dnswire.RR{
			Name: qname, Class: dnswire.ClassIN, TTL: 3789,
			Data: &dnswire.Generic{T: dnswire.Type(13), Octets: []byte{7, 'R', 'F', 'C', '8', '4', '8', '2', 0}},
		})
		oracleFinish(m, q)
		return m
	}
	z := o.findZone(qname, qtype)
	if z == nil {
		oracleReply(m, q, dnswire.RcodeRefused)
		return m
	}
	o.answerFromZone(m, z, qname, qtype, q.DNSSECOK())
	oracleFinish(m, q)
	return m
}

func (o *oracle) findZone(qname string, qtype dnswire.Type) *zone.Zone {
	name := dnswire.CanonicalName(qname)
	if qtype == dnswire.TypeDS && name != "." {
		if _, hostsChild := o.zones[name]; hostsChild {
			name = dnswire.Parent(name)
		}
	}
	for ; ; name = dnswire.Parent(name) {
		if z, ok := o.zones[name]; ok {
			return z
		}
		if name == "." {
			return nil
		}
	}
}

func (o *oracle) answerFromZone(m *dnswire.Message, z *zone.Zone, qname string, qtype dnswire.Type, do bool) {
	m.Response, m.Authoritative = true, true
	if qtype == dnswire.TypeDS && delegationAt(z, qname) {
		if m.Answer = z.AppendRRset(m.Answer, qname, dnswire.TypeDS); len(m.Answer) > 0 {
			o.appendSigs(z, &m.Answer, qname, dnswire.TypeDS, do)
		} else {
			o.negative(z, m, qname, do)
		}
		return
	}
	if cut := findCut(z, qname); cut != "" {
		o.referral(m, z, cut, do)
		return
	}
	if o.nameExists(z, qname) {
		if qtype != dnswire.TypeCNAME {
			if m.Answer = z.AppendRRset(m.Answer, qname, dnswire.TypeCNAME); len(m.Answer) > 0 {
				target := m.Answer[0].Data.(*dnswire.CNAME).Target
				o.appendSigs(z, &m.Answer, qname, dnswire.TypeCNAME, do)
				if dnswire.IsSubdomain(target, z.Origin) && findCut(z, target) == "" {
					n := len(m.Answer)
					if m.Answer = z.AppendRRset(m.Answer, target, qtype); len(m.Answer) > n {
						o.appendSigs(z, &m.Answer, target, qtype, do)
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
			o.appendSigs(z, &m.Answer, qname, qtype, do)
			if qtype == dnswire.TypeNS && qname == z.Origin && !o.MinimalResponses {
				o.addGlue(z, m, set)
			}
			return
		}
		o.negative(z, m, qname, do)
		return
	}
	if wc := o.wildcardFor(z, qname); wc != "" {
		if m.Answer = z.AppendRRset(m.Answer, wc, qtype); len(m.Answer) > 0 {
			for i := range m.Answer {
				m.Answer[i].Name = qname
			}
			if do {
				o.appendSigsAs(z, &m.Answer, wc, qtype, qname)
				if nsec, ok := o.coveringNSEC(z, qname); ok {
					oracleAppendUnique(&m.Authority, nsec)
					o.appendSigs(z, &m.Authority, nsec.Name, dnswire.TypeNSEC, do)
				}
			}
			return
		}
		o.negative(z, m, qname, do)
		return
	}
	m.Rcode = dnswire.RcodeNXDomain
	o.negative(z, m, qname, do)
	if _, nsecZone := z.First(z.Origin, dnswire.TypeNSEC); do && nsecZone {
		ce, _ := o.closestEncloser(z, qname)
		cover, coverOK := o.coveringNSEC(z, qname)
		wild, wildOK := o.coveringNSEC(z, dnswire.Join("*", ce))
		if coverOK {
			oracleAppendUnique(&m.Authority, cover)
			o.appendSigs(z, &m.Authority, cover.Name, dnswire.TypeNSEC, do)
		}
		if wildOK && !(coverOK && cover.Name == wild.Name) {
			oracleAppendUnique(&m.Authority, wild)
			o.appendSigs(z, &m.Authority, wild.Name, dnswire.TypeNSEC, do)
		}
	}
}

func (o *oracle) closestEncloser(z *zone.Zone, qname string) (ce, next string) {
	next = qname
	ce = dnswire.Parent(qname)
	for ce != "." && !o.nameExists(z, ce) {
		next = ce
		ce = dnswire.Parent(ce)
	}
	return ce, next
}

func (o *oracle) referral(m *dnswire.Message, z *zone.Zone, cut string, do bool) {
	m.Response, m.Authoritative = true, false
	m.Authority = z.AppendRRset(m.Authority, cut, dnswire.TypeNS)
	nsSet := m.Authority
	n := len(m.Authority)
	if m.Authority = z.AppendRRset(m.Authority, cut, dnswire.TypeDS); len(m.Authority) > n {
		o.appendSigs(z, &m.Authority, cut, dnswire.TypeDS, do)
	} else if do {
		if m.Authority = z.AppendRRset(m.Authority, cut, dnswire.TypeNSEC); len(m.Authority) > n {
			o.appendSigs(z, &m.Authority, cut, dnswire.TypeNSEC, do)
		}
	}
	o.addGlue(z, m, nsSet)
}

func (o *oracle) addGlue(z *zone.Zone, m *dnswire.Message, nsSet []dnswire.RR) {
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

func (o *oracle) negative(z *zone.Zone, m *dnswire.Message, qname string, do bool) {
	if soa, ok := z.First(z.Origin, dnswire.TypeSOA); ok {
		m.Authority = append(m.Authority, soa)
		o.appendSigs(z, &m.Authority, z.Origin, dnswire.TypeSOA, do)
	}
	if !do {
		return
	}
	if _, nsec3 := z.First(z.Origin, dnswire.TypeNSEC3PARAM); nsec3 {
		o.nsec3Proofs(z, m, qname, m.Rcode == dnswire.RcodeNXDomain)
		return
	}
	if m.Rcode == dnswire.RcodeNoError {
		n := len(m.Authority)
		if m.Authority = z.AppendRRset(m.Authority, qname, dnswire.TypeNSEC); len(m.Authority) > n {
			o.appendSigs(z, &m.Authority, qname, dnswire.TypeNSEC, do)
		}
	}
}

func (o *oracle) nsec3Proofs(z *zone.Zone, m *dnswire.Message, qname string, nxdomain bool) {
	params, _ := z.First(z.Origin, dnswire.TypeNSEC3PARAM)
	p := params.Data.(*dnswire.NSEC3PARAM)
	attach := func(name string, covering bool) {
		var rr dnswire.RR
		var ok bool
		if covering {
			rr, ok = o.coveringNSEC3(z, name, p)
		} else {
			owner, err := dnssec.NSEC3Owner(name, z.Origin, p.Iterations, p.Salt)
			if err != nil {
				return
			}
			rr, ok = z.First(owner, dnswire.TypeNSEC3)
		}
		if ok {
			oracleAppendUnique(&m.Authority, rr)
			o.appendSigs(z, &m.Authority, rr.Name, dnswire.TypeNSEC3, true)
		}
	}
	if !nxdomain {
		attach(qname, false)
		return
	}
	ce, next := o.closestEncloser(z, qname)
	attach(ce, false)
	attach(next, true)
	attach(dnswire.Join("*", ce), true)
}

func (o *oracle) coveringNSEC3(z *zone.Zone, name string, p *dnswire.NSEC3PARAM) (dnswire.RR, bool) {
	h, err := dnssec.NSEC3Hash(name, p.Iterations, p.Salt)
	if err != nil {
		return dnswire.RR{}, false
	}
	rr, ok := o.preceding(z, dnssec.NSEC3HashOwner(h, z.Origin), dnswire.TypeNSEC3)
	if !ok {
		rr, ok = o.preceding(z, dnswire.Join("w", z.Origin), dnswire.TypeNSEC3)
	}
	return rr, ok && dnssec.NSEC3CoversHash(rr, h)
}

func (o *oracle) coveringNSEC(z *zone.Zone, qname string) (dnswire.RR, bool) {
	nsec, ok := o.preceding(z, qname, dnswire.TypeNSEC)
	if !ok {
		return dnswire.RR{}, false
	}
	return nsec, dnssec.NSECCoversName(nsec, dnswire.CanonicalName(qname))
}

func (o *oracle) appendSigs(z *zone.Zone, section *[]dnswire.RR, owner string, covered dnswire.Type, do bool) {
	if do {
		o.appendSigsAs(z, section, owner, covered, "")
	}
}

func (o *oracle) appendSigsAs(z *zone.Zone, section *[]dnswire.RR, owner string, covered dnswire.Type, as string) {
	n := len(*section)
	sec := sigs(z, *section, owner, covered)
	out := sec[:n]
	for _, rr := range sec[n:] {
		if o.chance(o.CorruptSigRate) {
			sig := *rr.Data.(*dnswire.RRSIG)
			sig.Signature = append([]byte(nil), sig.Signature...)
			if len(sig.Signature) > 0 {
				sig.Signature[0] ^= 0xFF
				sig.Signature[len(sig.Signature)/2] ^= 0x55
			}
			rr.Data = &sig
		}
		if as != "" {
			rr.Name = as
		}
		if !oracleHolds(out, rr) {
			out = append(out, rr)
		}
	}
	*section = out
}

func oracleAppendUnique(section *[]dnswire.RR, rr dnswire.RR) {
	if !oracleHolds(*section, rr) {
		*section = append(*section, rr)
	}
}

func oracleHolds(section []dnswire.RR, rr dnswire.RR) bool {
	for _, got := range section {
		if got.Equal(rr) {
			return true
		}
	}
	return false
}

func oracleFinish(m, q *dnswire.Message) {
	m.ID = q.ID
	m.Response = true
	m.Opcode = q.Opcode
	m.Question = q.Question
	m.RecursionDesired = q.RecursionDesired
	if e, ok := q.GetEDNS(); ok {
		m.SetEDNS(dnswire.EDNS{UDPSize: dnswire.MaxUDPPayload, DO: e.DO})
	}
}

func oracleReply(m, q *dnswire.Message, rcode dnswire.Rcode) {
	m.ID, m.Response, m.Opcode, m.Rcode, m.Question = q.ID, true, q.Opcode, rcode, q.Question
	if e, ok := q.GetEDNS(); ok {
		m.SetEDNS(dnswire.EDNS{UDPSize: dnswire.MaxUDPPayload, DO: e.DO})
	}
}

// oracleTypes are the types every name is asked for, besides its own.
var oracleTypes = []dnswire.Type{
	dnswire.TypeA, dnswire.TypeNS, dnswire.TypeCNAME, dnswire.TypeSOA, dnswire.TypeMX,
	dnswire.TypeTXT, dnswire.TypeAAAA, dnswire.TypeDS, dnswire.TypeRRSIG, dnswire.TypeNSEC,
	dnswire.TypeDNSKEY, dnswire.TypeNSEC3, dnswire.TypeNSEC3PARAM, dnswire.TypeCDS,
	dnswire.TypeCDNSKEY, dnswire.TypeANY,
}

// probeNames returns the names asked about in z: every owner, a child
// of each and a sibling sorting just before and just after it.
func probeNames(z *zone.Zone) []string {
	var out []string
	for _, owner := range z.Names() {
		label, parent, _ := strings.Cut(owner, ".")
		out = append(out, owner, "kid-0."+owner)
		if label != "" && parent != "" {
			out = append(out, label[:len(label)-1]+"-."+parent, label+"-."+parent)
		}
	}
	return out
}

// pack packs m for comparison; a dropped answer packs to nil.
func pack(t *testing.T, m *dnswire.Message) []byte {
	t.Helper()
	if m == nil {
		return nil
	}
	wire, err := m.Pack()
	if err != nil {
		t.Fatalf("pack: %v", err)
	}
	return wire
}

// differ asks srv and o the same questions about every probe name of
// zones, with each DO bit of dos, and fails on the first answer whose
// packed bytes differ. It returns the number of questions asked.
func differ(t *testing.T, srv *server.Server, o *oracle, zones []*zone.Zone, dos ...bool) int {
	t.Helper()
	asked := 0
	ctx := context.Background()
	for _, z := range zones {
		for _, name := range probeNames(z) {
			types := append(z.TypesAt(name), oracleTypes...)
			for _, typ := range types {
				for _, do := range dos {
					q := dnswire.NewQuery(uint16(asked), name, typ)
					if do {
						q.SetEDNS(dnswire.EDNS{UDPSize: dnswire.MaxUDPPayload, DO: true})
					}
					got, err := srv.HandleDNS(ctx, netip.Addr{}, q)
					if err != nil {
						t.Fatal(err)
					}
					want := o.handle(q)
					if g, w := pack(t, got), pack(t, want); !bytes.Equal(g, w) {
						t.Fatalf("%s %s do=%v in %s:\ngot  %s\nwant %s", name, typ, do, z.Origin, answerText(got), answerText(want))
					}
					asked++
				}
			}
		}
	}
	return asked
}

// answerText lists a message's rcode and records, for failure messages.
func answerText(m *dnswire.Message) string {
	if m == nil {
		return "dropped"
	}
	var sb strings.Builder
	sb.WriteString(m.Rcode.String())
	for i, sec := range [][]dnswire.RR{m.Answer, m.Authority, m.Additional} {
		sb.WriteString([]string{"\n an ", "\n au ", "\n ad "}[i])
		for _, rr := range sec {
			sb.WriteString(rr.String() + "; ")
		}
	}
	return sb.String()
}

// twin returns a server holding srv's zones with srv's behaviour and
// seed's randomness.
func twin(srv *server.Server, b server.Behavior, seed int64) *server.Server {
	t := server.New(seed)
	t.Behavior = b
	for _, origin := range srv.Zones() {
		t.AddZone(srv.Zone(origin))
	}
	return t
}

// worldServers returns the servers of world that the seed-1 scan of an
// identical world sends queries to, each once, in the order first
// asked.
func worldServers(world *ecosystem.Ecosystem, scanned []exchange) []*server.Server {
	seen := make(map[netip.Addr]bool)
	var out []*server.Server
	held := make(map[*server.Server]bool)
	for _, e := range scanned {
		if seen[e.local] {
			continue
		}
		seen[e.local] = true
		if h, ok := world.Net.Route(e.local); ok {
			if srv, ok := h.(*server.Server); ok && !held[srv] {
				held[srv] = true
				out = append(out, srv)
			}
		}
	}
	return out
}

// TestAnswerMatchesOracle: answers from one read of the zone are byte
// for byte the oracle's, over every owner × type × DO bit of the zones
// every server of a scale-200000 world holds, with absent names next to
// each owner. The world's zones are lazily signed: the server answers
// from one fresh copy of the world, the oracle from another, then both
// again with DO once their signatures are made. Quirk rates are zeroed
// there (the fixtures cover them).
func TestAnswerMatchesOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("generates and asks three worlds")
	}
	scanned := scanExchanges(t, 200_000)
	var worlds [2]*ecosystem.Ecosystem
	for i := range worlds {
		w, err := ecosystem.Generate(ecosystem.Config{Seed: 1, ScaleDivisor: 200_000})
		if err != nil {
			t.Fatal(err)
		}
		worlds[i] = w
	}
	ours, theirs := worldServers(worlds[0], scanned), worldServers(worlds[1], scanned)
	if len(ours) != len(theirs) || len(ours) < 10 {
		t.Fatalf("servers: %d and %d", len(ours), len(theirs))
	}
	asked := 0
	for i, srv := range ours {
		b := srv.Behavior
		b.DropRate, b.ServfailRate, b.CorruptSigRate = 0, 0, 0
		var zones []*zone.Zone
		for _, origin := range srv.Zones() {
			zones = append(zones, srv.Zone(origin))
		}
		mine, o := twin(srv, b, 1), newOracle(b, theirs[i], 1)
		asked += differ(t, mine, o, zones, false, true) // signatures unmade on both sides
		asked += differ(t, mine, o, zones, true)        // all made
	}
	t.Logf("%d questions to %d servers", asked, len(ours))
}

// fixtureZone returns a zone holding the shapes an answer can take: an
// in-zone CNAME and ones leaving the zone or entering a delegation,
// wildcards (one below an empty non-terminal), empty non-terminals, a
// signed delegation with DS and glue, an unsigned one, and apex NS
// hosts with in-zone addresses. It is signed with NSEC, NSEC3 or not at
// all, with keys from seed, lazily.
func fixtureZone(t *testing.T, signing string, seed int64) *zone.Zone {
	t.Helper()
	z := zone.New("fix.test.")
	z.SetBasics("ns1.fix.test.", []string{"ns1.fix.test.", "ns2.elsewhere.net."}, 7)
	a := func(name, addr string) {
		z.MustAdd(dnswire.RR{Name: name, TTL: 300, Data: &dnswire.A{Addr: netip.MustParseAddr(addr)}})
	}
	a("ns1.fix.test.", "192.0.2.1")
	z.MustAdd(dnswire.RR{Name: "ns1.fix.test.", TTL: 300, Data: &dnswire.AAAA{Addr: netip.MustParseAddr("2001:db8::1")}})
	a("www.fix.test.", "192.0.2.2")
	z.MustAdd(dnswire.RR{Name: "www.fix.test.", TTL: 300, Data: &dnswire.TXT{Strings: []string{"hello"}}})
	z.MustAdd(dnswire.RR{Name: "alias.fix.test.", TTL: 300, Data: dnswire.NewCNAME("www.fix.test.")})
	z.MustAdd(dnswire.RR{Name: "out.fix.test.", TTL: 300, Data: dnswire.NewCNAME("www.elsewhere.net.")})
	z.MustAdd(dnswire.RR{Name: "into.fix.test.", TTL: 300, Data: dnswire.NewCNAME("host.sub.fix.test.")})
	a("*.wild.fix.test.", "192.0.2.3")
	z.MustAdd(dnswire.RR{Name: "*.wild.fix.test.", TTL: 300, Data: &dnswire.MX{Preference: 10, Host: "mail.fix.test."}})
	a("real.wild.fix.test.", "192.0.2.4")
	a("*.x.ent.fix.test.", "192.0.2.5")
	a("a.b.c.fix.test.", "192.0.2.6")
	z.MustAdd(dnswire.RR{Name: "sub.fix.test.", TTL: 3600, Data: dnswire.NewNS("ns.sub.fix.test.")})
	z.MustAdd(dnswire.RR{Name: "sub.fix.test.", TTL: 3600, Data: dnswire.NewNS("ns1.fix.test.")})
	z.MustAdd(dnswire.RR{Name: "sub.fix.test.", TTL: 3600,
		Data: &dnswire.DS{KeyTag: 4711, Algorithm: 15, DigestType: 2, Digest: bytes.Repeat([]byte{7}, 32)}})
	a("ns.sub.fix.test.", "192.0.2.7")
	a("deep.x.sub.fix.test.", "192.0.2.8")
	z.MustAdd(dnswire.RR{Name: "nods.fix.test.", TTL: 3600, Data: dnswire.NewNS("ns2.elsewhere.net.")})
	if signing == "" {
		return z
	}
	cfg := zone.SignConfig{Now: time.Date(2025, 4, 15, 12, 0, 0, 0, time.UTC), Algorithm: dnswire.AlgEd25519, UseNSEC3: signing == "nsec3"}
	if err := z.GenerateKeys(cfg, rand.New(rand.NewSource(seed))); err != nil {
		t.Fatal(err)
	}
	if err := z.Sign(cfg); err != nil {
		t.Fatal(err)
	}
	return z
}

// TestAnswerMatchesOracleFixtures: the fixture zone, signed with NSEC,
// with NSEC3 and not at all, held with a child zone for DS at the cut,
// answers every owner × type × DO bit as the oracle does under each
// quirk the server models: none, RFC 8482 ANY refusal, legacy servers
// that error on or drop new types, minimal responses, and seeded
// drops, SERVFAILs and corrupted signatures, which the oracle draws
// from the same seed. Each server answers from fresh lazily signed
// zones, the oracle from an identical copy, and the server once more
// after.
func TestAnswerMatchesOracleFixtures(t *testing.T) {
	behaviors := map[string]server.Behavior{
		"standard":  {},
		"refuseANY": {RefuseANY: true},
		"legacy":    {LegacyUnknownTypes: true},
		"drop":      {DropUnknownTypes: true},
		"minimal":   {MinimalResponses: true},
		"flaky":     {DropRate: 0.1, ServfailRate: 0.1, CorruptSigRate: 0.5},
	}
	for _, signing := range []string{"nsec", "nsec3", ""} {
		for name, b := range behaviors {
			t.Run(signing+"/"+name, func(t *testing.T) {
				hold := func() (*server.Server, []*zone.Zone) {
					srv := server.New(9)
					srv.Behavior = b
					z := fixtureZone(t, signing, 1)
					child := zone.New("sub.fix.test.")
					child.SetBasics("ns.sub.fix.test.", []string{"ns.sub.fix.test."}, 1)
					srv.AddZone(z)
					srv.AddZone(child)
					return srv, []*zone.Zone{z, child}
				}
				mine, zones := hold()
				theirs, _ := hold()
				o := newOracle(b, theirs, 9)
				n := differ(t, mine, o, zones, false, true)
				n += differ(t, mine, o, zones, false, true)
				if n < 1000 {
					t.Errorf("only %d questions", n)
				}
			})
		}
	}
}

// TestAnswersDuringLazySigning: goroutines asking DO questions of one
// lazily signed zone at once, so that they race to make its signatures,
// get the bytes its eagerly signed twin gives. Run it under -race.
func TestAnswersDuringLazySigning(t *testing.T) {
	for _, signing := range []string{"nsec", "nsec3"} {
		eager := server.New(1)
		ez := fixtureZone(t, signing, 2)
		ez.All() // makes every signature
		eager.AddZone(ez)
		lazy := server.New(1)
		lazy.AddZone(fixtureZone(t, signing, 2))

		type question struct {
			name string
			typ  dnswire.Type
		}
		var qs []question
		for _, name := range probeNames(ez) {
			for _, typ := range append(ez.TypesAt(name), oracleTypes...) {
				qs = append(qs, question{name, typ})
			}
		}
		ctx := context.Background()
		answer := func(s *server.Server, q question) []byte {
			m := dnswire.NewQuery(1, q.name, q.typ)
			m.SetEDNS(dnswire.EDNS{UDPSize: dnswire.MaxUDPPayload, DO: true})
			resp, err := s.HandleDNS(ctx, netip.Addr{}, m)
			if err != nil {
				t.Error(err)
				return nil
			}
			return pack(t, resp)
		}
		want := make([][]byte, len(qs))
		for i, q := range qs {
			want[i] = answer(eager, q)
		}
		var wg sync.WaitGroup
		for g := range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, i := range rand.New(rand.NewSource(int64(g))).Perm(len(qs)) {
					if got := answer(lazy, qs[i]); !bytes.Equal(got, want[i]) {
						t.Errorf("%s: %s %s differs from the eagerly signed zone's answer", signing, qs[i].name, qs[i].typ)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}
