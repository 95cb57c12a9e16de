package ecosystem

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sort"
	"time"

	"dnssecboot/internal/dnssec"
	"dnssecboot/internal/dnswire"
	"dnssecboot/internal/server"
	"dnssecboot/internal/transport"
	"dnssecboot/internal/zone"
)

// Config controls generation.
type Config struct {
	// Seed drives every random choice; equal seeds give equal worlds.
	Seed int64
	// ScaleDivisor divides the paper's population counts. Zero means
	// 2000 (≈144 k zones). Non-zero counts never scale below one, so
	// every phenomenon stays represented at any scale.
	ScaleDivisor int
	// Now is the simulated wall-clock time used for signature windows.
	// Zero means 2025-04-15, the paper's measurement month.
	Now time.Time
	// Profiles overrides the operator population (default: Profiles()).
	Profiles []Profile
}

// Ecosystem is a generated synthetic Internet.
type Ecosystem struct {
	// Net is the simulated network; attach a resolver to it.
	Net *transport.MemNetwork
	// Roots are the root nameserver addresses (resolver hints).
	Roots []netip.AddrPort
	// TrustAnchor is the DS form of the root KSK.
	TrustAnchor []dnswire.RR
	// Targets is the scan list (registrable domains), shuffled
	// deterministically.
	Targets []string
	// Truth maps each target to its ground truth.
	Truth map[string]*Truth
	// Now is the simulated time (hand it to the scanner).
	Now time.Time
	// CloudflareSuffixes are the NS suffixes eligible for scan
	// sampling (§3).
	CloudflareSuffixes []string

	cfg          Config
	rng          *rand.Rand
	root         *zone.Zone
	rootSrv      *server.Server
	tlds         map[string]*tldInfra
	ops          map[string]*opInfra
	strayKey     *dnssec.Key // source of orphan/errant DS material
	opIndex      int
	variantCount int
	// nsData holds one NS payload per nameserver host, shared by every
	// delegation and apex NS set that names it.
	nsData map[string]*dnswire.NS
}

type tldInfra struct {
	name string // e.g. "com"
	zone *zone.Zone
	srv  *server.Server
	addr netip.Addr
}

type opInfra struct {
	profile    Profile
	tldMix     tldMix
	srv        *server.Server
	variantSrv *server.Server
	hosts      []string
	hostAddrs  map[string][]netip.Addr
	baseZones  map[string]*zone.Zone // registrable base -> zone
	// signalZones maps NS host -> its _signal zone (AB operators).
	signalZones map[string]*zone.Zone
	// corruption lists applied after the signal zones are signed.
	badSigOwners  []string
	expiredOwners []string
	variantHost   string
	counter       int
}

// tlds hosted by the synthetic registries. co.uk and com.bo are
// second-level registry zones created alongside uk and bo.
var tldList = []string{
	"com", "net", "org", "info", "biz", "xyz", "online", "shop", "top", "site",
	"ch", "li", "swiss", "whoswho", "se", "nu", "ee", "sk", "de", "nl", "eu",
	"uk", "bo", "vip", "gov", "io", "digital", "box",
}

var secondLevelRegistries = map[string]string{"co.uk": "uk", "com.bo": "bo"}

// defaultTLDWeights is the target-zone TLD mix for operators without
// their own bias.
var defaultTLDWeights = map[string]int{
	"com": 48, "net": 10, "org": 8, "info": 5, "xyz": 5, "online": 4,
	"shop": 4, "top": 4, "site": 3, "biz": 3, "de": 2, "co.uk": 2,
	"nl": 1, "se": 1,
}

// Generate builds the world.
func Generate(cfg Config) (*Ecosystem, error) {
	if cfg.ScaleDivisor <= 0 {
		cfg.ScaleDivisor = 2000
	}
	if cfg.Now.IsZero() {
		cfg.Now = time.Date(2025, 4, 15, 12, 0, 0, 0, time.UTC)
	}
	if cfg.Profiles == nil {
		cfg.Profiles = Profiles()
	}
	eco := &Ecosystem{
		Net:                transport.NewMemNetwork(),
		Truth:              make(map[string]*Truth),
		Now:                cfg.Now,
		CloudflareSuffixes: []string{"ns.cloudflare.com."},
		cfg:                cfg,
		rng:                rand.New(rand.NewSource(cfg.Seed)),
		tlds:               make(map[string]*tldInfra),
		ops:                make(map[string]*opInfra),
		nsData:             make(map[string]*dnswire.NS),
	}
	stray, err := dnssec.GenerateKey(dnswire.AlgEd25519, dnswire.DNSKEYFlagZone|dnswire.DNSKEYFlagSEP, eco.rng)
	if err != nil {
		return nil, err
	}
	eco.strayKey = stray

	if err := eco.buildRoot(); err != nil {
		return nil, err
	}
	if err := eco.buildTLDs(); err != nil {
		return nil, err
	}
	if err := eco.buildParking(); err != nil {
		return nil, err
	}
	for _, p := range cfg.Profiles {
		if err := eco.buildOperator(p); err != nil {
			return nil, err
		}
	}
	for _, p := range cfg.Profiles {
		if err := eco.addTargets(p); err != nil {
			return nil, err
		}
	}
	if err := eco.finalize(); err != nil {
		return nil, err
	}
	eco.rng.Shuffle(len(eco.Targets), func(i, j int) {
		eco.Targets[i], eco.Targets[j] = eco.Targets[j], eco.Targets[i]
	})
	return eco, nil
}

// scaled divides a paper count by the configured divisor, rounding to
// nearest but never scaling a non-zero count to zero.
func (e *Ecosystem) scaled(n int) int {
	if n <= 0 {
		return 0
	}
	v := (n + e.cfg.ScaleDivisor/2) / e.cfg.ScaleDivisor
	if v < 1 {
		return 1
	}
	return v
}

const signCfgAlg = dnswire.AlgEd25519

// ns returns the shared NS payload naming host. Zones treat RDATA as
// immutable once added, so one payload serves every record.
func (e *Ecosystem) ns(host string) *dnswire.NS {
	d := e.nsData[host]
	if d == nil {
		d = dnswire.NewNS(host)
		e.nsData[host] = d
	}
	return d
}

// The RDATA of every generated zone's web records, shared as ns shares
// NS payloads.
var (
	webApexA = &dnswire.A{Addr: netip.MustParseAddr("203.0.113.10")}
	webWWWA  = &dnswire.A{Addr: netip.MustParseAddr("203.0.113.11")}
	webMailA = &dnswire.A{Addr: netip.MustParseAddr("203.0.113.25")}
	webSPF   = &dnswire.TXT{Strings: []string{"v=spf1 mx -all"}}
	webCAA   = &dnswire.CAA{Flags: 0, Tag: "issue", Value: "ca.example.net"}
)

func (e *Ecosystem) signCfg() zone.SignConfig {
	return zone.SignConfig{Now: e.Now, Algorithm: signCfgAlg}
}

func (e *Ecosystem) buildRoot() error {
	rootAddr := netip.MustParseAddr("198.41.0.4")
	e.root = zone.New(".")
	e.root.SetBasics("a.root-servers.net.", []string{"a.root-servers.net."}, 2025041500)
	e.root.MustAdd(dnswire.RR{Name: "root-servers.net.", TTL: 518400, Data: dnswire.NewNS("a.root-servers.net.")})
	e.root.MustAdd(dnswire.RR{Name: "a.root-servers.net.", TTL: 518400, Data: &dnswire.A{Addr: rootAddr}})
	if err := e.root.GenerateKeys(e.signCfg(), e.rng); err != nil {
		return err
	}
	e.rootSrv = server.New(e.cfg.Seed)
	e.rootSrv.AddZone(e.root)
	e.Net.Register(rootAddr, e.rootSrv)
	e.Roots = []netip.AddrPort{netip.AddrPortFrom(rootAddr, 53)}
	return nil
}

func (e *Ecosystem) buildTLDs() error {
	for i, name := range tldList {
		origin := name + "."
		addr := netip.AddrFrom4([4]byte{172, 16, byte(i + 1), 1})
		z := zone.New(origin)
		ns1 := "ns1.nic." + origin
		z.SetBasics(ns1, []string{ns1}, 2025041500)
		z.MustAdd(dnswire.RR{Name: ns1, TTL: 172800, Data: &dnswire.A{Addr: addr}})
		if err := z.GenerateKeys(e.signCfg(), e.rng); err != nil {
			return err
		}
		srv := server.New(e.cfg.Seed + int64(i))
		srv.AddZone(z)
		e.Net.Register(addr, srv)
		e.tlds[name] = &tldInfra{name: name, zone: z, srv: srv, addr: addr}

		// Delegate from the root with glue and (later) DS.
		e.root.MustAdd(dnswire.RR{Name: origin, TTL: 172800, Data: dnswire.NewNS(ns1)})
		e.root.MustAdd(dnswire.RR{Name: ns1, TTL: 172800, Data: &dnswire.A{Addr: addr}})
		if err := e.addDSTo(e.root, origin, z); err != nil {
			return err
		}
	}
	// Second-level registries (co.uk under uk, com.bo under bo) hosted
	// on the parent registry's server. Iterate in sorted order: ranging
	// the map directly would consume e.rng in per-process-random order,
	// giving the registries different keys from run to run and breaking
	// the seed-determines-world guarantee.
	subs := make([]string, 0, len(secondLevelRegistries))
	for sub := range secondLevelRegistries {
		subs = append(subs, sub)
	}
	sort.Strings(subs)
	for _, sub := range subs {
		parent := secondLevelRegistries[sub]
		origin := sub + "."
		p := e.tlds[parent]
		z := zone.New(origin)
		ns1 := "ns1.nic." + parent + "."
		z.SetBasics(ns1, []string{ns1}, 2025041500)
		if err := z.GenerateKeys(e.signCfg(), e.rng); err != nil {
			return err
		}
		p.srv.AddZone(z)
		p.zone.MustAdd(dnswire.RR{Name: origin, TTL: 172800, Data: dnswire.NewNS(ns1)})
		if err := e.addDSTo(p.zone, origin, z); err != nil {
			return err
		}
		e.tlds[sub] = &tldInfra{name: sub, zone: z, srv: p.srv, addr: p.addr}
	}
	return nil
}

// addDSTo computes the child's DS from its KSK and inserts it into the
// parent zone.
func (e *Ecosystem) addDSTo(parent *zone.Zone, child string, childZone *zone.Zone) error {
	if len(childZone.Keys) == 0 {
		return fmt.Errorf("ecosystem: %s has no keys", child)
	}
	ksk := childZone.Keys[0]
	ds, err := dnssec.DSFromKey(child, ksk.DNSKEY(), dnswire.DigestSHA256)
	if err != nil {
		return err
	}
	return parent.Add(dnswire.RR{Name: child, TTL: 86400, Data: ds})
}

// buildParking installs the Afternic-style parking service: desc.io
// (the famous typo target) and namefind.com resolve to a handler that
// answers every query identically, faking zone cuts (§4.4).
func (e *Ecosystem) buildParking() error {
	parkAddr := netip.MustParseAddr("203.0.113.53")
	park := &server.Parking{
		NSHosts: []string{"ns1.namefind.com.", "ns2.namefind.com."},
		Addr:    parkAddr,
	}
	e.Net.Register(parkAddr, park)
	for base, tld := range map[string]string{"desc.io.": "io", "namefind.com.": "com"} {
		tz := e.tlds[tld].zone
		for _, h := range park.NSHosts {
			tz.MustAdd(dnswire.RR{Name: base, TTL: 172800, Data: dnswire.NewNS(h)})
		}
	}
	// Glue for the parking NS hostnames in com.
	for _, h := range []string{"ns1.namefind.com.", "ns2.namefind.com."} {
		e.tlds["com"].zone.MustAdd(dnswire.RR{Name: h, TTL: 172800, Data: &dnswire.A{Addr: parkAddr}})
	}
	return nil
}

func (e *Ecosystem) buildOperator(p Profile) error {
	idx := e.opIndex
	e.opIndex++
	op := &opInfra{
		profile:     p,
		tldMix:      newTLDMix(p.TLDWeights),
		srv:         server.New(e.cfg.Seed + 1000 + int64(idx)),
		hosts:       make([]string, len(p.NSHosts)),
		hostAddrs:   make(map[string][]netip.Addr),
		baseZones:   make(map[string]*zone.Zone),
		signalZones: make(map[string]*zone.Zone),
	}
	op.srv.Behavior = p.Behavior
	for i, h := range p.NSHosts {
		op.hosts[i] = dnswire.CanonicalName(h)
	}

	// Address plan: each operator owns 10.<idx/250+1>.<idx%250>.0/24;
	// Cloudflare-style operators use an anycast prefix instead.
	addrsPerHost := p.AddrsPerHost
	if addrsPerHost <= 0 {
		addrsPerHost = 1
	}
	if p.Anycast {
		v4 := netip.MustParsePrefix("104.16.0.0/16")
		v6 := netip.MustParsePrefix("2001:db8:c10f::/48")
		e.Net.RegisterPrefix(v4, op.srv)
		e.Net.RegisterPrefix(v6, op.srv)
		for j, h := range op.hosts {
			for k := 0; k < addrsPerHost; k++ {
				op.hostAddrs[h] = append(op.hostAddrs[h],
					netip.AddrFrom4([4]byte{104, 16, byte(j + 1), byte(k + 1)}))
			}
			if p.V6 {
				for k := 0; k < addrsPerHost; k++ {
					a16 := [16]byte{0x20, 0x01, 0x0d, 0xb8, 0xc1, 0x0f, 0, byte(j + 1)}
					a16[15] = byte(k + 1)
					op.hostAddrs[h] = append(op.hostAddrs[h], netip.AddrFrom16(a16))
				}
			}
		}
	} else {
		for j, h := range op.hosts {
			a := netip.AddrFrom4([4]byte{10, byte(idx/250 + 1), byte(idx % 250), byte(j + 1)})
			op.hostAddrs[h] = []netip.Addr{a}
			e.Net.Register(a, op.srv)
		}
	}

	// Base zones: one per registrable base among the NS hostnames,
	// holding the hosts' address records, signed and secured.
	for _, h := range op.hosts {
		base := baseOf(h)
		if op.baseZones[base] != nil {
			continue
		}
		bz := zone.New(base)
		bz.SetBasics(op.hosts[0], op.hosts[:min(2, len(op.hosts))], 2025041500)
		if err := bz.GenerateKeys(e.signCfg(), e.rng); err != nil {
			return err
		}
		op.baseZones[base] = bz
		op.srv.AddZone(bz)
		// Register in its TLD with glue for in-zone NS hosts.
		tld := tldOf(base)
		ti, ok := e.tlds[tld]
		if !ok {
			return fmt.Errorf("ecosystem: no registry for TLD %q (base %s)", tld, base)
		}
		for _, nh := range op.hosts[:min(2, len(op.hosts))] {
			ti.zone.MustAdd(dnswire.RR{Name: base, TTL: 172800, Data: dnswire.NewNS(nh)})
			if dnswire.IsSubdomain(nh, base) {
				for _, a := range op.hostAddrs[nh] {
					ti.zone.MustAdd(dnswire.RR{Name: nh, TTL: 172800, Data: addrRR(a)})
				}
			}
		}
		if err := e.addDSTo(ti.zone, base, bz); err != nil {
			return err
		}
	}
	// Host address records inside their base zones.
	for _, h := range op.hosts {
		bz := op.baseZones[baseOf(h)]
		for _, a := range op.hostAddrs[h] {
			bz.MustAdd(dnswire.RR{Name: h, TTL: 3600, Data: addrRR(a)})
		}
	}

	// Signal zones for AB operators: one secure zone per NS host,
	// delegated (with DS) from the host's base zone.
	if p.SignalOperator {
		for _, h := range op.hosts {
			sz := zone.New(zone.SignalZoneName(h))
			sz.SetBasics(op.hosts[0], op.hosts[:min(2, len(op.hosts))], 2025041500)
			if err := sz.GenerateKeys(e.signCfg(), e.rng); err != nil {
				return err
			}
			op.signalZones[h] = sz
			op.srv.AddZone(sz)
			bz := op.baseZones[baseOf(h)]
			for _, nh := range op.hosts[:min(2, len(op.hosts))] {
				bz.MustAdd(dnswire.RR{Name: sz.Origin, TTL: 3600, Data: dnswire.NewNS(nh)})
			}
			if err := e.addDSTo(bz, sz.Origin, sz); err != nil {
				return err
			}
		}
	}
	e.ops[p.Name] = op
	return nil
}

func addrRR(a netip.Addr) dnswire.RData {
	if a.Is4() {
		return &dnswire.A{Addr: a}
	}
	return &dnswire.AAAA{Addr: a}
}

func tldOf(base string) string {
	labels := dnswire.SplitLabels(base)
	return labels[len(labels)-1]
}

// ensureVariant creates the operator's variant server and extra NS
// host, used by single-operator CDS inconsistencies.
func (e *Ecosystem) ensureVariant(op *opInfra) error {
	if op.variantSrv != nil {
		return nil
	}
	e.variantCount++
	op.variantSrv = server.New(e.cfg.Seed + 5000 + int64(e.variantCount))
	base := baseOf(op.hosts[0])
	op.variantHost = "nsx." + base
	a := netip.AddrFrom4([4]byte{10, 200, byte(e.variantCount % 250), byte(e.variantCount / 250)})
	op.hostAddrs[op.variantHost] = []netip.Addr{a}
	e.Net.Register(a, op.variantSrv)
	op.baseZones[base].MustAdd(dnswire.RR{Name: op.variantHost, TTL: 3600, Data: &dnswire.A{Addr: a}})
	return nil
}

func (e *Ecosystem) addTargets(p Profile) error {
	op := e.ops[p.Name]
	segs := append([]Segment(nil), p.Segments...)
	var explicit int
	for _, s := range segs {
		explicit += s.N
	}
	if rest := p.Total - explicit; rest > 0 {
		segs = append(segs, seg(rest, ZoneSpec{State: StateUnsigned}))
	}
	for _, s := range segs {
		n := e.scaled(s.N)
		for i := 0; i < n; i++ {
			if err := e.addZone(op, s.Spec); err != nil {
				return err
			}
		}
	}
	return nil
}

// tldMix is an operator's TLD weights, keys sorted once so that every
// zone's pick walks them in the same order.
type tldMix struct {
	tlds    []string
	weights []int
	total   int
}

func newTLDMix(w map[string]int) tldMix {
	if w == nil {
		w = defaultTLDWeights
	}
	tlds := make([]string, 0, len(w))
	for k := range w {
		tlds = append(tlds, k)
	}
	sort.Strings(tlds)
	m := tldMix{tlds: tlds}
	for _, k := range tlds {
		m.weights = append(m.weights, w[k])
		m.total += w[k]
	}
	return m
}

// pick deterministically selects the TLD of the operator's counter-th
// zone per the weights.
func (m tldMix) pick(counter int) string {
	pick := counter % m.total
	for i, tld := range m.tlds {
		pick -= m.weights[i]
		if pick < 0 {
			return tld
		}
	}
	return m.tlds[0]
}

func (e *Ecosystem) addZone(op *opInfra, spec ZoneSpec) error {
	p := op.profile
	idx := op.counter
	op.counter++

	tld := op.tldMix.pick(idx)
	if spec.ParkingNS {
		tld = "com.bo"
	}
	name := fmt.Sprintf("%s-z%06d.%s.", p.Slug, idx, tld)
	ti := e.tlds[tld]

	// NS host selection.
	h0 := op.hosts[(2*idx)%len(op.hosts)]
	h1 := op.hosts[(2*idx+1)%len(op.hosts)]
	parentNS := []string{h0, h1}
	childNS := parentNS
	var partner *opInfra
	switch {
	case spec.ParkingNS:
		parentNS = []string{h0, "ns1.desc.io."}
		childNS = parentNS
	case spec.MultiOperator != "":
		partner = e.ops[spec.MultiOperator]
		if partner == nil {
			return fmt.Errorf("ecosystem: unknown partner operator %q", spec.MultiOperator)
		}
		parentNS = []string{h0, partner.hosts[0]}
		childNS = parentNS
	case spec.CDSInconsistent:
		if err := e.ensureVariant(op); err != nil {
			return err
		}
		parentNS = []string{h0, op.variantHost}
		childNS = parentNS
	case spec.SignalAnomaly == SigNSMismatch:
		h2 := op.hosts[(2*idx+2)%len(op.hosts)]
		childNS = []string{h0, h2} // differs from the TLD's view
	}

	// Delegation in the registry.
	for _, nh := range parentNS {
		ti.zone.MustAdd(dnswire.RR{Name: name, TTL: 86400, Data: e.ns(nh)})
	}

	// The child zone itself: a realistic small web presence.
	z := zone.New(name)
	z.SetBasics(childNS[0], nil, uint32(2025041500+idx%1000))
	for _, h := range childNS {
		z.MustAdd(dnswire.RR{Name: name, TTL: 3600, Data: e.ns(h)})
	}
	z.MustAdd(dnswire.RR{Name: name, TTL: 3600, Data: webApexA})
	z.MustAdd(dnswire.RR{Name: "www." + name, TTL: 3600, Data: webWWWA})
	if idx%3 == 0 {
		mail := "mail." + name
		z.MustAdd(dnswire.RR{Name: name, TTL: 3600, Data: &dnswire.MX{Preference: 10, Host: mail}})
		z.MustAdd(dnswire.RR{Name: mail, TTL: 3600, Data: webMailA})
		z.MustAdd(dnswire.RR{Name: name, TTL: 3600, Data: webSPF})
	}
	if idx%7 == 0 {
		z.MustAdd(dnswire.RR{Name: name, TTL: 3600, Data: webCAA})
	}

	signed := spec.State == StateSecured || spec.State == StateIsland ||
		(spec.State == StateInvalid && !spec.ErrantDS)
	if signed {
		if err := z.GenerateKeys(e.signCfg(), e.rng); err != nil {
			return err
		}
		if err := e.installCDS(z, spec.CDS, p); err != nil {
			return err
		}
		sc := e.signCfg()
		sc.Expired = spec.State == StateInvalid
		if err := z.Sign(sc); err != nil {
			return err
		}
		if spec.CDS == CDSBadSig {
			corruptSigsAt(z, name, dnswire.TypeCDS)
			corruptSigsAt(z, name, dnswire.TypeCDNSKEY)
		}
	} else if spec.CDS != CDSNone {
		// CDS in an unsigned zone (§4.2, Canal Dominios).
		if err := e.installCDS(z, spec.CDS, p); err != nil {
			return err
		}
	}

	// DS at the parent.
	switch {
	case spec.State == StateSecured, spec.State == StateInvalid && !spec.ErrantDS:
		if err := e.addDSTo(ti.zone, name, z); err != nil {
			return err
		}
	case spec.ErrantDS:
		ds, err := dnssec.DSFromKey(name, e.strayKey.DNSKEY(), dnswire.DigestSHA256)
		if err != nil {
			return err
		}
		ti.zone.MustAdd(dnswire.RR{Name: name, TTL: 86400, Data: ds})
	}

	op.srv.AddZone(z)

	// Inconsistent-CDS variants served by the second operator or the
	// variant server.
	if spec.CDSInconsistent {
		v := z.Clone()
		v.Keys = nil
		if err := v.GenerateKeys(e.signCfg(), e.rng); err != nil {
			return err
		}
		v.RemoveSet(name, dnswire.TypeCDS)
		v.RemoveSet(name, dnswire.TypeCDNSKEY)
		if err := v.PublishCDS(dnswire.DigestSHA256); err != nil {
			return err
		}
		sc := e.signCfg()
		if err := v.Sign(sc); err != nil {
			return err
		}
		if partner != nil {
			partner.srv.AddZone(v)
		} else {
			op.variantSrv.AddZone(v)
		}
	} else if partner != nil {
		// Consistent multi-operator zone: the partner serves an
		// identical copy.
		partner.srv.AddZone(z)
	}

	// RFC 9615 signal records.
	if spec.Signal && p.SignalOperator {
		if err := e.publishSignals(op, z, spec, childNS); err != nil {
			return err
		}
	}

	z.Build()
	e.Targets = append(e.Targets, name)
	e.Truth[name] = &Truth{Zone: name, Operator: p.Name, TLD: tld, Spec: spec}
	return nil
}

// installCDS publishes the zone's CDS/CDNSKEY per the spec.
func (e *Ecosystem) installCDS(z *zone.Zone, mode CDSMode, p Profile) error {
	switch mode {
	case CDSNone:
		return nil
	case CDSMatch, CDSBadSig:
		digests := []uint8{dnswire.DigestSHA256}
		if p.Name == "deSEC" {
			// deSEC publishes SHA-256 and SHA-384 CDS plus CDNSKEY
			// (§4.4's signal-zone size accounting relies on this).
			digests = append(digests, dnswire.DigestSHA384)
		}
		if len(z.Keys) == 0 {
			return fmt.Errorf("ecosystem: CDSMatch on keyless zone %s", z.Origin)
		}
		return z.PublishCDS(digests...)
	case CDSDelete:
		z.PublishDeleteCDS()
		return nil
	case CDSOrphan:
		cds, err := dnssec.CDSFromKey(z.Origin, e.strayKey.DNSKEY(), dnswire.DigestSHA256)
		if err != nil {
			return err
		}
		z.RemoveSet(z.Origin, dnswire.TypeCDS)
		z.RemoveSet(z.Origin, dnswire.TypeCDNSKEY)
		z.MustAdd(dnswire.RR{Name: z.Origin, Class: dnswire.ClassIN, TTL: 3600, Data: cds})
		z.MustAdd(dnswire.RR{Name: z.Origin, Class: dnswire.ClassIN, TTL: 3600,
			Data: &dnswire.CDNSKEY{DNSKEY: *e.strayKey.DNSKEY()}})
		return nil
	}
	return fmt.Errorf("ecosystem: unhandled CDS mode %v", mode)
}

// publishSignals copies the zone's CDS/CDNSKEY content into the signal
// zones of the operator's nameservers, honouring the injected anomaly.
func (e *Ecosystem) publishSignals(op *opInfra, z *zone.Zone, spec ZoneSpec, childNS []string) error {
	content := append(z.RRset(z.Origin, dnswire.TypeCDS), z.RRset(z.Origin, dnswire.TypeCDNSKEY)...)
	if len(content) == 0 {
		// Zones without in-zone CDS (e.g. the unsigned-with-signal
		// population) still show stray signal records in the wild.
		cds, err := dnssec.CDSFromKey(z.Origin, e.strayKey.DNSKEY(), dnswire.DigestSHA256)
		if err != nil {
			return err
		}
		content = []dnswire.RR{{Name: z.Origin, Class: dnswire.ClassIN, TTL: 3600, Data: cds}}
	}
	if dnssec.IsDeleteSet(content) && !op.profile.SignalDeletes {
		return nil // deSEC filters deletion requests out of signal zones
	}
	hosts := childNS
	if spec.SignalAnomaly == SigMissingOneNS {
		hosts = childNS[:1]
	}
	for _, h := range hosts {
		sz := op.signalZones[dnswire.CanonicalName(h)]
		if sz == nil {
			continue // not this operator's host (multi-operator, typo NS)
		}
		recs, err := zone.SignalRecords(z.Origin, h, content)
		if err != nil {
			continue // name too long: cannot be signalled (§2)
		}
		for _, rr := range recs {
			if err := sz.Add(rr); err != nil {
				return err
			}
		}
		switch spec.SignalAnomaly {
		case SigBadSig:
			op.badSigOwners = append(op.badSigOwners, recs[0].Name)
		case SigExpiredSig:
			op.expiredOwners = append(op.expiredOwners, recs[0].Name)
		default:
			// SigOK and the structural anomalies (zone cut, NS subset,
			// unsigned zone) are applied when the signal zone itself is
			// built, not per signalled owner.
		}
	}
	return nil
}

// finalize signs the infrastructure zones (children first so parents
// sign final DS sets), applies signal corruptions, and derives the
// trust anchor.
func (e *Ecosystem) finalize() error {
	for _, op := range e.ops {
		for _, sz := range op.signalZones {
			if err := sz.Sign(e.signCfg()); err != nil {
				return err
			}
		}
		for _, owner := range op.badSigOwners {
			sz := op.signalZones[signalZoneOf(op, owner)]
			if sz != nil {
				corruptSigsAt(sz, owner, dnswire.TypeCDS)
				corruptSigsAt(sz, owner, dnswire.TypeCDNSKEY)
			}
		}
		for _, owner := range op.expiredOwners {
			sz := op.signalZones[signalZoneOf(op, owner)]
			if sz != nil {
				if err := expireSigsAt(sz, owner, e.Now); err != nil {
					return err
				}
			}
		}
		for _, sz := range op.signalZones {
			sz.Build()
		}
		for _, bz := range op.baseZones {
			if err := bz.Sign(e.signCfg()); err != nil {
				return err
			}
		}
	}
	bigCfg := e.signCfg()
	bigCfg.SkipNSEC = true
	for _, ti := range e.tlds {
		if err := ti.zone.Sign(bigCfg); err != nil {
			return err
		}
	}
	if err := e.root.Sign(e.signCfg()); err != nil {
		return err
	}
	rootDS, err := dnssec.DSFromKey(".", e.root.Keys[0].DNSKEY(), dnswire.DigestSHA256)
	if err != nil {
		return err
	}
	e.TrustAnchor = []dnswire.RR{{Name: ".", Class: dnswire.ClassIN, TTL: 0, Data: rootDS}}
	return nil
}

// signalZoneOf finds which of the operator's signal zones contains
// owner.
func signalZoneOf(op *opInfra, owner string) string {
	for h, sz := range op.signalZones {
		if dnswire.IsSubdomain(owner, sz.Origin) {
			return h
		}
	}
	return ""
}

// corruptSigsAt flips bits in every RRSIG over (owner, covered),
// leaving the records and other signatures intact.
func corruptSigsAt(z *zone.Zone, owner string, covered dnswire.Type) {
	sigs := z.RRset(owner, dnswire.TypeRRSIG)
	if len(sigs) == 0 {
		return
	}
	z.RemoveSet(owner, dnswire.TypeRRSIG)
	for _, rr := range sigs {
		sig := rr.Data.(*dnswire.RRSIG)
		if sig.TypeCovered == covered && len(sig.Signature) > 0 {
			dup := *sig
			dup.Signature = append([]byte(nil), sig.Signature...)
			dup.Signature[0] ^= 0xFF
			rr.Data = &dup
		}
		z.MustAdd(rr)
	}
}

// expireSigsAt re-signs every RRset at owner with an already-expired
// validity window (the decayed-test-zone case of §4.4).
func expireSigsAt(z *zone.Zone, owner string, now time.Time) error {
	if len(z.Keys) == 0 {
		return fmt.Errorf("ecosystem: cannot expire sigs in keyless zone %s", z.Origin)
	}
	_, zsk := zoneKeysOf(z)
	opts := dnssec.ExpiredWindow(now, z.Origin)
	z.RemoveSet(owner, dnswire.TypeRRSIG)
	for _, typ := range z.TypesAt(owner) {
		if typ == dnswire.TypeRRSIG {
			continue
		}
		set := z.RRset(owner, typ)
		sig, err := dnssec.SignRRset(set, zsk, opts)
		if err != nil {
			return err
		}
		z.MustAdd(sig)
	}
	return nil
}

func zoneKeysOf(z *zone.Zone) (ksk, zsk *dnssec.Key) {
	for _, k := range z.Keys {
		if k.IsSEP() && ksk == nil {
			ksk = k
		}
		if !k.IsSEP() && zsk == nil {
			zsk = k
		}
	}
	if ksk == nil {
		ksk = zsk
	}
	if zsk == nil {
		zsk = ksk
	}
	return
}

// Operators lists the generated operator names.
func (e *Ecosystem) Operators() []string {
	out := make([]string, 0, len(e.ops))
	for name := range e.ops {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// OperatorServer exposes an operator's primary server (tests).
func (e *Ecosystem) OperatorServer(name string) *server.Server {
	if op := e.ops[name]; op != nil {
		return op.srv
	}
	return nil
}

// TLDZone exposes a registry zone (tests and the bootstrap example).
func (e *Ecosystem) TLDZone(tld string) *zone.Zone {
	if ti := e.tlds[tld]; ti != nil {
		return ti.zone
	}
	return nil
}

// SignalZoneStats describes one operator's signal-zone footprint — the
// §4.4 estimate ("the number of signal RRs … is only on the order of
// 43.9 k … at most on the order of 6 MiB each").
type SignalZoneStats struct {
	Operator  string
	Zones     int // signal zones (one per NS host)
	Records   int // total records across them (incl. DNSSEC)
	SignalRRs int // CDS/CDNSKEY signalling records only
	TextBytes int // uncompressed master-file size
}

// SignalZoneFootprint computes the per-operator signal-zone sizes.
//
//lint:allow unused §4.4's footprint artefact: BenchmarkSignalZoneFootprint prints it
func (e *Ecosystem) SignalZoneFootprint() []SignalZoneStats {
	var out []SignalZoneStats
	for _, name := range e.Operators() {
		op := e.ops[name]
		if len(op.signalZones) == 0 {
			continue
		}
		st := SignalZoneStats{Operator: name, Zones: len(op.signalZones)}
		for _, sz := range op.signalZones {
			st.Records += sz.Size()
			for _, n := range sz.Names() {
				for _, t := range []dnswire.Type{dnswire.TypeCDS, dnswire.TypeCDNSKEY} {
					st.SignalRRs += len(sz.RRset(n, t))
				}
			}
			st.TextBytes += len(sz.Text())
		}
		out = append(out, st)
	}
	return out
}
