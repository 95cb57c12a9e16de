package ecosystem

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"time"

	"dnssecboot/internal/dnssec"
	"dnssecboot/internal/dnswire"
	"dnssecboot/internal/ordered"
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
	// Truth maps each target to its ground truth. The zones of one
	// operator, registry and ZoneSpec share one *Truth.
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
	// delegations holds the target zones' NS and DS records, in publish
	// order; finalize adds them to the zone in one step.
	delegations []dnswire.RR
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
	signalZones map[string]*signalZone
	variantHost string
	counter     int
}

// signalZone is one of an AB operator's _signal zones, with the signal
// records publish collects for it and the signal owners whose
// signatures finalize corrupts or expires once it is signed.
type signalZone struct {
	zone          *zone.Zone
	records       []dnswire.RR
	badSigOwners  []string
	expiredOwners []string
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

// Generate builds the world. The infrastructure (root, registries,
// operators and their keys) is built first, sequentially; then the
// target zones pass through three phases:
//
//   - plan, sequential: every choice that depends on generation order —
//     each zone's name, nameservers, variant server and key seeds, drawn
//     from the one seeded stream in the order a one-pass build drew them;
//   - materialise, on GOMAXPROCS goroutines: each zone's keys, records,
//     signatures and variant, from its plan alone;
//   - publish, sequential in plan order: what zones share — registry
//     delegations and DS, signal records, servers, Truth and Targets.
//
// Last, finalize signs the infrastructure zones on the same pool of
// goroutines, and the targets are shuffled. The world's bytes do not
// depend on GOMAXPROCS, and no goroutine outlives the call.
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
	if err := eco.addTargets(); err != nil {
		return nil, err
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
		signalZones: make(map[string]*signalZone),
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
			op.signalZones[h] = &signalZone{zone: sz}
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

// addTargets builds every operator's target zones: planned one by one
// in profile and segment order, materialised in parallel, published in
// plan order (see Generate).
func (e *Ecosystem) addTargets() error {
	pl := &planner{e: e, truths: make(map[Truth]*Truth), runTruths: make(map[string]*Truth)}
	total := 0
	for _, p := range e.cfg.Profiles {
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
			pl.runs = append(pl.runs, segmentRun{op: op, spec: s.Spec, n: n})
			total += n
		}
	}
	e.Targets = make([]string, 0, total)
	e.Truth = make(map[string]*Truth, total)
	// Size each registry's delegations for its zones' NS and DS records,
	// and each operator's and partner's server for the zones it will
	// hold, so that publishing grows neither step by step.
	zones := make(map[*tldInfra]int)
	counters := make(map[*opInfra]int)
	held := make(map[*server.Server]int)
	for _, r := range pl.runs {
		for range r.n {
			zones[e.tlds[registryOf(r.op, r.spec, counters[r.op])]]++
			counters[r.op]++
		}
		held[r.op.srv] += r.n
		if partner := e.ops[r.spec.MultiOperator]; partner != nil {
			held[partner.srv] += r.n
		}
	}
	for ti, n := range zones {
		ti.delegations = make([]dnswire.RR, 0, 3*n)
	}
	for srv, n := range held {
		srv.Reserve(n)
	}
	_, err := ordered.Map(context.Background(), runtime.GOMAXPROCS(0), pl.next,
		func(_ context.Context, p zonePlan) builtZone {
			b := builtZone{plan: p}
			b.err = e.materialise(&b)
			return b
		},
		func(_ int, b builtZone) error { return e.publish(b) })
	if err != nil {
		return err
	}
	return pl.err
}

// segmentRun is n zones of one operator and spec, in generation order.
type segmentRun struct {
	op   *opInfra
	spec ZoneSpec
	n    int
}

// planner walks the target zones in generation order, making each
// one's order-dependent choices. It runs alongside materialise and
// publish: it alone touches the seeded stream, the operators' counters
// and variant infrastructure, the shared NS payloads and truths, and
// publish alone the registries, signal zones, servers, Truth and
// Targets.
type planner struct {
	e      *Ecosystem
	runs   []segmentRun
	run, i int // the next zone is the i-th of runs[run]
	truths map[Truth]*Truth
	// runTruths holds the current run's truths by registry, so that the
	// shared truths are looked up once per run and registry.
	runTruths map[string]*Truth
	err       error
}

// next plans the next zone; at the end, or on an error kept in err, it
// returns false.
func (pl *planner) next() (zonePlan, bool) {
	for pl.run < len(pl.runs) && pl.i == pl.runs[pl.run].n {
		pl.run, pl.i = pl.run+1, 0
		clear(pl.runTruths)
	}
	if pl.run == len(pl.runs) || pl.err != nil {
		return zonePlan{}, false
	}
	pl.i++
	r := pl.runs[pl.run]
	p, err := pl.plan(r.op, r.spec)
	if err != nil {
		pl.err = err
		return zonePlan{}, false
	}
	return p, true
}

// zonePlan is everything a target zone's bytes depend on that is not
// its own: what it shares with other zones, and the key seeds drawn for
// it. A zone is materialised from its plan alone.
type zonePlan struct {
	op       *opInfra
	truth    *Truth
	registry *tldInfra
	name     string
	idx      int // the zone's index among its operator's
	parentNS [2]*dnswire.NS
	childNS  [2]*dnswire.NS
	// copyTo also serves the zone (a multi-operator partner's server)
	// or, with CDSInconsistent, its variant (the partner's or the
	// operator's variant server); nil for neither.
	copyTo *server.Server
	// seeds holds 32-byte Ed25519 key seeds, read in order: the zone's
	// KSK and ZSK if it is signed, then its variant's; nil for none.
	seeds *bytes.Reader
}

// signed reports whether a zone of this spec is DNSSEC-signed.
func (s ZoneSpec) signed() bool {
	return s.State == StateSecured || s.State == StateIsland || (s.State == StateInvalid && !s.ErrantDS)
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

// plan makes the order-dependent choices of op's next zone of spec.
func (pl *planner) plan(op *opInfra, spec ZoneSpec) (zonePlan, error) {
	e := pl.e
	idx := op.counter
	op.counter++

	tld := registryOf(op, spec, idx)
	p := zonePlan{op: op, registry: e.tlds[tld], idx: idx, name: zoneName(op.profile.Slug, idx, tld)}

	// NS host selection.
	h0 := op.hosts[(2*idx)%len(op.hosts)]
	h1 := op.hosts[(2*idx+1)%len(op.hosts)]
	parentNS := [2]string{h0, h1}
	childNS := parentNS
	switch {
	case spec.ParkingNS:
		parentNS = [2]string{h0, "ns1.desc.io."}
		childNS = parentNS
	case spec.MultiOperator != "":
		partner := e.ops[spec.MultiOperator]
		if partner == nil {
			return p, fmt.Errorf("ecosystem: unknown partner operator %q", spec.MultiOperator)
		}
		parentNS = [2]string{h0, partner.hosts[0]}
		childNS = parentNS
		p.copyTo = partner.srv
	case spec.CDSInconsistent:
		if err := e.ensureVariant(op); err != nil {
			return p, err
		}
		parentNS = [2]string{h0, op.variantHost}
		childNS = parentNS
		p.copyTo = op.variantSrv
	case spec.SignalAnomaly == SigNSMismatch:
		h2 := op.hosts[(2*idx+2)%len(op.hosts)]
		childNS = [2]string{h0, h2} // differs from the TLD's view
	}
	for i := range parentNS {
		p.parentNS[i], p.childNS[i] = e.ns(parentNS[i]), e.ns(childNS[i])
	}

	n := 0
	if spec.signed() {
		n += 64
	}
	if spec.CDSInconsistent {
		n += 64
	}
	if n > 0 {
		seeds := make([]byte, n)
		if _, err := io.ReadFull(e.rng, seeds); err != nil {
			return p, err
		}
		p.seeds = bytes.NewReader(seeds)
	}

	if p.truth = pl.runTruths[tld]; p.truth == nil {
		key := Truth{Operator: op.profile.Name, TLD: tld, Spec: spec}
		if p.truth = pl.truths[key]; p.truth == nil {
			p.truth = new(Truth)
			*p.truth = key
			pl.truths[key] = p.truth
		}
		pl.runTruths[tld] = p.truth
	}
	return p, nil
}

// registryOf returns the registry of op's idx-th zone, of spec.
func registryOf(op *opInfra, spec ZoneSpec, idx int) string {
	if spec.ParkingNS {
		return "com.bo"
	}
	return op.tldMix.pick(idx)
}

// zoneName returns the name of an operator's idx-th zone under tld:
// "<slug>-z<idx, six digits at least>.<tld>.".
func zoneName(slug string, idx int, tld string) string {
	var buf [20]byte
	num := strconv.AppendInt(buf[:0], int64(idx), 10)
	return slug + "-z" + "000000"[min(len(num), 6):] + string(num) + "." + tld + "."
}

// builtZone is a materialised target zone: the zone, its CDS variant,
// and what publishing them adds to zones it shares.
type builtZone struct {
	plan       zonePlan
	z, variant *zone.Zone
	ds         *dnswire.DS // for the registry; nil for none
	// signal is the CDS/CDNSKEY content to publish in the operator's
	// signal zones; nil when the zone does not signal.
	signal []dnswire.RR
	err    error
}

// materialise builds, keys and signs the zone b.plan plans, and its
// variant: a realistic small web presence. Each zone's records are
// collected first and the zone is built from them in one step, then
// signed in one pass. It touches nothing another zone touches, so
// zones are materialised in parallel.
func (e *Ecosystem) materialise(b *builtZone) error {
	p := &b.plan
	spec, prof, name := p.truth.Spec, p.op.profile, p.name

	z := zone.New(name)
	b.z = z
	if spec.signed() {
		if err := z.GenerateKeys(e.signCfg(), p.seeds); err != nil {
			return err
		}
	}
	// The records owner by owner in canonical order (apex, mail, www),
	// so that building the zone merges nothing; the apex's web records
	// come first, and a variant swaps in its own CDS after them.
	recs := make([]dnswire.RR, 0, 16)
	recs = append(recs, zone.NewSOA(name, p.childNS[0].Target, uint32(2025041500+p.idx%1000)))
	for _, ns := range p.childNS {
		recs = append(recs, dnswire.RR{Name: name, TTL: 3600, Data: ns})
	}
	recs = append(recs, dnswire.RR{Name: name, TTL: 3600, Data: webApexA})
	var below [2]dnswire.RR
	others := below[:0]
	if p.idx%3 == 0 {
		mail := "mail." + name
		recs = append(recs, dnswire.RR{Name: name, TTL: 3600, Data: &dnswire.MX{Preference: 10, Host: mail}},
			dnswire.RR{Name: name, TTL: 3600, Data: webSPF})
		others = append(others, dnswire.RR{Name: mail, TTL: 3600, Data: webMailA})
	}
	if p.idx%7 == 0 {
		recs = append(recs, dnswire.RR{Name: name, TTL: 3600, Data: webCAA})
	}
	others = append(others, dnswire.RR{Name: "www." + name, TTL: 3600, Data: webWWWA})
	web := len(recs)
	// CDS in an unsigned zone is a finding of its own (§4.2, Canal
	// Dominios).
	cds, err := e.cdsRecords(z, spec.CDS, prof)
	if err != nil {
		return err
	}
	if err := z.AddRecords(append(append(recs, cds...), others...)); err != nil {
		return err
	}
	if spec.signed() {
		sc := e.signCfg()
		sc.Expired = spec.State == StateInvalid
		if err := z.Sign(sc); err != nil {
			return err
		}
		if spec.CDS == CDSBadSig {
			if err := corruptSigsAt(z, name, dnswire.TypeCDS, dnswire.TypeCDNSKEY); err != nil {
				return err
			}
		}
	}

	// DS for the parent.
	var dsKey *dnssec.Key
	switch {
	case spec.State == StateSecured, spec.State == StateInvalid && !spec.ErrantDS:
		dsKey = z.Keys[0]
	case spec.ErrantDS:
		dsKey = e.strayKey
	}
	if dsKey != nil {
		ds, err := dnssec.DSFromKey(name, dsKey.DNSKEY(), dnswire.DigestSHA256)
		if err != nil {
			return err
		}
		b.ds = ds
	}

	// Inconsistent-CDS variants served by the second operator or the
	// variant server: the same web records, its own keys and CDS.
	if spec.CDSInconsistent {
		v := zone.New(name)
		if err := v.GenerateKeys(e.signCfg(), p.seeds); err != nil {
			return err
		}
		ksk, _ := v.SigningKeys()
		vcds, err := zone.CDSRecords(name, ksk, dnswire.DigestSHA256)
		if err != nil {
			return err
		}
		if err := v.AddRecords(append(append(recs[:web], vcds...), others...)); err != nil {
			return err
		}
		if err := v.Sign(e.signCfg()); err != nil {
			return err
		}
		b.variant = v
	}

	// RFC 9615 signal content: the zone's CDS/CDNSKEY.
	if spec.Signal && prof.SignalOperator {
		content := cds
		if len(content) == 0 {
			// Zones without in-zone CDS (e.g. the unsigned-with-signal
			// population) still show stray signal records in the wild.
			stray, err := dnssec.CDSFromKey(name, e.strayKey.DNSKEY(), dnswire.DigestSHA256)
			if err != nil {
				return err
			}
			content = []dnswire.RR{{Name: name, Class: dnswire.ClassIN, TTL: 3600, Data: stray}}
		}
		// deSEC filters deletion requests out of signal zones.
		if !dnssec.IsDeleteSet(content) || prof.SignalDeletes {
			b.signal = content
		}
	}
	return nil
}

// publish adds a materialised zone to what it shares with others: its
// registry's delegation and DS, its servers, its operator's signal
// zones, Truth and Targets. Registry and signal records are collected
// here and added to their zones by finalize.
func (e *Ecosystem) publish(b builtZone) error {
	if b.err != nil {
		return b.err
	}
	p := &b.plan
	reg := p.registry
	for _, ns := range p.parentNS {
		reg.delegations = append(reg.delegations, dnswire.RR{Name: p.name, TTL: 86400, Data: ns})
	}
	if b.ds != nil {
		reg.delegations = append(reg.delegations, dnswire.RR{Name: p.name, TTL: 86400, Data: b.ds})
	}
	p.op.srv.AddZone(b.z)
	switch {
	case b.variant != nil:
		p.copyTo.AddZone(b.variant)
	case p.copyTo != nil:
		// Consistent multi-operator zone: the partner serves an
		// identical copy.
		p.copyTo.AddZone(b.z)
	}
	if b.signal != nil {
		publishSignals(p, b.signal)
	}
	e.Targets = append(e.Targets, p.name)
	e.Truth[p.name] = p.truth
	return nil
}

// cdsRecords returns the CDS/CDNSKEY records z publishes per mode.
func (e *Ecosystem) cdsRecords(z *zone.Zone, mode CDSMode, p Profile) ([]dnswire.RR, error) {
	switch mode {
	case CDSNone:
		return nil, nil
	case CDSMatch, CDSBadSig:
		digests := []uint8{dnswire.DigestSHA256}
		if p.Name == "deSEC" {
			// deSEC publishes SHA-256 and SHA-384 CDS plus CDNSKEY
			// (§4.4's signal-zone size accounting relies on this).
			digests = append(digests, dnswire.DigestSHA384)
		}
		if len(z.Keys) == 0 {
			return nil, fmt.Errorf("ecosystem: CDSMatch on keyless zone %s", z.Origin)
		}
		ksk, _ := z.SigningKeys()
		return zone.CDSRecords(z.Origin, ksk, digests...)
	case CDSDelete:
		return []dnswire.RR{
			{Name: z.Origin, Class: dnswire.ClassIN, TTL: 0, Data: dnssec.DeleteCDS()},
			{Name: z.Origin, Class: dnswire.ClassIN, TTL: 0, Data: dnssec.DeleteCDNSKEY()},
		}, nil
	case CDSOrphan:
		cds, err := dnssec.CDSFromKey(z.Origin, e.strayKey.DNSKEY(), dnswire.DigestSHA256)
		if err != nil {
			return nil, err
		}
		return []dnswire.RR{
			{Name: z.Origin, Class: dnswire.ClassIN, TTL: 3600, Data: cds},
			{Name: z.Origin, Class: dnswire.ClassIN, TTL: 3600, Data: &dnswire.CDNSKEY{DNSKEY: *e.strayKey.DNSKEY()}},
		}, nil
	}
	return nil, fmt.Errorf("ecosystem: unhandled CDS mode %v", mode)
}

// publishSignals copies a zone's CDS/CDNSKEY content into the signal
// zones of the operator's nameservers, honouring the injected anomaly.
func publishSignals(p *zonePlan, content []dnswire.RR) {
	hosts := p.childNS[:]
	if p.truth.Spec.SignalAnomaly == SigMissingOneNS {
		hosts = hosts[:1]
	}
	for _, ns := range hosts {
		sz := p.op.signalZones[ns.Target]
		if sz == nil {
			continue // not this operator's host (multi-operator, typo NS)
		}
		recs, err := zone.SignalRecords(p.name, ns.Target, content)
		if err != nil {
			continue // name too long: cannot be signalled (§2)
		}
		sz.records = append(sz.records, recs...)
		switch p.truth.Spec.SignalAnomaly {
		case SigBadSig:
			sz.badSigOwners = append(sz.badSigOwners, recs[0].Name)
		case SigExpiredSig:
			sz.expiredOwners = append(sz.expiredOwners, recs[0].Name)
		default:
			// SigOK and the structural anomalies (zone cut, NS subset,
			// unsigned zone) are applied when the signal zone itself is
			// built, not per signalled owner.
		}
	}
}

// finalize adds the collected delegations and signal records to their
// zones, signs the infrastructure zones, applies the signal
// corruptions, and derives the trust anchor. Every DS is in place, and
// each zone's task reads and writes only the zone, so the zones are
// finished in parallel.
func (e *Ecosystem) finalize() error {
	var tasks []func() error
	bigCfg := e.signCfg()
	bigCfg.SkipNSEC = true
	for _, name := range sortedKeys(e.tlds) {
		ti := e.tlds[name]
		tasks = append(tasks, func() error {
			if err := ti.zone.AddRecords(ti.delegations); err != nil {
				return err
			}
			ti.delegations = nil
			return ti.zone.Sign(bigCfg)
		})
	}
	for _, name := range sortedKeys(e.ops) {
		op := e.ops[name]
		for _, h := range sortedKeys(op.signalZones) {
			sz := op.signalZones[h]
			tasks = append(tasks, func() error { return e.finishSignalZone(sz) })
		}
		for _, base := range sortedKeys(op.baseZones) {
			bz := op.baseZones[base]
			tasks = append(tasks, func() error { return bz.Sign(e.signCfg()) })
		}
	}
	tasks = append(tasks, func() error { return e.root.Sign(e.signCfg()) })
	if err := inParallel(tasks); err != nil {
		return err
	}
	rootDS, err := dnssec.DSFromKey(".", e.root.Keys[0].DNSKEY(), dnswire.DigestSHA256)
	if err != nil {
		return err
	}
	e.TrustAnchor = []dnswire.RR{{Name: ".", Class: dnswire.ClassIN, TTL: 0, Data: rootDS}}
	return nil
}

// finishSignalZone adds a signal zone's records, signs it, and corrupts
// and expires the signatures of its anomalous owners in place.
func (e *Ecosystem) finishSignalZone(sz *signalZone) error {
	if err := sz.zone.AddRecords(sz.records); err != nil {
		return err
	}
	sz.records = nil
	if err := sz.zone.Sign(e.signCfg()); err != nil {
		return err
	}
	for _, owner := range sz.badSigOwners {
		if err := corruptSigsAt(sz.zone, owner, dnswire.TypeCDS, dnswire.TypeCDNSKEY); err != nil {
			return err
		}
	}
	for _, owner := range sz.expiredOwners {
		if err := expireSigsAt(sz.zone, owner, e.Now); err != nil {
			return err
		}
	}
	return nil
}

// inParallel runs every task on GOMAXPROCS goroutines and returns the
// first error in task order. No task is running when it returns.
func inParallel(tasks []func() error) error {
	i := 0
	_, err := ordered.Map(context.Background(), runtime.GOMAXPROCS(0),
		func() (func() error, bool) {
			if i == len(tasks) {
				return nil, false
			}
			i++
			return tasks[i-1], true
		},
		func(_ context.Context, task func() error) error { return task() },
		func(_ int, err error) error { return err })
	return err
}

// corruptSigsAt flips bits in every RRSIG at owner over a type of
// covered, leaving the records and other signatures intact.
func corruptSigsAt(z *zone.Zone, owner string, covered ...dnswire.Type) error {
	sigs := z.RRset(owner, dnswire.TypeRRSIG)
	if len(sigs) == 0 {
		return nil
	}
	for i, rr := range sigs {
		sig := rr.Data.(*dnswire.RRSIG)
		if slices.Contains(covered, sig.TypeCovered) && len(sig.Signature) > 0 {
			dup := *sig
			dup.Signature = append([]byte(nil), sig.Signature...)
			dup.Signature[0] ^= 0xFF
			sigs[i].Data = &dup
		}
	}
	return z.ReplaceRRset(owner, dnswire.TypeRRSIG, sigs)
}

// expireSigsAt re-signs every RRset at owner with an already-expired
// validity window (the decayed-test-zone case of §4.4).
func expireSigsAt(z *zone.Zone, owner string, now time.Time) error {
	for _, typ := range z.TypesAt(owner) {
		if typ == dnswire.TypeRRSIG {
			continue
		}
		if err := z.ResignRRset(owner, typ, zone.SignConfig{Now: now, Expired: true}); err != nil {
			return err
		}
	}
	return nil
}

// Operators lists the generated operator names.
func (e *Ecosystem) Operators() []string { return sortedKeys(e.ops) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
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
		for _, h := range op.signalZones {
			sz := h.zone
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
