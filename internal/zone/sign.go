package zone

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"time"

	"dnssecboot/internal/dnssec"
	"dnssecboot/internal/dnswire"
)

// SignConfig controls zone signing.
type SignConfig struct {
	// Now anchors the signature validity window; zero means time.Now().
	Now time.Time
	// Expired forces all produced signatures to be already expired,
	// modelling decayed deployments.
	Expired bool
	// NSECTTL overrides the NSEC record TTL; zero uses the SOA minimum.
	NSECTTL uint32
	// Algorithm selects the key algorithm for GenerateKeys; zero means
	// ECDSA P-256 (algorithm 13, the most common in the wild).
	Algorithm uint8
	// SkipNSEC omits the NSEC chain (and its signatures). Large
	// registry zones in the simulator use this: the scan pipeline never
	// validates their denial proofs, and signing hundreds of thousands
	// of NSEC records would dominate generation time.
	SkipNSEC bool
	// UseNSEC3 builds an RFC 5155 NSEC3 chain (with NSEC3PARAM) instead
	// of plain NSEC. NSEC3Iterations and NSEC3Salt parameterise the
	// hashing; modern guidance (RFC 9276) is zero iterations and an
	// empty salt, which are the defaults.
	UseNSEC3        bool
	NSEC3Iterations uint16
	NSEC3Salt       []byte
}

// GenerateKeys creates and installs a KSK+ZSK pair for the zone,
// replacing any previous keys. rng may be nil.
func (z *Zone) GenerateKeys(cfg SignConfig, rng io.Reader) error {
	alg := cfg.Algorithm
	if alg == 0 {
		alg = dnswire.AlgECDSAP256SHA256
	}
	ksk, err := dnssec.GenerateKey(alg, dnswire.DNSKEYFlagZone|dnswire.DNSKEYFlagSEP, rng)
	if err != nil {
		return err
	}
	zsk, err := dnssec.GenerateKey(alg, dnswire.DNSKEYFlagZone, rng)
	if err != nil {
		return err
	}
	z.Keys = []*dnssec.Key{ksk, zsk}
	return nil
}

// Sign signs the zone: publishes the DNSKEY RRset, builds the NSEC
// chain, and records an RRSIG for every authoritative RRset. Previous
// DNSSEC records (DNSKEY/RRSIG/NSEC/NSEC3/NSEC3PARAM) are replaced.
// Delegation NS sets and occluded (glue) names are left unsigned, per
// RFC 4035 §2.2.
//
// Sign counts what it adds in one pass over the built zone and writes
// the signed zone into one slice in a second. Only the signatures
// themselves are deferred: each is made, with the keys and validity
// window of this call, when first read (Sigs, RRset, All, WriteTo) or
// before a write changes the RRset it covers. The zone always reads as
// if every signature had been made here.
func (z *Zone) Sign(cfg SignConfig) error {
	if len(z.Keys) == 0 {
		return errors.New("zone: no keys; call GenerateKeys first")
	}
	z.mu.Lock()
	defer z.mu.Unlock()
	z.buildLocked()
	soa := z.setLocked(z.Origin, dnswire.TypeSOA)
	if len(soa) == 0 {
		return errors.New("zone: cannot sign a zone without a SOA")
	}
	now := cfg.Now
	if now.IsZero() {
		now = timeNow()
	}
	opts := dnssec.ValidityWindow(now, z.Origin)
	if cfg.Expired {
		opts = dnssec.ExpiredWindow(now, z.Origin)
	}
	by := z.newSigner(opts)
	for _, keys := range [][]*dnssec.Key{by.seps, by.zsk} {
		for _, k := range keys {
			if err := k.CanSign(); err != nil {
				return fmt.Errorf("zone: cannot sign with %s: %w", k, err)
			}
		}
	}
	s := &signing{z: z, nsec: !cfg.SkipNSEC && !cfg.UseNSEC3, ttl: cfg.NSECTTL}
	if s.ttl == 0 {
		s.ttl = soa[0].Data.(*dnswire.SOA).Minimum
	}
	s.apex = make([]dnswire.RR, 0, len(z.Keys)+1)
	for _, k := range z.Keys {
		// The apex's records share its owner's name string.
		rr := dnswire.RR{Name: soa[0].Name, Class: z.Class, TTL: 3600, Data: k.DNSKEY()}
		s.apex = addToOwner(s.apex, 0, rr)
	}
	if cfg.UseNSEC3 && !cfg.SkipNSEC {
		param, chain, err := z.nsec3Chain(s.ttl, cfg)
		if err != nil {
			return err
		}
		s.apex, s.nsec3 = append(s.apex, param), chain
	}
	recs, sigs := s.pass()
	s.out = make([]dnswire.RR, 0, recs)
	s.pending = make([]pendingSig, 0, sigs)
	s.by = by
	s.pass()
	if s.last != nil {
		s.last.NextDomain = s.first
	}
	z.recs, z.sorted, z.index = s.out, len(s.out), indexOwners(s.out)
	z.lazy = sigs > 0
	return nil
}

// signing is one Sign call's walk over the built zone. The first pass
// (by nil) counts what the second writes into out.
type signing struct {
	z     *Zone
	nsec  bool         // chain the authoritative owners with NSEC
	ttl   uint32       // of the NSEC and NSEC3 records
	apex  []dnswire.RR // the DNSKEY RRset, and NSEC3PARAM with NSEC3
	nsec3 []dnswire.RR // the NSEC3 chain in canonical owner order

	by      *signer
	out     []dnswire.RR
	pending []pendingSig
	first   string        // the first NSEC's owner
	last    *dnswire.NSEC // the last NSEC made, its next name unset
	cut     string        // the last zone cut passed that is not occluded
}

// The first pass's stand-ins for the NSEC records and placeholders the
// second one makes: the types are all it reads.
var (
	countedNSEC = &dnswire.NSEC{}
	countedSig  = &pendingSig{}
)

// pass walks the owners of the signed zone in canonical order — each
// owner of the built zone that keeps a record and each NSEC3 owner —
// and appends their records to out; the first pass only counts them.
// It returns the number of records and placeholders.
func (s *signing) pass() (recs, sigs int) {
	z := s.z
	s.cut = ""
	var scratch [32]dnswire.RR // the first pass's records of one owner
	for i, e := 0, 0; i < len(z.recs) || e < len(s.nsec3); {
		var own, chain []dnswire.RR
		if e == len(s.nsec3) || i < len(z.recs) && compareOwners(z.recs[i].Name, s.nsec3[e].Name) <= 0 {
			own, i = z.recs[i:ownerEnd(z.recs, i)], ownerEnd(z.recs, i)
		}
		if e < len(s.nsec3) && (own == nil || own[0].Name == s.nsec3[e].Name) {
			chain, e = s.nsec3[e:ownerEnd(s.nsec3, e)], ownerEnd(s.nsec3, e)
		}
		first := chain
		if own != nil {
			first = own
		}
		name := first[0].Name
		if s.by != nil {
			s.out, _ = s.appendOwner(s.out, name, own, chain)
			continue
		}
		dst, n := s.appendOwner(scratch[:0], name, own, chain)
		recs, sigs = recs+len(dst), sigs+n
	}
	return recs, sigs
}

// appendOwner appends the signed records at name to dst: those of own
// that Sign does not replace, what Sign adds there (an NSEC, the
// apex's additions, chain's NSEC3), and a placeholder in the RRSIG set
// for each RRset signed there — every type at an owner not below a
// zone cut, but NS at a cut. It returns the extended slice and the
// number of placeholders; an owner that keeps nothing appends nothing.
func (s *signing) appendOwner(dst []dnswire.RR, name string, own, chain []dnswire.RR) ([]dnswire.RR, int) {
	z := s.z
	start := len(dst)
	for _, rr := range own {
		if !replaced(rr, z.Class) {
			dst = append(dst, rr)
		}
	}
	kept := len(dst)
	if kept == start && len(chain) == 0 {
		return dst, 0
	}
	// Owners come in canonical order, so a name below a cut comes after
	// it, before any name that is not: the last cut seen that is not
	// itself occluded is the only one that can occlude name.
	occluded := s.cut != "" && dnswire.IsSubdomain(name, s.cut)
	lo, hi := span(dst[start:], dnswire.TypeNS, z.Class)
	cut := name != z.Origin && lo < hi
	if cut && !occluded {
		s.cut = name
	}
	if s.nsec && !occluded {
		dst = append(dst, s.nsecAt(name, dst[start:], cut))
	}
	if name == z.Origin {
		dst = append(dst, s.apex...)
	}
	if dst = append(dst, chain...); len(dst) > kept {
		sortOwner(dst[start:])
	}
	if occluded {
		return dst, 0
	}
	var buf [16]dnswire.RR
	sigs, last := buf[:0], dnswire.Type(0)
	for _, rr := range dst[start:] {
		typ := rr.Type()
		if rr.Class != z.Class || typ == dnswire.TypeRRSIG || (cut && typ == dnswire.TypeNS) || typ == last {
			continue
		}
		last = typ
		p := countedSig
		if s.by != nil {
			s.pending = append(s.pending, pendingSig{covered: typ, by: s.by})
			p = &s.pending[len(s.pending)-1]
		}
		sigs = append(sigs, dnswire.RR{Name: name, Class: z.Class, Data: p})
	}
	lo, _ = span(dst[start:], dnswire.TypeRRSIG, z.Class)
	return slices.Insert(dst, start+lo, sigs...), len(sigs)
}

// nsecAt returns the NSEC record at name, which keeps the records own.
func (s *signing) nsecAt(name string, own []dnswire.RR, cut bool) dnswire.RR {
	rr := dnswire.RR{Name: name, Class: s.z.Class, TTL: s.ttl, Data: countedNSEC}
	if s.by == nil {
		return rr
	}
	nsec := &dnswire.NSEC{Types: s.z.bitmap(name, own, cut, dnswire.TypeRRSIG, dnswire.TypeNSEC)}
	if s.last == nil {
		s.first = name
	} else {
		s.last.NextDomain = name
	}
	s.last, rr.Data = nsec, nsec
	return rr
}

// replaced reports whether Sign replaces rr: a DNSSEC record of the
// zone's class.
func replaced(rr dnswire.RR, class dnswire.Class) bool {
	switch rr.Type() {
	case dnswire.TypeRRSIG, dnswire.TypeNSEC, dnswire.TypeNSEC3, dnswire.TypeNSEC3PARAM, dnswire.TypeDNSKEY:
		return rr.Class == class
	}
	return false
}

// sortOwner sorts one owner's records by type, then class, keeping
// each RRset's order; only Sign's few additions are out of place.
func sortOwner(own []dnswire.RR) {
	for i := 1; i < len(own); i++ {
		for j := i; j > 0; j-- {
			a, b := own[j-1], own[j]
			if ta, tb := a.Type(), b.Type(); ta < tb || ta == tb && a.Class <= b.Class {
				break
			}
			own[j-1], own[j] = b, a
		}
	}
}

// bitmap returns the type bitmap of an NSEC or NSEC3 record at name,
// whose records are own: their types plus extra, plus DNSKEY at the
// apex, sorted, each once; at a zone cut only the types authoritative
// there.
func (z *Zone) bitmap(name string, own []dnswire.RR, cut bool, extra ...dnswire.Type) []dnswire.Type {
	types := appendTypes(make([]dnswire.Type, 0, len(own)+len(extra)+1), own)
	types = append(types, extra...)
	if name == z.Origin {
		types = append(types, dnswire.TypeDNSKEY)
	}
	types = dedupeSortTypes(types)
	if cut {
		// At a cut only NS (+DS) appear in the bitmap; no RRSIG for
		// the NS set itself but the NSEC/DS at the cut are signed.
		types = filterCutTypes(types)
	}
	return types
}

// signer is what one Sign call captured for the signatures it defers:
// the key of each role and the validity window.
type signer struct {
	// zsk signs every RRset but DNSKEY; it is a one-key list so keys
	// allocates nothing.
	zsk []*dnssec.Key
	// seps sign the DNSKEY RRset: every SEP key, so that double-signature
	// key rollovers (RFC 7344 §6) keep a chain to both the old and the
	// new DS.
	seps []*dnssec.Key
	opts dnssec.SignOptions
}

func (z *Zone) newSigner(opts dnssec.SignOptions) *signer {
	ksk, zsk := z.SigningKeys()
	by := &signer{zsk: []*dnssec.Key{zsk}, opts: opts}
	for _, k := range z.Keys {
		if k.IsSEP() {
			by.seps = append(by.seps, k)
		}
	}
	if len(by.seps) == 0 {
		by.seps = []*dnssec.Key{ksk}
	}
	return by
}

// keys returns the keys that sign an RRset of type typ, in signing order.
func (by *signer) keys(typ dnswire.Type) []*dnssec.Key {
	if typ == dnswire.TypeDNSKEY {
		return by.seps
	}
	return by.zsk
}

// sign makes the signatures over set, one per key in order. Sign has
// checked every key, so only a record with no wire form (which no
// server could send either) fails; its RRset is left unsigned.
func (by *signer) sign(set []dnswire.RR, typ dnswire.Type) []dnswire.RR {
	keys := by.keys(typ)
	sigs := make([]dnswire.RR, 0, len(keys))
	for _, key := range keys {
		if sig, err := dnssec.SignRRset(set, key, by.opts); err == nil {
			sigs = append(sigs, sig)
		}
	}
	return sigs
}

// pendingSig is a placeholder in an RRSIG set for the signatures Sign
// deferred over the owner's RRset of type covered. It stands where
// eager signing would have put them, so making them replaces it in
// place. It never leaves the package: every read of an RRSIG set makes
// its placeholders first.
type pendingSig struct {
	// RData is never set; embedding it lets a placeholder sit in an
	// RRSIG set, whose records hold dnswire.RData.
	dnswire.RData
	covered dnswire.Type
	by      *signer
}

func (*pendingSig) Type() dnswire.Type { return dnswire.TypeRRSIG }

// AppendSigs appends the RRSIGs at owner covering covered to dst and
// returns the extended slice. A signature Sign deferred is made here on
// first read, outside the lock, and stored under it only if no other
// reader or write made it in the meantime, so every reader sees the
// same bytes.
func (z *Zone) AppendSigs(dst []dnswire.RR, owner string, covered dnswire.Type) []dnswire.RR {
	owner = dnswire.CanonicalName(owner)
	n := len(dst)
	z.rlock()
	dst, p := z.appendSigsLocked(dst, owner, covered)
	if p == nil {
		z.mu.RUnlock()
		return dst
	}
	set := slices.Clone(z.setLocked(owner, covered))
	z.mu.RUnlock()
	made := p.by.sign(set, covered)
	z.mu.Lock()
	defer z.mu.Unlock()
	z.buildLocked()
	switch i, q := z.placeholderLocked(owner, covered); q {
	case nil: // another reader or a write made them meanwhile
	case p:
		z.replaceLocked(i, made)
	default: // a later Sign's
		z.makeLocked(i, q)
	}
	dst, _ = z.appendSigsLocked(dst[:n], owner, covered)
	return dst
}

// appendSigsLocked appends the RRSIGs made at owner covering covered to
// dst, and returns the placeholder standing for them if they are not
// made yet.
func (z *Zone) appendSigsLocked(dst []dnswire.RR, owner string, covered dnswire.Type) ([]dnswire.RR, *pendingSig) {
	var pending *pendingSig
	for _, rr := range z.setLocked(owner, dnswire.TypeRRSIG) {
		switch d := rr.Data.(type) {
		case *dnswire.RRSIG:
			if d.TypeCovered == covered {
				dst = append(dst, rr)
			}
		case *pendingSig:
			if d.covered == covered {
				pending = d
			}
		}
	}
	return dst, pending
}

// placeholderLocked finds the placeholder for covered among owner's
// records, or with covered 0 the first one: its offset in the built
// zone and itself, or -1 and nil.
func (z *Zone) placeholderLocked(owner string, covered dnswire.Type) (int, *pendingSig) {
	lo, hi := z.ownerLocked(owner)
	slo, shi := span(z.recs[lo:hi], dnswire.TypeRRSIG, z.Class)
	for i := lo + slo; i < lo+shi; i++ {
		if p, ok := z.recs[i].Data.(*pendingSig); ok && (covered == 0 || p.covered == covered) {
			return i, p
		}
	}
	return -1, nil
}

// makeLocked replaces the placeholder p, at offset i of the built zone,
// with its signatures over the RRset as it is now.
func (z *Zone) makeLocked(i int, p *pendingSig) {
	z.replaceLocked(i, p.by.sign(z.setLocked(z.recs[i].Name, p.covered), p.covered))
}

// signPendingLocked makes the pending signatures over (owner, typ), if
// any.
func (z *Zone) signPendingLocked(owner string, typ dnswire.Type) {
	if i, p := z.placeholderLocked(owner, typ); p != nil {
		z.makeLocked(i, p)
	}
}

// signOwner makes every pending signature at owner.
func (z *Zone) signOwner(owner string) {
	z.rlock()
	_, p := z.placeholderLocked(owner, 0)
	z.mu.RUnlock()
	if p == nil {
		return
	}
	z.mu.Lock()
	defer z.mu.Unlock()
	z.buildLocked()
	z.signOwnerLocked(owner)
}

func (z *Zone) signOwnerLocked(owner string) {
	for i, p := z.placeholderLocked(owner, 0); p != nil; i, p = z.placeholderLocked(owner, 0) {
		z.makeLocked(i, p)
	}
}

// signAll makes every pending signature in the zone.
func (z *Zone) signAll() {
	z.mu.RLock()
	lazy := z.lazy
	z.mu.RUnlock()
	if !lazy {
		return
	}
	z.mu.Lock()
	defer z.mu.Unlock()
	z.buildLocked()
	z.signAllLocked()
}

// signAllLocked makes every pending signature in the built zone, which
// then holds no placeholder.
func (z *Zone) signAllLocked() {
	if !z.lazy {
		return
	}
	for i := 0; i < len(z.recs); {
		if p, ok := z.recs[i].Data.(*pendingSig); ok {
			z.makeLocked(i, p) // offset i now holds what replaced p
			continue
		}
		i++
	}
	z.lazy = false
}

// replaceLocked puts sigs in place of the placeholder at offset i of the
// built records. One signature takes its slot; any other number moves the
// records after it, so the built records are indexed again.
func (z *Zone) replaceLocked(i int, sigs []dnswire.RR) {
	if len(sigs) == 1 {
		z.recs[i] = sigs[0]
		return
	}
	z.recs = slices.Replace(z.recs, i, i+1, sigs...)
	z.sorted += len(sigs) - 1
	z.index = indexOwners(z.recs[:z.sorted])
}

// nsec3Chain hashes every authoritative name of the built zone that
// keeps a record once Sign replaces the DNSSEC ones, and returns the
// apex NSEC3PARAM and the NSEC3 records (RFC 5155 §7.1) in hash order,
// which is their owners' canonical order.
func (z *Zone) nsec3Chain(ttl uint32, cfg SignConfig) (dnswire.RR, []dnswire.RR, error) {
	type hashed struct {
		hash   []byte
		owner  string
		bitmap []dnswire.Type
	}
	var entries []hashed
	var kept []dnswire.RR
	for i := 0; i < len(z.recs); {
		j := ownerEnd(z.recs, i)
		name := z.recs[i].Name
		kept = kept[:0]
		for _, rr := range z.recs[i:j] {
			if !replaced(rr, z.Class) {
				kept = append(kept, rr)
			}
		}
		i = j
		if len(kept) == 0 || z.occludedLocked(name) {
			continue
		}
		h, err := dnssec.NSEC3Hash(name, cfg.NSEC3Iterations, cfg.NSEC3Salt)
		if err != nil {
			return dnswire.RR{}, nil, err
		}
		extra := []dnswire.Type{dnswire.TypeRRSIG}
		if name == z.Origin {
			extra = append(extra, dnswire.TypeNSEC3PARAM)
		}
		entries = append(entries, hashed{hash: h, owner: dnssec.NSEC3HashOwner(h, z.Origin),
			bitmap: z.bitmap(name, kept, z.cutLocked(name), extra...)})
	}
	sort.Slice(entries, func(i, j int) bool {
		return bytes.Compare(entries[i].hash, entries[j].hash) < 0
	})
	param := dnswire.RR{Name: z.Origin, Class: z.Class, TTL: 0, Data: &dnswire.NSEC3PARAM{
		HashAlg: dnssec.NSEC3HashAlgSHA1, Iterations: cfg.NSEC3Iterations, Salt: cfg.NSEC3Salt,
	}}
	chain := make([]dnswire.RR, 0, len(entries))
	for i, e := range entries {
		chain = append(chain, dnswire.RR{Name: e.owner, Class: z.Class, TTL: ttl, Data: &dnswire.NSEC3{
			HashAlg:    dnssec.NSEC3HashAlgSHA1,
			Iterations: cfg.NSEC3Iterations,
			Salt:       cfg.NSEC3Salt,
			NextHashed: entries[(i+1)%len(entries)].hash,
			Types:      e.bitmap,
		}})
	}
	return param, chain, nil
}

// ResignRRset refreshes the RRSIG over one RRset (owner, typ) in an
// already-signed zone, e.g. after a registry updates a DS set in place.
// Signatures over other RRsets at owner are preserved, and the new one
// goes last.
func (z *Zone) ResignRRset(owner string, typ dnswire.Type, cfg SignConfig) error {
	if len(z.Keys) == 0 {
		return errors.New("zone: no keys")
	}
	now := cfg.Now
	if now.IsZero() {
		now = timeNow()
	}
	opts := dnssec.ValidityWindow(now, z.Origin)
	if cfg.Expired {
		opts = dnssec.ExpiredWindow(now, z.Origin)
	}
	ksk, key := z.SigningKeys()
	if typ == dnswire.TypeDNSKEY {
		key = ksk
	}
	sigs := slices.DeleteFunc(z.RRset(owner, dnswire.TypeRRSIG), func(rr dnswire.RR) bool {
		return rr.Data.(*dnswire.RRSIG).TypeCovered == typ
	})
	if set := z.RRset(owner, typ); len(set) > 0 {
		sig, err := dnssec.SignRRset(set, key, opts)
		if err != nil {
			return err
		}
		sigs = append(sigs, sig)
	}
	return z.ReplaceRRset(owner, dnswire.TypeRRSIG, sigs)
}

// PublishCDS installs CDS and CDNSKEY RRsets derived from the zone's
// KSK: one CDS per digest type given plus the matching CDNSKEY. This is
// the RFC 7344 operator-side behaviour.
func (z *Zone) PublishCDS(digestTypes ...uint8) error {
	if len(z.Keys) == 0 {
		return errors.New("zone: no keys to derive CDS from")
	}
	ksk, _ := z.SigningKeys()
	return z.PublishCDSFor(ksk, digestTypes...)
}

// PublishCDSFor installs CDS/CDNSKEY derived from a specific key —
// during a rollover the CDS names the incoming KSK while the zone is
// still chained through the outgoing one.
func (z *Zone) PublishCDSFor(ksk *dnssec.Key, digestTypes ...uint8) error {
	recs, err := CDSRecords(z.Origin, ksk, digestTypes...)
	if err != nil {
		return err
	}
	z.RemoveSet(z.Origin, dnswire.TypeCDS)
	z.RemoveSet(z.Origin, dnswire.TypeCDNSKEY)
	for _, rr := range recs {
		rr.Class = z.Class
		z.MustAdd(rr)
	}
	return nil
}

// CDSRecords returns the CDS records publishing ksk at origin, one per
// digest type given (SHA-256 when none is), then the matching CDNSKEY,
// of class IN.
func CDSRecords(origin string, ksk *dnssec.Key, digestTypes ...uint8) ([]dnswire.RR, error) {
	if len(digestTypes) == 0 {
		digestTypes = []uint8{dnswire.DigestSHA256}
	}
	recs := make([]dnswire.RR, 0, len(digestTypes)+1)
	for _, dt := range digestTypes {
		cds, err := dnssec.CDSFromKey(origin, ksk.DNSKEY(), dt)
		if err != nil {
			return nil, err
		}
		recs = append(recs, dnswire.RR{Name: origin, Class: dnswire.ClassIN, TTL: 3600, Data: cds})
	}
	return append(recs, dnswire.RR{Name: origin, Class: dnswire.ClassIN, TTL: 3600, Data: &dnswire.CDNSKEY{DNSKEY: *ksk.DNSKEY()}}), nil
}

// PublishDeleteCDS installs the RFC 8078 §4 deletion request as the
// zone's CDS/CDNSKEY content.
func (z *Zone) PublishDeleteCDS() {
	z.RemoveSet(z.Origin, dnswire.TypeCDS)
	z.RemoveSet(z.Origin, dnswire.TypeCDNSKEY)
	z.MustAdd(dnswire.RR{Name: z.Origin, Class: z.Class, TTL: 0, Data: dnssec.DeleteCDS()})
	z.MustAdd(dnswire.RR{Name: z.Origin, Class: z.Class, TTL: 0, Data: dnssec.DeleteCDNSKEY()})
}

// SignalRecords returns the RFC 9615 signalling records that the
// operator of nsHost must publish for child: copies of child's CDS and
// CDNSKEY RRsets at _dsboot.<child>._signal.<nsHost>.
func SignalRecords(child string, nsHost string, cdsSet []dnswire.RR) ([]dnswire.RR, error) {
	owner, err := SignalName(child, nsHost)
	if err != nil {
		return nil, err
	}
	var out []dnswire.RR
	for _, rr := range cdsSet {
		out = append(out, dnswire.RR{Name: owner, Class: rr.Class, TTL: rr.TTL, Data: rr.Data})
	}
	return out, nil
}

// SignalName computes _dsboot.<child>._signal.<nsHost> and validates
// the length limit the paper discusses (names over 255 octets cannot be
// signalled).
func SignalName(child, nsHost string) (string, error) {
	name := "_dsboot." + dnswire.CanonicalName(child) + "_signal." + dnswire.CanonicalName(nsHost)
	name = dnswire.CanonicalName(name)
	if _, err := dnswire.NameWireLength(name); err != nil {
		return "", fmt.Errorf("zone: signal name for %s under %s: %w", child, nsHost, err)
	}
	return name, nil
}

// SignalZoneName returns the _signal zone under a nameserver hostname,
// e.g. _signal.ns1.example.net.
func SignalZoneName(nsHost string) string {
	return dnswire.Join("_signal", nsHost)
}

// dedupeSortTypes sorts types in place and drops repeats: an insertion
// sort, as a bitmap holds a few types.
func dedupeSortTypes(types []dnswire.Type) []dnswire.Type {
	for i := 1; i < len(types); i++ {
		for j := i; j > 0 && types[j] < types[j-1]; j-- {
			types[j], types[j-1] = types[j-1], types[j]
		}
	}
	return slices.Compact(types)
}

// filterCutTypes restricts an NSEC bitmap at a delegation to the types
// that are authoritative at a cut: NS, DS and NSEC itself (RFC 4035
// §2.3: the parent zone lists only NS/DS/NSEC/RRSIG at cuts).
func filterCutTypes(types []dnswire.Type) []dnswire.Type {
	out := types[:0]
	for _, t := range types {
		switch t {
		// The NSEC at the cut is itself signed, so RRSIG always appears.
		case dnswire.TypeNS, dnswire.TypeDS, dnswire.TypeNSEC, dnswire.TypeRRSIG:
			out = append(out, t)
		}
	}
	return out
}
