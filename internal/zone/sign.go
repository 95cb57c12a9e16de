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
// DNSSEC records (DNSKEY/RRSIG/NSEC) are replaced. Delegation NS sets
// and occluded (glue) names are left unsigned, per RFC 4035 §2.2.
//
// Only the signatures themselves are deferred: each is made, with the
// keys and validity window of this call, when first read (Sigs, RRset,
// All, WriteTo, Clone) or before a write changes the RRset it covers.
// The zone always reads as if every signature had been made here.
func (z *Zone) Sign(cfg SignConfig) error {
	if len(z.Keys) == 0 {
		return errors.New("zone: no keys; call GenerateKeys first")
	}
	soa := z.SOA()
	if soa == nil {
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
	for _, k := range slices.Concat(by.seps, by.zsk) {
		if err := k.CanSign(); err != nil {
			return fmt.Errorf("zone: cannot sign with %s: %w", k, err)
		}
	}

	z.Unsign()

	// The chain covers the authoritative names: cuts included, occluded
	// names excluded. Every name and bitmap is read before the first
	// record is added, because an Add only appends and a read after it
	// would build the zone again; the apex's bitmaps name the DNSKEY
	// RRset published below.
	nsecTTL := cfg.NSECTTL
	if nsecTTL == 0 {
		nsecTTL = soa.Data.(*dnswire.SOA).Minimum
	}
	var authNames []string
	for _, n := range z.Names() {
		if z.Occluded(n) {
			continue
		}
		authNames = append(authNames, n)
	}
	var chain []dnswire.RR
	switch {
	case cfg.SkipNSEC:
	case cfg.UseNSEC3:
		var err error
		if chain, err = z.nsec3Chain(authNames, nsecTTL, cfg); err != nil {
			return err
		}
	default:
		chain = make([]dnswire.RR, len(authNames))
		for i, name := range authNames {
			types := z.bitmap(name, dnswire.TypeRRSIG, dnswire.TypeNSEC)
			chain[i] = dnswire.RR{Name: name, Class: z.Class, TTL: nsecTTL,
				Data: &dnswire.NSEC{NextDomain: authNames[(i+1)%len(authNames)], Types: types}}
		}
	}

	// Publish DNSKEYs.
	keyTTL := uint32(3600)
	for _, k := range z.Keys {
		z.MustAdd(dnswire.RR{Name: z.Origin, Class: z.Class, TTL: keyTTL, Data: k.DNSKEY()})
	}
	for _, rr := range chain {
		z.MustAdd(rr)
	}
	z.deferSigs(by)
	return nil
}

// bitmap returns the type bitmap of an NSEC or NSEC3 record at name:
// the types present there plus extra, plus DNSKEY at the apex, sorted,
// each once; at a zone cut only the types authoritative there.
func (z *Zone) bitmap(name string, extra ...dnswire.Type) []dnswire.Type {
	if name == z.Origin {
		extra = append(extra, dnswire.TypeDNSKEY)
	}
	z.rlock()
	lo, hi := z.ownerLocked(name)
	own := z.recs[lo:hi]
	types := appendTypes(make([]dnswire.Type, 0, len(own)+len(extra)), own)
	cut := z.cutLocked(name)
	z.mu.RUnlock()
	types = dedupeSortTypes(append(types, extra...))
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
	ksk, zsk := z.signingKeys()
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

// deferSigs puts a placeholder for by's signatures over every
// authoritative RRset: at every owner not below a zone cut, every type
// but RRSIG, and but NS at a cut (delegation NS is not authoritative
// here). Sign has emptied the RRSIG sets, so each holds its
// placeholders in eager signing's order. The zone is rewritten into one
// new slice, and all its placeholders share one allocation.
func (z *Zone) deferSigs(by *signer) {
	z.mu.Lock()
	defer z.mu.Unlock()
	z.buildLocked()
	var covered []dnswire.Type
	n := 0
	for i := 0; i < len(z.recs); i = ownerEnd(z.recs, i) {
		covered = z.coveredLocked(covered[:0], i)
		n += len(covered)
	}
	if n == 0 {
		return
	}
	pending := make([]pendingSig, 0, n)
	out := make([]dnswire.RR, 0, len(z.recs)+n)
	for i := 0; i < len(z.recs); {
		j := ownerEnd(z.recs, i)
		own := z.recs[i:j]
		covered = z.coveredLocked(covered[:0], i)
		lo, hi := len(own), len(own)
		if len(covered) > 0 {
			lo, hi = span(own, dnswire.TypeRRSIG, z.Class)
		}
		out = append(out, own[:lo]...)
		for _, typ := range covered {
			pending = append(pending, pendingSig{covered: typ, by: by})
			out = append(out, dnswire.RR{Name: own[0].Name, Class: z.Class, Data: &pending[len(pending)-1]})
		}
		out = append(out, own[hi:]...)
		i = j
	}
	z.recs, z.sorted = out, len(out)
	z.index = indexOwners(out)
	z.lazy = true
}

// coveredLocked appends to dst the types Sign signs at the owner whose
// records start at recs[i]: none below a cut, else each type of the
// zone's class but RRSIG, and but NS at a cut.
func (z *Zone) coveredLocked(dst []dnswire.Type, i int) []dnswire.Type {
	name := z.recs[i].Name
	if z.occludedLocked(name) {
		return dst
	}
	isCut := z.cutLocked(name)
	n := len(dst)
	for _, rr := range z.recs[i:ownerEnd(z.recs, i)] {
		typ := rr.Type()
		if rr.Class != z.Class || typ == dnswire.TypeRRSIG || (isCut && typ == dnswire.TypeNS) ||
			(len(dst) > n && dst[len(dst)-1] == typ) {
			continue
		}
		dst = append(dst, typ)
	}
	return dst
}

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
// built zone. One signature takes its slot; any other number moves the
// records after it, so the zone is indexed again and stays built.
func (z *Zone) replaceLocked(i int, sigs []dnswire.RR) {
	if len(sigs) == 1 {
		z.recs[i] = sigs[0]
		return
	}
	z.recs = slices.Replace(z.recs, i, i+1, sigs...)
	z.sorted = len(z.recs)
	z.index = indexOwners(z.recs)
}

// nsec3Chain hashes every authoritative name, sorts the hashes, and
// returns the NSEC3 records plus the apex NSEC3PARAM (RFC 5155 §7.1)
// for Sign to add.
func (z *Zone) nsec3Chain(authNames []string, ttl uint32, cfg SignConfig) ([]dnswire.RR, error) {
	type hashed struct {
		hash   []byte
		owner  string
		bitmap []dnswire.Type
	}
	entries := make([]hashed, 0, len(authNames))
	for _, name := range authNames {
		h, err := dnssec.NSEC3Hash(name, cfg.NSEC3Iterations, cfg.NSEC3Salt)
		if err != nil {
			return nil, err
		}
		owner, err := dnssec.NSEC3Owner(name, z.Origin, cfg.NSEC3Iterations, cfg.NSEC3Salt)
		if err != nil {
			return nil, err
		}
		extra := []dnswire.Type{dnswire.TypeRRSIG}
		if name == z.Origin {
			extra = append(extra, dnswire.TypeNSEC3PARAM)
		}
		entries = append(entries, hashed{hash: h, owner: owner, bitmap: z.bitmap(name, extra...)})
	}
	sort.Slice(entries, func(i, j int) bool {
		return bytes.Compare(entries[i].hash, entries[j].hash) < 0
	})
	chain := make([]dnswire.RR, 0, 1+len(entries))
	chain = append(chain, dnswire.RR{Name: z.Origin, Class: z.Class, TTL: 0, Data: &dnswire.NSEC3PARAM{
		HashAlg: dnssec.NSEC3HashAlgSHA1, Iterations: cfg.NSEC3Iterations, Salt: cfg.NSEC3Salt,
	}})
	for i, e := range entries {
		chain = append(chain, dnswire.RR{Name: e.owner, Class: z.Class, TTL: ttl, Data: &dnswire.NSEC3{
			HashAlg:    dnssec.NSEC3HashAlgSHA1,
			Iterations: cfg.NSEC3Iterations,
			Salt:       cfg.NSEC3Salt,
			NextHashed: entries[(i+1)%len(entries)].hash,
			Types:      e.bitmap,
		}})
	}
	return chain, nil
}

// ResignRRset refreshes the RRSIG over one RRset (owner, typ) in an
// already-signed zone, e.g. after a registry updates a DS set in place.
// Signatures over other RRsets at owner are preserved.
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
	ksk, zsk := z.signingKeys()
	key := zsk
	if typ == dnswire.TypeDNSKEY {
		key = ksk
	}
	owner = dnswire.CanonicalName(owner)
	// Drop existing signatures covering typ, keep the rest.
	old := z.RRset(owner, dnswire.TypeRRSIG)
	z.RemoveSet(owner, dnswire.TypeRRSIG)
	for _, rr := range old {
		if rr.Data.(*dnswire.RRSIG).TypeCovered != typ {
			z.MustAdd(rr)
		}
	}
	set := z.RRset(owner, typ)
	if len(set) == 0 {
		return nil // RRset deleted entirely; nothing to sign
	}
	sig, err := dnssec.SignRRset(set, key, opts)
	if err != nil {
		return err
	}
	z.MustAdd(sig)
	return nil
}

// Unsign removes all DNSSEC records (DNSKEY, RRSIG, NSEC, NSEC3,
// NSEC3PARAM) from the zone, leaving keys in place.
func (z *Zone) Unsign() {
	z.mu.Lock()
	defer z.mu.Unlock()
	z.buildLocked()
	n := len(z.recs)
	z.recs = slices.DeleteFunc(z.recs, func(rr dnswire.RR) bool {
		switch rr.Type() {
		case dnswire.TypeRRSIG, dnswire.TypeNSEC, dnswire.TypeNSEC3, dnswire.TypeNSEC3PARAM, dnswire.TypeDNSKEY:
			return rr.Class == z.Class
		}
		return false
	})
	if len(z.recs) < n {
		z.sorted = len(z.recs)
		z.index = nil
	}
	// Every placeholder was an RRSIG of the zone's class.
	z.lazy = false
}

// PublishCDS installs CDS and CDNSKEY RRsets derived from the zone's
// KSK: one CDS per digest type given plus the matching CDNSKEY. This is
// the RFC 7344 operator-side behaviour.
func (z *Zone) PublishCDS(digestTypes ...uint8) error {
	if len(z.Keys) == 0 {
		return errors.New("zone: no keys to derive CDS from")
	}
	ksk, _ := z.signingKeys()
	return z.PublishCDSFor(ksk, digestTypes...)
}

// PublishCDSFor installs CDS/CDNSKEY derived from a specific key —
// during a rollover the CDS names the incoming KSK while the zone is
// still chained through the outgoing one.
func (z *Zone) PublishCDSFor(ksk *dnssec.Key, digestTypes ...uint8) error {
	if len(digestTypes) == 0 {
		digestTypes = []uint8{dnswire.DigestSHA256}
	}
	z.RemoveSet(z.Origin, dnswire.TypeCDS)
	z.RemoveSet(z.Origin, dnswire.TypeCDNSKEY)
	for _, dt := range digestTypes {
		cds, err := dnssec.CDSFromKey(z.Origin, ksk.DNSKEY(), dt)
		if err != nil {
			return err
		}
		z.MustAdd(dnswire.RR{Name: z.Origin, Class: z.Class, TTL: 3600, Data: cds})
	}
	z.MustAdd(dnswire.RR{Name: z.Origin, Class: z.Class, TTL: 3600,
		Data: &dnswire.CDNSKEY{DNSKEY: *ksk.DNSKEY()}})
	return nil
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

func dedupeSortTypes(types []dnswire.Type) []dnswire.Type {
	seen := make(map[dnswire.Type]bool, len(types))
	out := types[:0]
	for _, t := range types {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
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
