// Package zone provides an in-memory authoritative zone model: record
// storage with RRset semantics, delegation (zone-cut) awareness, a
// master-file parser and serialiser, and DNSSEC signing (RRSIG
// generation plus NSEC chain construction). It is the data model served
// by internal/server and generated by internal/ecosystem.
package zone

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"dnssecboot/internal/dnssec"
	"dnssecboot/internal/dnswire"
)

// Zone is a mutable authoritative zone rooted at Origin.
type Zone struct {
	Origin string
	Class  dnswire.Class

	mu sync.RWMutex
	// owners holds each owner name's records in one slice: RRsets are
	// contiguous runs ordered by type, then class, ascending, and each
	// keeps its insertion order. An owner without records has no entry.
	owners map[string][]dnswire.RR
	// namesCache holds the owner names in canonical order; it is
	// dropped when an owner appears or disappears and rebuilt lazily,
	// keeping NXDOMAIN proofs O(log n) even in very large zones.
	namesCache []string
	// lazy is set once Sign has deferred a signature: from then on an
	// RRSIG set may hold pendingSig placeholders.
	lazy bool

	// Keys holds the zone's signing keys when it is DNSSEC-signed.
	// The first SEP key is used as the KSK, the first non-SEP key as
	// the ZSK; with a single key it plays both roles (CSK).
	Keys []*dnssec.Key
}

// New creates an empty zone for origin.
func New(origin string) *Zone {
	return &Zone{
		Origin: dnswire.CanonicalName(origin),
		Class:  dnswire.ClassIN,
		owners: make(map[string][]dnswire.RR),
	}
}

// span returns the bounds [lo, hi) of the RRset (typ, class) in recs,
// one owner's records; an absent set is the empty run where it would
// be inserted.
func span(recs []dnswire.RR, typ dnswire.Type, class dnswire.Class) (lo, hi int) {
	for lo < len(recs) {
		if t := recs[lo].Type(); t > typ || t == typ && recs[lo].Class >= class {
			break
		}
		lo++
	}
	hi = lo
	for hi < len(recs) && recs[hi].Type() == typ && recs[hi].Class == class {
		hi++
	}
	return lo, hi
}

// setLocked returns owner's RRset (typ) of the zone's class, which
// aliases the store.
func (z *Zone) setLocked(owner string, typ dnswire.Type) []dnswire.RR {
	recs := z.owners[owner]
	lo, hi := span(recs, typ, z.Class)
	return recs[lo:hi]
}

// storeLocked makes recs owner's records, dropping the names cache
// only when the owner appears or disappears.
func (z *Zone) storeLocked(owner string, recs []dnswire.RR) {
	_, had := z.owners[owner]
	if len(recs) == 0 {
		delete(z.owners, owner)
	} else {
		z.owners[owner] = recs
	}
	if had != (len(recs) > 0) {
		z.namesCache = nil
	}
}

// Add inserts rr into the zone, replacing an identical record if
// present (RRset semantics: no duplicate RDATA within a set). A pending
// signature over the RRset it joins is made first, and so are all the
// owner's when rr is itself an RRSIG, so the zone ends as eager signing
// would have left it.
func (z *Zone) Add(rr dnswire.RR) error {
	rr.Name = dnswire.CanonicalName(rr.Name)
	if !dnswire.IsSubdomain(rr.Name, z.Origin) {
		return fmt.Errorf("zone: %s is out of zone %s", rr.Name, z.Origin)
	}
	if rr.Class == 0 {
		rr.Class = z.Class
	}
	z.mu.Lock()
	defer z.mu.Unlock()
	typ := rr.Type()
	if z.lazy {
		if typ == dnswire.TypeRRSIG {
			z.signOwnerLocked(rr.Name)
		} else {
			z.signPendingLocked(rr.Name, typ)
		}
	}
	recs := z.owners[rr.Name]
	lo, hi := span(recs, typ, rr.Class)
	for i := lo; i < hi; i++ {
		if recs[i].Equal(rr) {
			recs[i] = rr
			return nil
		}
	}
	z.storeLocked(rr.Name, slices.Insert(recs, hi, rr))
	return nil
}

// MustAdd is Add that panics on error; for use in construction code and
// tests where the input is static.
func (z *Zone) MustAdd(rr dnswire.RR) {
	if err := z.Add(rr); err != nil {
		panic(err)
	}
}

// RemoveSet deletes the whole RRset (name, type). Removing the RRSIGs
// drops the pending ones too; removing any other set first makes its
// pending signatures, which stay behind as eager signing's would.
func (z *Zone) RemoveSet(name string, typ dnswire.Type) {
	z.mu.Lock()
	defer z.mu.Unlock()
	cn := dnswire.CanonicalName(name)
	if z.lazy && typ != dnswire.TypeRRSIG {
		z.signPendingLocked(cn, typ)
	}
	recs := z.owners[cn]
	if lo, hi := span(recs, typ, z.Class); lo < hi {
		z.storeLocked(cn, slices.Delete(recs, lo, hi))
	}
}

// RRset returns a copy of the RRset (name, type), or nil. The RRSIG set
// is complete: reading it makes the owner's pending signatures.
func (z *Zone) RRset(name string, typ dnswire.Type) []dnswire.RR {
	return z.AppendRRset(nil, name, typ)
}

// AppendRRset appends the RRset (name, type) to dst and returns the
// extended slice; dst is returned unchanged when the set is empty. A
// server building a response section appends the zone's records straight
// into it this way, without RRset's intermediate copy.
func (z *Zone) AppendRRset(dst []dnswire.RR, name string, typ dnswire.Type) []dnswire.RR {
	name = dnswire.CanonicalName(name)
	if typ == dnswire.TypeRRSIG {
		z.signOwner(name)
	}
	z.mu.RLock()
	defer z.mu.RUnlock()
	return append(dst, z.setLocked(name, typ)...)
}

// First returns the first record of the RRset (name, type) and whether
// the set exists, without copying the set: the existence checks and
// single-record lookups (SOA, NSEC, NSEC3, NSEC3PARAM) of a server
// answer.
func (z *Zone) First(name string, typ dnswire.Type) (dnswire.RR, bool) {
	name = dnswire.CanonicalName(name)
	if typ == dnswire.TypeRRSIG {
		z.signOwner(name)
	}
	z.mu.RLock()
	defer z.mu.RUnlock()
	if set := z.setLocked(name, typ); len(set) > 0 {
		return set[0], true
	}
	return dnswire.RR{}, false
}

// NameExists reports whether the zone holds records at or below name.
// An empty non-terminal — a name with no records of its own but with
// records beneath it — exists (RFC 4592 §2.2.2), so it gets NODATA,
// never NXDOMAIN (RFC 8020 §2). Descendants sort right after name in
// canonical order, so the first name ≥ name decides.
func (z *Zone) NameExists(name string) bool {
	name = dnswire.CanonicalName(name)
	z.mu.RLock()
	_, own := z.owners[name]
	z.mu.RUnlock()
	if own {
		return true
	}
	names := z.Names()
	i := sort.Search(len(names), func(i int) bool { return !dnswire.CanonicalNameLess(names[i], name) })
	return i < len(names) && dnswire.IsSubdomain(names[i], name)
}

// TypesAt returns the sorted set of record types present at name.
func (z *Zone) TypesAt(name string) []dnswire.Type {
	name = dnswire.CanonicalName(name)
	z.mu.RLock()
	defer z.mu.RUnlock()
	var types []dnswire.Type
	for _, rr := range z.owners[name] {
		if t := rr.Type(); len(types) == 0 || types[len(types)-1] != t {
			types = append(types, t)
		}
	}
	return types
}

// Names returns every owner name in the zone in DNSSEC canonical
// order. The result is cached until an owner appears or disappears;
// callers must not modify the returned slice.
func (z *Zone) Names() []string {
	z.mu.RLock()
	cached := z.namesCache
	z.mu.RUnlock()
	if cached != nil {
		return cached
	}
	z.mu.Lock()
	defer z.mu.Unlock()
	if z.namesCache != nil {
		return z.namesCache
	}
	names := make([]string, 0, len(z.owners))
	for name := range z.owners {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return dnswire.CanonicalNameLess(names[i], names[j]) })
	z.namesCache = names
	return names
}

// All returns every record in the zone, grouped by owner in canonical
// order, types ascending within an owner.
func (z *Zone) All() []dnswire.RR {
	var out []dnswire.RR
	for _, n := range z.Names() {
		z.signOwner(n)
		z.mu.RLock()
		for _, rr := range z.owners[n] {
			if rr.Class == z.Class {
				out = append(out, rr)
			}
		}
		z.mu.RUnlock()
	}
	return out
}

// SOA returns the zone's SOA record, or nil if absent.
func (z *Zone) SOA() *dnswire.RR {
	soa, ok := z.First(z.Origin, dnswire.TypeSOA)
	if !ok {
		return nil
	}
	return &soa
}

// NS returns the apex NS RRset.
func (z *Zone) NS() []dnswire.RR { return z.RRset(z.Origin, dnswire.TypeNS) }

// NSHosts returns the apex nameserver hostnames.
func (z *Zone) NSHosts() []string {
	var out []string
	for _, rr := range z.NS() {
		out = append(out, rr.Data.(*dnswire.NS).Target)
	}
	return out
}

// DelegationAt reports whether name is a zone cut: an NS RRset exists
// at a name strictly below the apex.
func (z *Zone) DelegationAt(name string) bool {
	name = dnswire.CanonicalName(name)
	z.mu.RLock()
	defer z.mu.RUnlock()
	return z.cutLocked(name)
}

func (z *Zone) cutLocked(name string) bool {
	return name != z.Origin && len(z.setLocked(name, dnswire.TypeNS)) > 0
}

// FindCut walks from qname toward the apex looking for the closest
// enclosing zone cut. It returns the cut name, or "" if qname is not
// occluded by any delegation.
func (z *Zone) FindCut(qname string) string {
	qname = dnswire.CanonicalName(qname)
	// Inspect every ancestor of qname strictly below the apex: the
	// shallowest cut wins, the last one found on the way up.
	z.mu.RLock()
	defer z.mu.RUnlock()
	cut := ""
	for n := qname; n != z.Origin && n != "."; n = dnswire.Parent(n) {
		if z.cutLocked(n) {
			cut = n
		}
	}
	return cut
}

// Occluded reports whether name sits strictly below a zone cut (glue
// and other below-cut data are not authoritative and never signed).
func (z *Zone) Occluded(name string) bool {
	cut := z.FindCut(name)
	return cut != "" && dnswire.CanonicalName(name) != cut
}

// WildcardFor returns the wildcard owner ("*.<closest encloser>") that
// would synthesise answers for qname, or "" when none applies
// (RFC 1034 §4.3.3: the closest encloser is the longest existing
// ancestor of qname, and qname itself must not exist).
func (z *Zone) WildcardFor(qname string) string {
	qname = dnswire.CanonicalName(qname)
	if z.NameExists(qname) || !dnswire.IsSubdomain(qname, z.Origin) {
		return ""
	}
	for anc := dnswire.Parent(qname); ; anc = dnswire.Parent(anc) {
		if z.NameExists(anc) || anc == z.Origin {
			wc := dnswire.Join("*", anc)
			if z.NameExists(wc) {
				return wc
			}
			return ""
		}
		if anc == "." {
			return ""
		}
	}
}

// SetBasics installs a standard SOA and apex NS records; a convenience
// used throughout the generator and tests.
func (z *Zone) SetBasics(primaryNS string, nsHosts []string, serial uint32) {
	z.MustAdd(dnswire.RR{Name: z.Origin, TTL: 3600, Data: &dnswire.SOA{
		MName: dnswire.CanonicalName(primaryNS), RName: dnswire.CanonicalName("hostmaster." + strings.TrimPrefix(z.Origin, ".")),
		Serial: serial, Refresh: 7200, Retry: 3600, Expire: 1209600, Minimum: 300,
	}})
	for _, h := range nsHosts {
		z.MustAdd(dnswire.RR{Name: z.Origin, TTL: 3600, Data: dnswire.NewNS(h)})
	}
}

// Size returns the number of records in the zone, counting pending
// signatures without making them.
func (z *Zone) Size() int {
	z.mu.RLock()
	defer z.mu.RUnlock()
	n := 0
	for _, recs := range z.owners {
		n += len(recs)
		if z.lazy {
			for _, rr := range recs {
				if p, ok := rr.Data.(*pendingSig); ok {
					n += len(p.by.keys(p.covered)) - 1
				}
			}
		}
	}
	return n
}

// Clone returns a deep-enough copy of the zone (records are value
// copies; RData payloads are shared, which is safe because the library
// treats them as immutable once added). Pending signatures are made
// first, so the copy and the original hold the same signature bytes.
func (z *Zone) Clone() *Zone {
	z.mu.Lock()
	defer z.mu.Unlock()
	if z.lazy {
		for owner := range z.owners {
			z.signOwnerLocked(owner)
		}
	}
	c := New(z.Origin)
	c.Class = z.Class
	c.Keys = append([]*dnssec.Key(nil), z.Keys...)
	for owner, recs := range z.owners {
		c.owners[owner] = slices.Clone(recs)
	}
	// The cache is never written in place, only replaced.
	c.namesCache = z.namesCache
	return c
}

// IsSigned reports whether the zone currently contains a DNSKEY RRset.
func (z *Zone) IsSigned() bool {
	return len(z.RRset(z.Origin, dnswire.TypeDNSKEY)) > 0
}

// signingKeys splits the key list into KSK and ZSK roles.
func (z *Zone) signingKeys() (ksk, zsk *dnssec.Key) {
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
	return ksk, zsk
}

// timeNow is swapped in tests of time-sensitive signing paths.
var timeNow = time.Now
