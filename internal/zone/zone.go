// Package zone provides an in-memory authoritative zone model: record
// storage with RRset semantics, delegation (zone-cut) awareness, a
// master-file parser and serialiser, and DNSSEC signing (RRSIG
// generation plus NSEC chain construction). It is the data model served
// by internal/server and generated by internal/ecosystem.
package zone

import (
	"fmt"
	"hash/maphash"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"dnssecboot/internal/dnssec"
	"dnssecboot/internal/dnswire"
)

// Zone is a mutable authoritative zone rooted at Origin. It is built
// one way, records in and one exact slice in canonical order with its
// owner index out: by AddRecords for a batch, by the first read after
// an Add, and by Sign, which writes the signed zone in one pass.
type Zone struct {
	Origin string
	Class  dnswire.Class
	// lazy, guarded by mu, is set once Sign has deferred a signature:
	// from then on an RRSIG set may hold pendingSig placeholders. It
	// sits beside Class so the struct packs into 128 bytes.
	lazy bool

	mu sync.RWMutex
	// recs holds every record of the zone in one slice. Built, it is
	// sorted by canonical owner, then type, then class, each RRset
	// keeps its insertion order, and an owner's records share one name
	// string. Add appends after the built records; the first read after
	// that builds the slice again (buildLocked).
	recs []dnswire.RR
	// sorted counts the leading records that are in built form.
	sorted int
	// index finds each owner's first record in the built slice (find);
	// nil when records have moved since it was made.
	index []uint32

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
		index:  noOwners,
	}
}

// noOwners is the index of a zone without records: one empty slot. It
// is shared, so it is never written.
var noOwners = []uint32{0}

// ownerSeed keys the owner index's hash. The index is never iterated,
// so the per-process seed changes no output.
var ownerSeed = maphash.MakeSeed()

// rlock read-locks the zone in built form. A reader that finds records
// appended or moved since the last build builds it under the write lock
// first, so readers holding the read lock never change the zone.
func (z *Zone) rlock() {
	z.mu.RLock()
	for z.index == nil || z.sorted < len(z.recs) {
		z.mu.RUnlock()
		z.mu.Lock()
		z.buildLocked()
		z.mu.Unlock()
		z.mu.RLock()
	}
}

// buildLocked sorts the records appended since the last build in among
// the built ones, applying Add's RRset rule to them, and remakes the
// owner index. Every write that looks a record up calls it first.
func (z *Zone) buildLocked() {
	if z.sorted < len(z.recs) {
		z.recs = merge(z.recs[:z.sorted], z.recs[z.sorted:])
		z.sorted = len(z.recs)
		z.index = nil
	}
	if z.index == nil {
		z.index = indexOwners(z.recs)
	}
}

// merge returns built, a zone's built records, with added, the records
// appended since, sorted in. Each added record joins its RRset as Add
// always has: it replaces an identical record in place, or else goes to
// the end of the set. It allocates one slice for the result.
func merge(built, added []dnswire.RR) []dnswire.RR {
	var small [16]run // a generated child zone has a few runs
	runs := sortRuns(added, small[:0])
	out := make([]dnswire.RR, 0, len(built)+len(added))
	i := 0
	for r := 0; r < len(runs); {
		owner := added[runs[r].lo].Name
		j := seek(built, i, owner)
		out = append(out, built[i:j]...)
		start := len(out)
		if j < len(built) && built[j].Name == owner {
			owner = built[j].Name
			i = ownerEnd(built, j)
			out = append(out, built[j:i]...)
		} else {
			i = j
		}
		for ; r < len(runs) && added[runs[r].lo].Name == owner; r++ {
			for _, rr := range added[runs[r].lo:runs[r].hi] {
				rr.Name = owner
				out = addToOwner(out, start, rr)
			}
		}
	}
	return append(out, built[i:]...)
}

// run is the records added[lo:hi] of one owner.
type run struct{ lo, hi int }

// sortRuns appends added's runs of one owner to runs, sorted by owner,
// then by position, so an owner's records keep their order. Runs come
// in ascending stretches (a generator adds a zone's owners, a registry
// its delegations, in order), so adjacent stretches are merged pairwise
// until one is left: O(runs × log stretches) compares.
func sortRuns(added []dnswire.RR, runs []run) []run {
	runs = slices.Grow(runs, countOwners(added))
	for i := 0; i < len(added); i = runs[len(runs)-1].hi {
		runs = append(runs, run{i, ownerEnd(added, i)})
	}
	less := func(a, b run) bool { return compareOwners(added[a.lo].Name, added[b.lo].Name) < 0 }
	var small [16]int
	bounds := small[:1] // where each stretch starts, then the end
	for i := 1; i < len(runs); i++ {
		if less(runs[i], runs[i-1]) {
			bounds = append(bounds, i)
		}
	}
	bounds = append(bounds, len(runs))
	var buf []run
	if len(bounds) > 2 {
		buf = make([]run, 0, len(runs))
	}
	for len(bounds) > 2 {
		out, next := buf[:0], bounds[:1]
		for k := 2; k < len(bounds)+1; k += 2 {
			a, b := runs[bounds[k-2]:bounds[k-1]], runs[bounds[k-1]:bounds[min(k, len(bounds)-1)]]
			for len(a) > 0 && len(b) > 0 { // a tie takes a's run, the earlier
				if less(b[0], a[0]) {
					out, b = append(out, b[0]), b[1:]
				} else {
					out, a = append(out, a[0]), a[1:]
				}
			}
			out = append(append(out, a...), b...)
			next = append(next, bounds[min(k, len(bounds)-1)])
		}
		runs, buf, bounds = out, runs, next
	}
	return runs
}

// addToOwner adds rr to the owner's records at recs[start:], which
// end recs: an identical record is replaced in place, else rr goes to
// the end of its RRset.
func addToOwner(recs []dnswire.RR, start int, rr dnswire.RR) []dnswire.RR {
	lo, hi := span(recs[start:], rr.Type(), rr.Class)
	for i := start + lo; i < start+hi; i++ {
		if recs[i].Equal(rr) {
			recs[i] = rr
			return recs
		}
	}
	if at := start + hi; at < len(recs) {
		return slices.Insert(recs, at, rr)
	}
	return append(recs, rr)
}

// compareOwners orders owner names canonically. Two different strings
// never compare equal, so each owner's records stay one run.
func compareOwners(a, b string) int {
	if a == b {
		return 0
	}
	if c := dnswire.CanonicalNameCompare(a, b); c != 0 {
		return c
	}
	return strings.Compare(a, b)
}

// seek returns the first index at or after i of the sorted recs whose
// owner does not sort before owner. It gallops from i, because the
// next owner merged in is usually close.
func seek(recs []dnswire.RR, i int, owner string) int {
	lo, hi, step := i, i, 1
	for hi < len(recs) && compareOwners(recs[hi].Name, owner) < 0 {
		lo = hi + 1
		hi = lo + step
		step *= 2
	}
	hi = min(hi, len(recs))
	return lo + sort.Search(hi-lo, func(k int) bool { return compareOwners(recs[lo+k].Name, owner) >= 0 })
}

// ownerEnd returns the end of the run of records at recs[i]'s owner.
func ownerEnd(recs []dnswire.RR, i int) int {
	own := recs[i].Name
	j := i + 1
	for j < len(recs) && recs[j].Name == own {
		j++
	}
	return j
}

// countOwners returns the number of owners of sorted records.
func countOwners(recs []dnswire.RR) int {
	n := 0
	for i := 0; i < len(recs); i = ownerEnd(recs, i) {
		n++
	}
	return n
}

// indexOwners returns the owner index of built records: an
// open-addressed table of at least two slots per owner, each nonzero
// slot one plus the offset of an owner's first record, found by linear
// probing from the owner's hash.
func indexOwners(recs []dnswire.RR) []uint32 {
	owners := countOwners(recs)
	if owners == 0 {
		return noOwners
	}
	size := 2
	for size < 2*owners {
		size <<= 1
	}
	index := make([]uint32, size)
	mask := uint64(size - 1)
	for i := 0; i < len(recs); i = ownerEnd(recs, i) {
		s := maphash.String(ownerSeed, recs[i].Name) & mask
		for index[s] != 0 {
			s = (s + 1) & mask
		}
		index[s] = uint32(i + 1)
	}
	return index
}

// find returns the offset of owner's first record in the built zone,
// or -1.
func (z *Zone) find(owner string) int {
	mask := uint64(len(z.index) - 1)
	for s := maphash.String(ownerSeed, owner) & mask; ; s = (s + 1) & mask {
		v := z.index[s]
		if v == 0 {
			return -1
		}
		if z.recs[v-1].Name == owner {
			return int(v - 1)
		}
	}
}

// ownerLocked returns the bounds [lo, hi) of owner's records among the
// built ones, recs[:sorted]; they are empty when it has none. Without an
// index (records were deleted since it was made) it searches them, so
// an Add to a lazily signed zone finds a placeholder without a rebuild.
func (z *Zone) ownerLocked(owner string) (lo, hi int) {
	built := z.recs[:z.sorted]
	var i int
	if z.index != nil {
		i = z.find(owner)
	} else if i = seek(built, 0, owner); i == len(built) || built[i].Name != owner {
		i = -1
	}
	if i < 0 {
		return 0, 0
	}
	return i, ownerEnd(built, i)
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
	lo, hi := z.ownerLocked(owner)
	own := z.recs[lo:hi]
	slo, shi := span(own, typ, z.Class)
	return own[slo:shi]
}

// Add inserts rr into the zone, replacing an identical record if
// present (RRset semantics: no duplicate RDATA within a set). A pending
// signature over the RRset it joins is made first, and so are all the
// owner's when rr is itself an RRSIG, so the zone ends as eager signing
// would have left it. Then Add appends, and the next read sorts the
// record in. Records appended since the last build never hold a
// placeholder, nor join a set that still has one, so the placeholder is
// looked up among the built records and Add never rebuilds the zone.
func (z *Zone) Add(rr dnswire.RR) error {
	if err := z.admit(&rr); err != nil {
		return err
	}
	z.mu.Lock()
	defer z.mu.Unlock()
	z.joinLocked(rr)
	z.recs = append(z.recs, rr)
	return nil
}

// AddRecords adds recs as Add would add each in turn, and builds the
// zone at once: one new exact slice, indexed once, and no copy per
// record. It canonicalises recs in place and keeps no reference to it;
// an out-of-zone record fails the call before the zone changes.
func (z *Zone) AddRecords(recs []dnswire.RR) error {
	for i := range recs {
		if i > 0 && recs[i].Name == recs[i-1].Name && recs[i].Class != 0 {
			continue // the owner is the admitted one before it
		}
		if err := z.admit(&recs[i]); err != nil {
			return err
		}
	}
	if len(recs) == 0 {
		return nil
	}
	z.mu.Lock()
	defer z.mu.Unlock()
	for _, rr := range recs {
		z.joinLocked(rr)
	}
	z.buildLocked()
	z.recs = merge(z.recs, recs)
	z.sorted = len(z.recs)
	z.index = indexOwners(z.recs)
	return nil
}

// admit canonicalises rr's owner and gives it the zone's class if it
// has none; it fails when rr is out of zone.
func (z *Zone) admit(rr *dnswire.RR) error {
	rr.Name = dnswire.CanonicalName(rr.Name)
	if !dnswire.IsSubdomain(rr.Name, z.Origin) {
		return fmt.Errorf("zone: %s is out of zone %s", rr.Name, z.Origin)
	}
	if rr.Class == 0 {
		rr.Class = z.Class
	}
	return nil
}

// joinLocked makes the pending signatures over the RRset rr joins, or
// all at its owner when rr is an RRSIG.
func (z *Zone) joinLocked(rr dnswire.RR) {
	if !z.lazy {
		return
	}
	if typ := rr.Type(); typ == dnswire.TypeRRSIG {
		z.signOwnerLocked(rr.Name)
	} else {
		z.signPendingLocked(rr.Name, typ)
	}
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
	_ = z.ReplaceRRset(name, typ, nil)
}

// ReplaceRRset replaces the RRset (owner, typ) of the zone's class
// with recs, as RemoveSet and an Add of each would, rewriting recs. A
// set that keeps its size is written in place: the zone stays built.
func (z *Zone) ReplaceRRset(owner string, typ dnswire.Type, recs []dnswire.RR) error {
	owner = dnswire.CanonicalName(owner)
	set := recs[:0]
	for _, rr := range recs {
		if err := z.admit(&rr); err != nil {
			return err
		}
		if rr.Name != owner || rr.Type() != typ || rr.Class != z.Class {
			return fmt.Errorf("zone: %s %s is not in the RRset %s %s", rr.Name, rr.Type(), owner, typ)
		}
		set = addToOwner(set, 0, rr)
	}
	z.mu.Lock()
	defer z.mu.Unlock()
	z.buildLocked()
	if z.lazy && typ != dnswire.TypeRRSIG {
		z.signPendingLocked(owner, typ)
	}
	lo, hi := z.ownerLocked(owner)
	if lo == hi { // a new owner: the next read sorts it in
		z.recs = append(z.recs, set...)
		return nil
	}
	for i := range set {
		set[i].Name = z.recs[lo].Name
	}
	slo, shi := span(z.recs[lo:hi], typ, z.Class)
	z.recs = slices.Replace(z.recs, lo+slo, lo+shi, set...)
	if len(set) != shi-slo {
		z.sorted = len(z.recs)
		z.index = indexOwners(z.recs)
	}
	return nil
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
	z.rlock()
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
	z.rlock()
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
// canonical order, so the first record at or after name decides.
func (z *Zone) NameExists(name string) bool {
	name = dnswire.CanonicalName(name)
	z.rlock()
	defer z.mu.RUnlock()
	if z.find(name) >= 0 {
		return true
	}
	i := z.searchLocked(name)
	return i < len(z.recs) && dnswire.IsSubdomain(z.recs[i].Name, name)
}

// searchLocked returns the offset of the first record of the built zone
// whose owner does not sort before name.
func (z *Zone) searchLocked(name string) int {
	return sort.Search(len(z.recs), func(i int) bool { return !dnswire.CanonicalNameLess(z.recs[i].Name, name) })
}

// Preceding returns the first record of type typ at the last owner
// that sorts canonically before name and has one: the NSEC whose
// interval may cover a name the zone does not hold.
func (z *Zone) Preceding(name string, typ dnswire.Type) (dnswire.RR, bool) {
	name = dnswire.CanonicalName(name)
	z.rlock()
	defer z.mu.RUnlock()
	for i := z.searchLocked(name) - 1; i >= 0; i-- {
		if rr := z.recs[i]; rr.Class == z.Class && rr.Type() == typ {
			return z.setLocked(rr.Name, typ)[0], true
		}
	}
	return dnswire.RR{}, false
}

// TypesAt returns the sorted set of record types present at name.
func (z *Zone) TypesAt(name string) []dnswire.Type {
	name = dnswire.CanonicalName(name)
	z.rlock()
	defer z.mu.RUnlock()
	lo, hi := z.ownerLocked(name)
	return appendTypes(nil, z.recs[lo:hi])
}

// appendTypes appends the types of own, one owner's records, to dst,
// each once.
func appendTypes(dst []dnswire.Type, own []dnswire.RR) []dnswire.Type {
	n := len(dst)
	for _, rr := range own {
		if t := rr.Type(); len(dst) == n || dst[len(dst)-1] != t {
			dst = append(dst, t)
		}
	}
	return dst
}

// Names returns every owner name in the zone in DNSSEC canonical
// order, in a slice made for the call.
func (z *Zone) Names() []string {
	z.rlock()
	defer z.mu.RUnlock()
	names := make([]string, 0, countOwners(z.recs))
	for i := 0; i < len(z.recs); i = ownerEnd(z.recs, i) {
		names = append(names, z.recs[i].Name)
	}
	return names
}

// All returns every record in the zone, grouped by owner in canonical
// order, types ascending within an owner.
func (z *Zone) All() []dnswire.RR {
	z.signAll()
	z.rlock()
	defer z.mu.RUnlock()
	out := make([]dnswire.RR, 0, len(z.recs))
	for _, rr := range z.recs {
		if rr.Class == z.Class {
			out = append(out, rr)
		}
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
	z.rlock()
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
	z.rlock()
	defer z.mu.RUnlock()
	cut := ""
	for n := qname; n != z.Origin && n != "."; n = dnswire.Parent(n) {
		if z.cutLocked(n) {
			cut = n
		}
	}
	return cut
}

// occludedLocked reports whether a strict ancestor of name below the
// apex is a zone cut.
func (z *Zone) occludedLocked(name string) bool {
	if name == z.Origin || name == "." {
		return false
	}
	for n := dnswire.Parent(name); n != z.Origin && n != "."; n = dnswire.Parent(n) {
		if z.cutLocked(n) {
			return true
		}
	}
	return false
}

// Occluded reports whether name sits strictly below a zone cut (glue
// and other below-cut data are not authoritative and never signed).
func (z *Zone) Occluded(name string) bool {
	name = dnswire.CanonicalName(name)
	z.rlock()
	defer z.mu.RUnlock()
	return z.occludedLocked(name)
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
	z.MustAdd(NewSOA(z.Origin, primaryNS, serial))
	for _, h := range nsHosts {
		z.MustAdd(dnswire.RR{Name: z.Origin, TTL: 3600, Data: dnswire.NewNS(h)})
	}
}

// NewSOA returns SetBasics' SOA record.
func NewSOA(origin, primaryNS string, serial uint32) dnswire.RR {
	origin = dnswire.CanonicalName(origin)
	return dnswire.RR{Name: origin, TTL: 3600, Data: &dnswire.SOA{
		MName: dnswire.CanonicalName(primaryNS), RName: dnswire.CanonicalName("hostmaster." + strings.TrimPrefix(origin, ".")),
		Serial: serial, Refresh: 7200, Retry: 3600, Expire: 1209600, Minimum: 300,
	}}
}

// Size returns the number of records in the zone, counting pending
// signatures without making them.
func (z *Zone) Size() int {
	z.rlock()
	defer z.mu.RUnlock()
	n := len(z.recs)
	if z.lazy {
		for _, rr := range z.recs {
			if p, ok := rr.Data.(*pendingSig); ok {
				n += len(p.by.keys(p.covered)) - 1
			}
		}
	}
	return n
}

// IsSigned reports whether the zone currently contains a DNSKEY RRset.
func (z *Zone) IsSigned() bool {
	return len(z.RRset(z.Origin, dnswire.TypeDNSKEY)) > 0
}

// SigningKeys splits the key list into KSK and ZSK roles.
func (z *Zone) SigningKeys() (ksk, zsk *dnssec.Key) {
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
