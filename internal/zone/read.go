package zone

import (
	"slices"
	"sort"
	"strings"

	"dnssecboot/internal/dnswire"
)

// Reader is one read of a zone under its read lock, which Read lends
// to a function: what the zone says about the name read, and the
// records an answer copies from it. Every name given to a Reader must
// be canonical (dnswire.CanonicalName's form); it is not checked again.
// A Reader keeps where the records of the name read and of the owner it
// found last are, so the sets and signatures an answer takes from one
// owner cost one lookup, and the apex, which sorts first, none.
type Reader struct {
	z        *Zone
	name     string
	at       int // where name sorts among the records (pos); -1 until needed
	own      run // the records of the name read
	last     run // the records of lastName
	lastName string
}

// Read reads the zone at name under one read lock: it looks name up
// and calls fn, which answers from r while the lock is held. A
// signature Sign deferred is made when r first reads it, with the zone
// unlocked, and the read goes on under the lock taken again.
func (z *Zone) Read(r *Reader, name string, fn func()) {
	z.rlock()
	defer z.mu.RUnlock()
	*r = Reader{z: z, name: name, at: -1}
	r.own = r.find(name)
	fn()
}

// find returns owner's records, the apex's without a lookup.
func (r *Reader) find(owner string) run {
	z := r.z
	if owner == z.Origin && len(z.recs) > 0 && z.recs[0].Name == z.Origin {
		return run{0, ownerEnd(z.recs, 0)}
	}
	lo, hi := z.ownerLocked(owner)
	return run{lo, hi}
}

// set returns owner's RRset (typ) of the zone's class, which aliases
// the zone.
func (r *Reader) set(owner string, typ dnswire.Type) []dnswire.RR {
	own := r.own
	if owner != r.name {
		if owner != r.lastName {
			r.last, r.lastName = r.find(owner), owner
		}
		own = r.last
	}
	recs := r.z.recs[own.lo:own.hi]
	lo, hi := span(recs, typ, r.z.Class)
	return recs[lo:hi]
}

// reread takes the read lock again after a write, which may have moved
// every record.
func (r *Reader) reread() {
	r.z.rlock()
	r.own, r.lastName, r.at = r.find(r.name), "", -1
}

// pos returns the offset of the first record whose owner does not sort
// before the name read.
func (r *Reader) pos() int {
	if r.at < 0 {
		r.at = r.z.searchLocked(r.name)
	}
	return r.at
}

// Exists reports whether the zone holds records at or below the name
// read. An empty non-terminal — no records of its own, records below
// it — exists (RFC 4592 §2.2.2), so it gets NODATA, never NXDOMAIN
// (RFC 8020 §2).
func (r *Reader) Exists() bool {
	if r.own.lo < r.own.hi {
		return true
	}
	i := r.pos()
	return i < len(r.z.recs) && dnswire.CanonicalSubdomain(r.z.recs[i].Name, r.name)
}

// AppendRRset appends the RRset (owner, typ) of the zone's class to dst
// and returns the extended slice. Reading the RRSIG set makes owner's
// pending signatures.
func (r *Reader) AppendRRset(dst []dnswire.RR, owner string, typ dnswire.Type) []dnswire.RR {
	if typ == dnswire.TypeRRSIG {
		r.signOwner(owner)
	}
	return append(dst, r.set(owner, typ)...)
}

// First returns the first record of the RRset (owner, typ) and whether
// the set exists, without copying the set.
func (r *Reader) First(owner string, typ dnswire.Type) (dnswire.RR, bool) {
	if typ == dnswire.TypeRRSIG {
		r.signOwner(owner)
	}
	if set := r.set(owner, typ); len(set) > 0 {
		return set[0], true
	}
	return dnswire.RR{}, false
}

// AppendAll appends the records of the name read of the zone's class to
// dst, by type, as an ANY answer lists them, making their pending
// signatures first.
func (r *Reader) AppendAll(dst []dnswire.RR) []dnswire.RR {
	r.signOwner(r.name)
	for _, rr := range r.z.recs[r.own.lo:r.own.hi] {
		if rr.Class == r.z.Class {
			dst = append(dst, rr)
		}
	}
	return dst
}

// signOwner makes every pending signature at owner.
func (r *Reader) signOwner(owner string) {
	for _, rr := range r.set(owner, dnswire.TypeRRSIG) {
		if _, ok := rr.Data.(*pendingSig); ok {
			z := r.z
			z.mu.RUnlock()
			z.mu.Lock()
			z.buildLocked()
			z.signOwnerLocked(owner)
			z.mu.Unlock()
			r.reread()
			return
		}
	}
}

// AppendSigs appends the RRSIGs at owner covering covered to dst and
// returns the extended slice. A signature Sign deferred is made here on
// first read, with the zone unlocked, and stored under the write lock
// only if no other reader or write made it in the meantime, so every
// reader sees the same bytes.
func (r *Reader) AppendSigs(dst []dnswire.RR, owner string, covered dnswire.Type) []dnswire.RR {
	n := len(dst)
	for {
		var p *pendingSig
		if dst, p = r.appendSigs(dst[:n], owner, covered); p == nil {
			return dst
		}
		z := r.z
		set := slices.Clone(r.set(owner, covered))
		z.mu.RUnlock()
		made := p.by.sign(set, covered)
		z.mu.Lock()
		z.buildLocked()
		switch i, q := z.placeholderLocked(owner, covered); q {
		case nil: // another reader or a write made them meanwhile
		case p:
			z.replaceLocked(i, made)
		default: // a later Sign's
			z.makeLocked(i, q)
		}
		z.mu.Unlock()
		r.reread()
	}
}

// appendSigs appends the RRSIGs made at owner covering covered to dst,
// and returns the placeholder standing for them if they are not made
// yet.
func (r *Reader) appendSigs(dst []dnswire.RR, owner string, covered dnswire.Type) ([]dnswire.RR, *pendingSig) {
	var pending *pendingSig
	for _, rr := range r.set(owner, dnswire.TypeRRSIG) {
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

// FindCut returns the shallowest zone cut at or above name and strictly
// below the apex — a name other than the apex with an NS RRset — or "".
func (r *Reader) FindCut(name string) string {
	cut := ""
	for n := name; n != r.z.Origin && n != "."; n = dnswire.CanonicalParent(n) {
		if len(r.set(n, dnswire.TypeNS)) > 0 {
			cut = n
		}
	}
	return cut
}

// Preceding returns the first record of type typ at the last owner
// that sorts canonically before name and has one: the NSEC or NSEC3
// whose interval may cover a name the zone does not hold.
func (r *Reader) Preceding(name string, typ dnswire.Type) (dnswire.RR, bool) {
	if name == r.name {
		return r.before(r.pos(), typ)
	}
	return r.before(r.z.searchLocked(name), typ)
}

// before is Preceding for the name that would sort at offset i.
func (r *Reader) before(i int, typ dnswire.Type) (dnswire.RR, bool) {
	z := r.z
	for i--; i >= 0; i-- {
		if rr := z.recs[i]; rr.Class == z.Class && rr.Type() == typ {
			return r.set(rr.Name, typ)[0], true
		}
	}
	return dnswire.RR{}, false
}

// Encloser returns the closest encloser of the name read, which does
// not exist: its longest ancestor that does, and next, the ancestor one
// label below it on the way to the name (RFC 5155's next closer name).
// An existing ancestor's subtree is a run of the zone's canonical order
// that reaches where the name would sort, so one of the two owners
// there is in it: they decide, without a lookup per ancestor.
func (r *Reader) Encloser() (ce, next string) {
	z, i := r.z, r.pos()
	var before, after string
	if i > 0 {
		before = z.recs[i-1].Name
	}
	if i < len(z.recs) {
		after = z.recs[i].Name
	}
	next = r.name
	for ce = dnswire.CanonicalParent(r.name); ce != "."; ce = dnswire.CanonicalParent(ce) {
		if dnswire.CanonicalSubdomain(before, ce) || dnswire.CanonicalSubdomain(after, ce) {
			break
		}
		next = ce
	}
	return ce, next
}

// Wildcard returns the wildcard that would synthesise answers for the
// name read, which does not exist: "*.<closest encloser>" when the zone
// holds records at or below it (RFC 1034 §4.3.3), else "". It is found
// by one search and returned as the tail of an owner's name.
func (r *Reader) Wildcard() string {
	z := r.z
	ce, _ := r.Encloser()
	if !dnswire.CanonicalSubdomain(r.name, z.Origin) || !dnswire.CanonicalSubdomain(ce, z.Origin) {
		return ""
	}
	i := r.searchWildcard(ce)
	if i == len(z.recs) {
		return ""
	}
	o, tail := z.recs[i].Name, strings.TrimPrefix(ce, ".")
	k := len(o) - len(tail) - 2 // where "*." starts in a name at or below the wildcard
	if k < 0 || o[k:k+2] != "*." || o[k+2:] != tail || k > 0 && o[k-1] != '.' {
		return ""
	}
	return o[k:]
}

// WildcardNSEC returns the NSEC Preceding finds for the wildcard at ce
// and whether its interval covers that wildcard (RFC 4035 §3.1.3.2),
// as dnssec.NSECCoversName would, without making the wildcard's name.
func (r *Reader) WildcardNSEC(ce string) (dnswire.RR, bool) {
	nsec, ok := r.before(r.searchWildcard(ce), dnswire.TypeNSEC)
	if !ok {
		return nsec, false
	}
	next := dnswire.CanonicalName(nsec.Data.(*dnswire.NSEC).NextDomain)
	if dnswire.CanonicalNameLess(nsec.Name, next) { // its owner sorts before the wildcard
		return nsec, compareWildcard(next, ce) > 0
	}
	return nsec, compareWildcard(next, ce) != 0 && dnswire.CanonicalSubdomain(ce, next) // the last NSEC
}

// searchWildcard returns the offset of the first record whose owner
// does not sort before the wildcard at ce.
func (r *Reader) searchWildcard(ce string) int {
	recs := r.z.recs
	return sort.Search(len(recs), func(i int) bool { return compareWildcard(recs[i].Name, ce) >= 0 })
}

// compareWildcard compares name with the wildcard at ce, "*.<ce>", in
// canonical order, without making that name.
func compareWildcard(name, ce string) int {
	if !dnswire.CanonicalSubdomain(name, ce) {
		return dnswire.CanonicalNameCompare(name, ce) // not 0: name is not ce
	}
	if name == ce {
		return -1
	}
	below := name[:len(name)-len(strings.TrimPrefix(ce, "."))-1] // name's labels below ce
	if c := strings.Compare(below[strings.LastIndexByte(below, '.')+1:], "*"); c != 0 {
		return c
	}
	return len(below) - 1 // 0 at the wildcard, positive below it
}
