package zone

import (
	"slices"
	"strings"

	"dnssecboot/internal/dnssec"
	"dnssecboot/internal/dnswire"
)

// ParseString is Parse over a string.
func ParseString(text, origin string) (*Zone, error) {
	return Parse(strings.NewReader(text), origin)
}

// RemoveName deletes every record at name, pending signatures included.
func (z *Zone) RemoveName(name string) {
	name = dnswire.CanonicalName(name)
	z.mu.Lock()
	defer z.mu.Unlock()
	z.buildLocked()
	if lo, hi := z.ownerLocked(name); lo < hi {
		z.recs = slices.Delete(z.recs, lo, hi)
		z.sorted = len(z.recs)
		z.index = nil
	}
}

// Unsign removes all DNSSEC records (DNSKEY, RRSIG, NSEC, NSEC3,
// NSEC3PARAM) from the zone, leaving keys in place.
func (z *Zone) Unsign() {
	z.mu.Lock()
	defer z.mu.Unlock()
	z.buildLocked()
	n := len(z.recs)
	z.recs = slices.DeleteFunc(z.recs, func(rr dnswire.RR) bool { return replaced(rr, z.Class) })
	if len(z.recs) < n {
		z.sorted = len(z.recs)
		z.index = nil
	}
	// Every placeholder was an RRSIG of the zone's class.
	z.lazy = false
}

// Clone returns a deep-enough copy of the zone (records are value
// copies; RData payloads are shared, which is safe because the library
// treats them as immutable once added). Pending signatures are made
// first, so the copy and the original hold the same signature bytes.
func (z *Zone) Clone() *Zone {
	z.mu.Lock()
	defer z.mu.Unlock()
	z.buildLocked()
	z.signAllLocked()
	return &Zone{
		Origin: z.Origin,
		Class:  z.Class,
		recs:   slices.Clone(z.recs),
		sorted: len(z.recs),
		// An index is never written once made, only replaced.
		index: z.index,
		Keys:  append([]*dnssec.Key(nil), z.Keys...),
	}
}

// read lends fn a Reader of the zone at name, canonicalised.
func (z *Zone) read(name string, fn func(r *Reader)) {
	var r Reader
	z.Read(&r, dnswire.CanonicalName(name), func() { fn(&r) })
}

// NameExists reports whether the zone holds records at or below name.
func (z *Zone) NameExists(name string) (exists bool) {
	z.read(name, func(r *Reader) { exists = r.Exists() })
	return exists
}

// DelegationAt reports whether name is a zone cut: an NS RRset exists at
// a name strictly below the apex.
func (z *Zone) DelegationAt(name string) (cut bool) {
	name = dnswire.CanonicalName(name)
	z.read(name, func(r *Reader) {
		_, ns := r.First(name, dnswire.TypeNS)
		cut = ns && name != z.Origin
	})
	return cut
}

// FindCut returns the shallowest zone cut at or above qname, below the
// apex, or "".
func (z *Zone) FindCut(qname string) (cut string) {
	qname = dnswire.CanonicalName(qname)
	z.read(qname, func(r *Reader) { cut = r.FindCut(qname) })
	return cut
}

// WildcardFor returns the wildcard owner that would synthesise answers
// for qname, or "" when qname exists or none applies.
func (z *Zone) WildcardFor(qname string) (wc string) {
	z.read(qname, func(r *Reader) {
		if !r.Exists() {
			wc = r.Wildcard()
		}
	})
	return wc
}

// AppendSigs appends the RRSIGs at owner covering covered to dst, making
// them if Sign deferred them.
func (z *Zone) AppendSigs(dst []dnswire.RR, owner string, covered dnswire.Type) []dnswire.RR {
	owner = dnswire.CanonicalName(owner)
	z.read(owner, func(r *Reader) { dst = r.AppendSigs(dst, owner, covered) })
	return dst
}
