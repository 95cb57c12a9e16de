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
