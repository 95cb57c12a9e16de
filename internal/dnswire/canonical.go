package dnswire

import (
	"bytes"
	"sort"
	"strings"
)

// Canonical forms per RFC 4034 §6, used when constructing the data that
// RRSIGs cover and when ordering RRsets for signing and comparison.

// CanonicalNameWire returns the uncompressed, lowercase wire encoding
// of a domain name.
func CanonicalNameWire(name string) ([]byte, error) {
	return AppendCanonicalNameWire(nil, name)
}

// AppendCanonicalNameWire appends the uncompressed, lowercase wire
// encoding of a domain name to dst.
func AppendCanonicalNameWire(dst []byte, name string) ([]byte, error) {
	return packName(dst, name, nil)
}

// CanonicalRDATA returns the RDATA of rr in canonical form: names
// embedded in the RDATA of the RFC 4034 §6.2 legacy type list are
// lowercased (our typed payloads already normalise names on unpack, so
// the plain uncompressed encoding is canonical).
func CanonicalRDATA(rr RR) ([]byte, error) {
	return RDataWire(rr.Data)
}

// SortCanonical sorts records into canonical RDATA order (RFC 4034
// §6.3): treating each record's canonical RDATA as a left-justified
// octet string. Owner/class/type are assumed uniform (one RRset).
func SortCanonical(rrs []RR) error {
	type keyed struct {
		rr  RR
		key []byte
	}
	ks := make([]keyed, len(rrs))
	for i, rr := range rrs {
		w, err := CanonicalRDATA(rr)
		if err != nil {
			return err
		}
		ks[i] = keyed{rr, w}
	}
	sort.SliceStable(ks, func(i, j int) bool {
		return bytes.Compare(ks[i].key, ks[j].key) < 0
	})
	for i := range ks {
		rrs[i] = ks[i].rr
	}
	return nil
}

// CanonicalNameLess compares two domain names in DNSSEC canonical
// ordering (RFC 4034 §6.1): by reversed label sequence, each label
// compared as a lowercase octet string.
func CanonicalNameLess(a, b string) bool { return CanonicalNameCompare(a, b) < 0 }

// CanonicalNameCompare returns a negative number, zero or a positive
// number as a sorts before, with or after b in canonical order
// (CanonicalNameLess).
//
// It walks the labels right to left in place, folding ASCII case as it
// goes, so it does not allocate: it runs inside the server's NSEC
// binary search and every zone's name sort. The labels both names end
// with byte for byte are skipped unread; a label pair it compares that
// holds a byte ≥ 0x80 is lowercased Unicode-aware first, which can
// change its bytes in ways ASCII folding does not.
func CanonicalNameCompare(a, b string) int {
	// "" and "." have no labels; otherwise the labels are those of the
	// name without its one trailing dot, empty ones included.
	moreA, moreB := a != "" && a != ".", b != "" && b != "."
	a, b = strings.TrimSuffix(a, "."), strings.TrimSuffix(b, ".")
	if moreA && moreB {
		a, b = trimCommonLabels(a, b)
	}
	for moreA && moreB {
		var la, lb string
		la, a, moreA = lastLabel(a)
		lb, b, moreB = lastLabel(b)
		if c := compareLabels(la, lb); c != 0 {
			return c
		}
	}
	switch {
	case moreB:
		return -1
	case moreA:
		return 1
	}
	return 0
}

// compareLabels compares two labels as if both were lowercased.
func compareLabels(a, b string) int {
	if isASCII(a) && isASCII(b) {
		return compareFold(a, b)
	}
	return strings.Compare(strings.ToLower(a), strings.ToLower(b))
}

// trimCommonLabels drops the labels two names end with byte for byte,
// up to the leftmost dot of their common tail, so names under one zone
// are compared from the labels where they differ. Each keeps at least
// one label, possibly empty, left of the cut.
func trimCommonLabels(a, b string) (string, string) {
	i, j := len(a), len(b)
	for i > 0 && j > 0 && a[i-1] == b[j-1] {
		i--
		j--
	}
	if k := strings.IndexByte(a[i:], '.'); k >= 0 {
		return a[:i+k], b[:j+k]
	}
	return a, b
}

// lastLabel splits the rightmost label off name, reporting whether any
// label (possibly empty) remains to its left.
func lastLabel(name string) (label, rest string, more bool) {
	i := strings.LastIndexByte(name, '.')
	if i < 0 {
		return name, "", false
	}
	return name[i+1:], name[:i], true
}

// compareFold compares two ASCII strings as if both were lowercased.
func compareFold(a, b string) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		ca, cb := lowerASCII(a[i]), lowerASCII(b[i])
		if ca != cb {
			return int(ca) - int(cb)
		}
	}
	return len(a) - len(b)
}

// EqualFoldASCII reports whether a and b are equal with ASCII letters
// folded, the only case-insensitivity DNS names have (RFC 4343).
func EqualFoldASCII(a, b string) bool {
	return len(a) == len(b) && compareFold(a, b) == 0
}

func lowerASCII(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

// RRsetKey identifies an RRset within a zone or message.
type RRsetKey struct {
	Name  string
	Type  Type
	Class Class
}

// Key returns the RRset key for rr.
func (r RR) Key() RRsetKey {
	return RRsetKey{Name: CanonicalName(r.Name), Type: r.Type(), Class: r.Class}
}

// GroupRRsets partitions records into RRsets keyed by (owner, type,
// class), preserving first-seen order inside each set.
func GroupRRsets(rrs []RR) map[RRsetKey][]RR {
	m := make(map[RRsetKey][]RR)
	for _, rr := range rrs {
		k := rr.Key()
		m[k] = append(m[k], rr)
	}
	return m
}

// RRsetEqual reports whether two slices contain the same records
// regardless of order and TTL. It is the consistency comparison the
// scanner applies across nameservers.
func RRsetEqual(a, b []RR) bool {
	if len(a) != len(b) {
		return false
	}
	ak, err := rdataKeys(a)
	if err != nil {
		return false
	}
	bk, err := rdataKeys(b)
	if err != nil {
		return false
	}
	sort.Strings(ak)
	sort.Strings(bk)
	for i := range ak {
		if ak[i] != bk[i] {
			return false
		}
	}
	return true
}

func rdataKeys(rrs []RR) ([]string, error) {
	keys := make([]string, len(rrs))
	for i, rr := range rrs {
		w, err := CanonicalRDATA(rr)
		if err != nil {
			return nil, err
		}
		keys[i] = CanonicalName(rr.Name) + "|" + rr.Type().String() + "|" + string(w)
	}
	return keys, nil
}
