package dnswire

import (
	"errors"
	"strings"
)

// Domain-name handling. Names are carried through the library in
// presentation form: lowercase, fully qualified, with a trailing dot
// (the root is "."). CanonicalName normalises arbitrary input into that
// form. Wire encoding and decoding live in packName / appendUnpackedName.

// Errors returned by name handling.
var (
	ErrNameTooLong  = errors.New("dnswire: name exceeds 255 octets")
	ErrLabelTooLong = errors.New("dnswire: label exceeds 63 octets")
	ErrEmptyLabel   = errors.New("dnswire: empty label")
	ErrBadPointer   = errors.New("dnswire: bad compression pointer")
	// ErrDotInLabel rejects a wire label holding a "." octet: names are
	// carried as dot-separated strings, in which such a label would
	// read as two.
	ErrDotInLabel = errors.New("dnswire: label contains a dot")
)

const (
	maxNameWireLen = 255
	maxLabelLen    = 63
)

// CanonicalName lowercases s and ensures it is fully qualified. The
// empty string and "." both normalise to the root ".". A name already in
// that form and pure ASCII — every name the codec decodes — is returned
// after one pass over its bytes.
func CanonicalName(s string) string {
	if s == "" || s == "." {
		return "."
	}
	if isCanonicalASCII(s) {
		return s
	}
	s = strings.ToLower(s)
	if !strings.HasSuffix(s, ".") {
		s += "."
	}
	return s
}

// isCanonicalASCII reports whether s is ASCII without upper-case
// letters and ends in a dot. A name of eight bytes or more is read a
// word at a time, the last word overlapping the one before it.
func isCanonicalASCII(s string) bool {
	if len(s) < 8 {
		for i := 0; i < len(s); i++ {
			if c := s[i]; c >= 0x80 || 'A' <= c && c <= 'Z' {
				return false
			}
		}
		return s[len(s)-1] == '.'
	}
	for i := 0; ; i += 8 {
		if i > len(s)-8 {
			i = len(s) - 8
		}
		if !canonicalWord(s[i : i+8]) {
			return false
		}
		if i == len(s)-8 {
			return s[len(s)-1] == '.'
		}
	}
}

// canonicalWord reports whether the eight bytes of b are ASCII and not
// upper-case letters. A byte c < 0x80 plus 0x3f sets its top bit when
// c ≥ 'A', plus 0x25 when c > 'Z', and neither sum carries into the
// next byte.
func canonicalWord(b string) bool {
	const ones, tops = 0x0101010101010101, 0x8080808080808080
	w := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
	return w&tops == 0 && (w+0x3f*ones)&^(w+0x25*ones)&tops == 0
}

// SplitLabels splits a presentation-form name into its labels, not
// including the root. SplitLabels(".") returns nil.
func SplitLabels(name string) []string {
	name = strings.TrimSuffix(name, ".")
	if name == "" {
		return nil
	}
	return strings.Split(name, ".")
}

// CountLabels returns the number of labels in name, excluding the root.
func CountLabels(name string) int {
	name = strings.TrimSuffix(name, ".")
	if name == "" {
		return 0
	}
	return strings.Count(name, ".") + 1
}

// Parent returns the name with its leftmost label removed; the parent of
// the root is the root.
func Parent(name string) string { return CanonicalParent(CanonicalName(name)) }

// CanonicalParent is Parent for a name already in CanonicalName's form,
// which it does not check again.
func CanonicalParent(name string) string {
	i := strings.IndexByte(name, '.')
	if i < 0 || i == len(name)-1 {
		return "."
	}
	return name[i+1:]
}

// IsSubdomain reports whether child is equal to or underneath parent.
// Both arguments are normalised before comparison.
func IsSubdomain(child, parent string) bool {
	return CanonicalSubdomain(CanonicalName(child), CanonicalName(parent))
}

// CanonicalSubdomain is IsSubdomain for names already in CanonicalName's
// form, which it does not check again.
func CanonicalSubdomain(child, parent string) bool {
	if parent == "." || child == parent {
		return true
	}
	n := len(child) - len(parent) // compared in place: no "."+parent
	return n > 0 && child[n-1] == '.' && child[n:] == parent
}

// Join prepends labels to a name: Join("_dsboot", "example.com.")
// yields "_dsboot.example.com.".
func Join(prefix, name string) string {
	name = CanonicalName(name)
	if name == "." {
		return CanonicalName(prefix)
	}
	return CanonicalName(prefix + "." + name)
}

// NameWireLength returns the encoded (uncompressed) length of name in
// octets, and whether the name is valid. It walks the labels in place
// (no splitting): this runs once per packed name, so it must not
// allocate.
func NameWireLength(name string) (int, error) {
	return canonicalWireLength(CanonicalName(name))
}

// canonicalWireLength is NameWireLength for a name already in
// CanonicalName's form.
func canonicalWireLength(name string) (int, error) {
	if name == "." {
		return 1, nil
	}
	n := 1 // terminal root byte
	labelLen := 0
	for i := 0; i < len(name); i++ {
		if name[i] != '.' {
			labelLen++
			continue
		}
		if labelLen == 0 {
			return 0, ErrEmptyLabel
		}
		if labelLen > maxLabelLen {
			return 0, ErrLabelTooLong
		}
		n += 1 + labelLen
		labelLen = 0
	}
	// CanonicalName guarantees a trailing dot, so the last label was
	// flushed by the loop.
	if n > maxNameWireLen {
		return 0, ErrNameTooLong
	}
	return n, nil
}

// packName appends the wire encoding of name to buf. If t is non-nil,
// compression pointers are emitted for suffixes already present in the
// message, and new suffixes (at offsets representable in 14 bits) are
// registered. Names are packed in their canonical (lowercase) form.
func packName(buf []byte, name string, t *compTable) ([]byte, error) {
	return packNameOffset(buf, 0, name, t)
}

// packNameOffset is packName for a message that starts at buf[base]:
// compression offsets are registered and emitted relative to base, so a
// message can be appended to a buffer that already holds other data.
//
// Labels are checked as they are written, and the length once they all
// are: a suffix found in the table was checked when it was written, and
// a canonical name of valid labels is len(name)+1 octets on the wire.
// The errors are canonicalWireLength's, in its order. On error the
// table may hold suffixes of the name, but the message fails with it.
func packNameOffset(buf []byte, base int, name string, t *compTable) ([]byte, error) {
	name = CanonicalName(name)
	wireLen := len(name) + 1
	for name != "." {
		if t != nil {
			if off, ok := t.find(name); ok {
				if wireLen > maxNameWireLen {
					return nil, ErrNameTooLong
				}
				return append(buf, byte(0xC0|off>>8), byte(off)), nil
			}
			if len(buf)-base < 0x3FFF {
				t.add(name, len(buf)-base)
			}
		}
		i := strings.IndexByte(name, '.') // CanonicalName leaves a trailing dot
		switch {
		case i == 0:
			return nil, ErrEmptyLabel
		case i > maxLabelLen:
			return nil, ErrLabelTooLong
		}
		buf = append(buf, byte(i))
		buf = append(buf, name[:i]...)
		if name = name[i+1:]; name == "" {
			name = "."
		}
	}
	if wireLen > maxNameWireLen {
		return nil, ErrNameTooLong
	}
	return append(buf, 0), nil
}

// compIndexAt is the table size from which compTable also keeps a map.
// The largest table a message of the scan workloads needs holds 14
// suffixes (99 % hold at most 7), the serving workload's 4
// (EXPERIMENTS.md E-alloc), so every message they pack is searched
// linearly; past 16 suffixes of equal length a map lookup is cheaper.
const compIndexAt = 16

// compTable is a message's name-compression table: every name suffix
// written so far and its offset from the message start. It holds its
// first compIndexAt suffixes in a slice searched linearly, so a message
// of a few names neither hashes them nor clears a map; a message of
// dozens of names moves them into index, so packing one of thousands
// stays linear in its names.
type compTable struct {
	entries []compEntry
	index   map[string]int // every suffix, once entries has filled
}

type compEntry struct {
	suffix string
	off    int
}

// reset empties t for the next message. A map left from a large message
// is cleared only when the next large message fills entries again.
func (t *compTable) reset() { t.entries = t.entries[:0] }

func (t *compTable) find(suffix string) (int, bool) {
	if len(t.entries) == compIndexAt {
		off, ok := t.index[suffix]
		return off, ok
	}
	for _, e := range t.entries {
		if e.suffix == suffix {
			return e.off, true
		}
	}
	return 0, false
}

func (t *compTable) add(suffix string, off int) {
	if len(t.entries) == compIndexAt {
		t.index[suffix] = off
		return
	}
	t.entries = append(t.entries, compEntry{suffix, off})
	if len(t.entries) < compIndexAt {
		return
	}
	if t.index == nil {
		t.index = make(map[string]int, 4*compIndexAt)
	}
	clear(t.index)
	for _, e := range t.entries {
		t.index[e.suffix] = e.off
	}
}

var errReservedLabel = errors.New("dnswire: reserved label type")

// appendUnpackedName decodes a (possibly compressed) name from msg
// starting at off, appending its canonical presentation bytes to dst
// (empty output means the root "."). It returns dst and the offset of
// the first byte after the name in the original (non-pointer) stream.
// Hot-path callers pass a reused scratch buffer and intern the result.
func appendUnpackedName(dst []byte, msg []byte, off int) ([]byte, int, error) {
	start := len(dst)
	ptrBudget := 32 // defends against pointer loops
	end := -1       // offset after the name in the outer stream
	for {
		if off >= len(msg) {
			return dst, 0, errTruncated
		}
		c := int(msg[off])
		switch {
		case c == 0:
			if end < 0 {
				end = off + 1
			}
			return dst, end, nil
		case c&0xC0 == 0xC0:
			if off+1 >= len(msg) {
				return dst, 0, errTruncated
			}
			ptr := (c&0x3F)<<8 | int(msg[off+1])
			if end < 0 {
				end = off + 2
			}
			if ptr >= off {
				// Pointers must point strictly backwards.
				return dst, 0, ErrBadPointer
			}
			ptrBudget--
			if ptrBudget == 0 {
				return dst, 0, ErrBadPointer
			}
			off = ptr
		case c&0xC0 != 0:
			return dst, 0, errReservedLabel
		default:
			if off+1+c > len(msg) {
				return dst, 0, errTruncated
			}
			if len(dst)-start+c+1 > maxNameWireLen*4 {
				return dst, 0, ErrNameTooLong
			}
			for _, ch := range msg[off+1 : off+1+c] {
				if ch >= 'A' && ch <= 'Z' {
					ch += 'a' - 'A'
				} else if ch == '.' {
					return dst, 0, ErrDotInLabel
				}
				dst = append(dst, ch)
			}
			dst = append(dst, '.')
			off += 1 + c
		}
	}
}

var errTruncated = errors.New("dnswire: message truncated")
