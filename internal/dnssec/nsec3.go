package dnssec

import (
	"bytes"
	"crypto/sha1"
	"strings"

	"dnssecboot/internal/dnswire"
)

// NSEC3 support (RFC 5155): the hashed-denial alternative to NSEC.
// Owner labels are base32hex, which the RFC chose because it keeps the
// byte-wise order of the hashes; interval checks decode the owner label
// and compare raw hashes.

// NSEC3HashAlgSHA1 is the only defined NSEC3 hash algorithm.
const NSEC3HashAlgSHA1 uint8 = 1

// NSEC3Hash computes the RFC 5155 §5 hash of a domain name:
// IH(0) = H(owner-wire), IH(k) = H(IH(k-1) || salt), iterated.
func NSEC3Hash(name string, iterations uint16, salt []byte) ([]byte, error) {
	var buf [256]byte
	wire, err := dnswire.AppendCanonicalNameWire(buf[:0], name)
	if err != nil {
		return nil, err
	}
	h := sha1.Sum(append(wire, salt...))
	for i := 0; i < int(iterations); i++ {
		h = sha1.Sum(append(h[:], salt...))
	}
	return h[:], nil
}

// NSEC3HashLabel returns the base32hex form of a name's NSEC3 hash,
// i.e. the first label of its NSEC3 record's owner.
func NSEC3HashLabel(name string, iterations uint16, salt []byte) (string, error) {
	h, err := NSEC3Hash(name, iterations, salt)
	if err != nil {
		return "", err
	}
	return base32HexEncode(h), nil
}

// NSEC3Owner returns the full owner name of the NSEC3 record for name
// in the given zone.
func NSEC3Owner(name, zoneOrigin string, iterations uint16, salt []byte) (string, error) {
	h, err := NSEC3Hash(name, iterations, salt)
	if err != nil {
		return "", err
	}
	return NSEC3HashOwner(h, zoneOrigin), nil
}

// NSEC3HashOwner returns the owner name of the NSEC3 record for a name
// whose hash is hash, in the zone at zoneOrigin.
func NSEC3HashOwner(hash []byte, zoneOrigin string) string {
	return dnswire.Join(base32HexEncode(hash), zoneOrigin)
}

const base32HexAlphabet = "0123456789abcdefghijklmnopqrstuv"

func base32HexEncode(b []byte) string {
	var sb strings.Builder
	sb.Grow((len(b)*8 + 4) / 5)
	var acc, bits uint
	for _, c := range b {
		acc = acc<<8 | uint(c)
		bits += 8
		for bits >= 5 {
			bits -= 5
			sb.WriteByte(base32HexAlphabet[acc>>bits&0x1F])
		}
	}
	if bits > 0 {
		sb.WriteByte(base32HexAlphabet[acc<<(5-bits)&0x1F])
	}
	return sb.String()
}

// nsec3Params extracts (iterations, salt) from an NSEC3 RR.
func nsec3Params(rr dnswire.RR) (*dnswire.NSEC3, bool) {
	n, ok := rr.Data.(*dnswire.NSEC3)
	return n, ok
}

// ownerHashLabel extracts the base32hex hash label from an NSEC3
// record's owner name.
func ownerHashLabel(rr dnswire.RR) string {
	labels := dnswire.SplitLabels(dnswire.CanonicalName(rr.Name))
	if len(labels) == 0 {
		return ""
	}
	return labels[0]
}

// NSEC3Matches reports whether rr is the NSEC3 record of name (its
// hash equals the owner label).
func NSEC3Matches(rr dnswire.RR, name string) bool {
	n, ok := nsec3Params(rr)
	if !ok || n.HashAlg != NSEC3HashAlgSHA1 {
		return false
	}
	label, err := NSEC3HashLabel(name, n.Iterations, n.Salt)
	if err != nil {
		return false
	}
	return label == ownerHashLabel(rr)
}

// NSEC3Covers reports whether rr's hash interval covers name's hash
// (proving no record with that hash exists), handling the last-record
// wraparound.
func NSEC3Covers(rr dnswire.RR, name string) bool {
	n, ok := nsec3Params(rr)
	if !ok || n.HashAlg != NSEC3HashAlgSHA1 {
		return false
	}
	h, err := NSEC3Hash(name, n.Iterations, n.Salt)
	return err == nil && NSEC3CoversHash(rr, h)
}

// NSEC3CoversHash is NSEC3Covers for a name already hashed with rr's
// parameters: it compares hash with the hash the owner label encodes
// and NextHashed, without hashing or encoding again.
func NSEC3CoversHash(rr dnswire.RR, hash []byte) bool {
	n, ok := nsec3Params(rr)
	if !ok || n.HashAlg != NSEC3HashAlgSHA1 {
		return false
	}
	// Decode the owner label, either case, dropping the pad bits.
	label, _, _ := strings.Cut(rr.Name, ".")
	var buf [64]byte
	owner, acc, bits := buf[:0], uint(0), uint(0)
	for _, c := range []byte(strings.ToLower(label)) {
		v := strings.IndexByte(base32HexAlphabet, c)
		if v < 0 {
			return false
		}
		if acc, bits = acc<<5|uint(v), bits+5; bits >= 8 {
			bits -= 8
			owner = append(owner, byte(acc>>bits))
		}
	}
	next := n.NextHashed
	if bytes.Equal(hash, owner) || bytes.Equal(hash, next) {
		return false
	}
	if bytes.Compare(owner, next) < 0 {
		return bytes.Compare(owner, hash) < 0 && bytes.Compare(hash, next) < 0
	}
	return bytes.Compare(hash, owner) > 0 || bytes.Compare(hash, next) < 0
}

// NSEC3ProvesNoData reports whether rr matches name and omits typ from
// its bitmap.
func NSEC3ProvesNoData(rr dnswire.RR, name string, typ dnswire.Type) bool {
	if !NSEC3Matches(rr, name) {
		return false
	}
	n, _ := nsec3Params(rr)
	for _, t := range n.Types {
		if t == typ {
			return false
		}
	}
	return true
}

// CheckDenialNSEC3 inspects a negative response's authority section
// for an NSEC3 proof of (name, typ): either a NODATA match or an
// NXDOMAIN shape (closest-encloser match plus next-closer cover,
// RFC 5155 §8.4/RFC 7129).
//
//lint:allow unused test oracle: server_test checks dnsd's NSEC3 denials with it
func CheckDenialNSEC3(authority []dnswire.RR, name string, typ dnswire.Type) bool {
	name = dnswire.CanonicalName(name)
	var nsec3s []dnswire.RR
	for _, rr := range authority {
		if rr.Type() == dnswire.TypeNSEC3 {
			nsec3s = append(nsec3s, rr)
		}
	}
	if len(nsec3s) == 0 {
		return false
	}
	// NODATA proof.
	for _, rr := range nsec3s {
		if NSEC3ProvesNoData(rr, name, typ) {
			return true
		}
	}
	// NXDOMAIN proof: for some ancestor chain, the closest encloser is
	// matched and the next-closer name is covered.
	next := name
	for anc := dnswire.Parent(name); anc != "."; anc = dnswire.Parent(anc) {
		var matched, covered bool
		for _, rr := range nsec3s {
			if NSEC3Matches(rr, anc) {
				matched = true
			}
			if NSEC3Covers(rr, next) {
				covered = true
			}
		}
		if matched && covered {
			return true
		}
		next = anc
	}
	return false
}
