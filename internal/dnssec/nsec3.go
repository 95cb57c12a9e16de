package dnssec

import (
	"crypto/sha1"
	"strings"

	"dnssecboot/internal/dnswire"
)

// NSEC3 support (RFC 5155): the hashed-denial alternative to NSEC.
// Hash comparisons work on the base32hex owner labels directly —
// base32hex was chosen by the RFC precisely because it preserves the
// byte-wise ordering of the underlying hashes.

// NSEC3HashAlgSHA1 is the only defined NSEC3 hash algorithm.
const NSEC3HashAlgSHA1 uint8 = 1

// NSEC3Hash computes the RFC 5155 §5 hash of a domain name:
// IH(0) = H(owner-wire), IH(k) = H(IH(k-1) || salt), iterated.
func NSEC3Hash(name string, iterations uint16, salt []byte) ([]byte, error) {
	wire, err := dnswire.CanonicalNameWire(name)
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
	label, err := NSEC3HashLabel(name, iterations, salt)
	if err != nil {
		return "", err
	}
	return dnswire.Join(label, zoneOrigin), nil
}

const base32HexAlphabet = "0123456789abcdefghijklmnopqrstuv"

func base32HexEncode(b []byte) string {
	var sb strings.Builder
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
	label, err := NSEC3HashLabel(name, n.Iterations, n.Salt)
	if err != nil {
		return false
	}
	owner := ownerHashLabel(rr)
	next := base32HexEncode(n.NextHashed)
	if label == owner || label == next {
		return false
	}
	if owner < next {
		return owner < label && label < next
	}
	return label > owner || label < next
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
