package dnssec

import (
	"crypto"
	"crypto/ecdsa"
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"fmt"
	"slices"
	"time"

	"dnssecboot/internal/dnswire"
)

// SignOptions control RRSIG creation.
type SignOptions struct {
	// Inception and Expiration bound the signature validity window.
	Inception  time.Time
	Expiration time.Time
	// SignerName is the zone apex the key belongs to.
	SignerName string
}

// SignRRset signs one RRset (all records must share owner, class and
// type) and returns the RRSIG record. The RRset is sorted into
// canonical order in place.
func SignRRset(rrset []dnswire.RR, key *Key, opts SignOptions) (dnswire.RR, error) {
	if len(rrset) == 0 {
		return dnswire.RR{}, errors.New("dnssec: empty RRset")
	}
	owner := dnswire.CanonicalName(rrset[0].Name)
	typ := rrset[0].Type()
	for _, rr := range rrset[1:] {
		if dnswire.CanonicalName(rr.Name) != owner || rr.Type() != typ {
			return dnswire.RR{}, errors.New("dnssec: mixed RRset")
		}
	}
	labels := ownerSigLabels(owner)
	sig := &dnswire.RRSIG{
		TypeCovered: typ,
		Algorithm:   key.Algorithm,
		Labels:      labels,
		OrigTTL:     rrset[0].TTL,
		Expiration:  uint32(opts.Expiration.Unix()),
		Inception:   uint32(opts.Inception.Unix()),
		KeyTag:      key.KeyTag(),
		SignerName:  dnswire.CanonicalName(opts.SignerName),
	}
	data, err := signedData(sig, rrset)
	if err != nil {
		return dnswire.RR{}, err
	}
	raw, err := signBytes(key, data)
	if err != nil {
		return dnswire.RR{}, err
	}
	sig.Signature = raw
	return dnswire.RR{
		Name:  owner,
		Class: rrset[0].Class,
		TTL:   rrset[0].TTL,
		Data:  sig,
	}, nil
}

// ownerSigLabels computes the RRSIG Labels field: the label count of the
// owner, with a leading wildcard label excluded (RFC 4034 §3.1.3).
func ownerSigLabels(owner string) uint8 {
	labels := dnswire.SplitLabels(owner)
	n := len(labels)
	if n > 0 && labels[0] == "*" {
		n--
	}
	return uint8(n)
}

// signedData assembles RRSIG_RDATA(minus signature) | canonical RRset,
// the byte string that DNSSEC signatures cover (RFC 4034 §3.1.8.1), in
// one buffer. A set of one record needs no sorting, and so no copy.
func signedData(sig *dnswire.RRSIG, rrset []dnswire.RR) ([]byte, error) {
	sorted := rrset
	if len(rrset) > 1 {
		sorted = slices.Clone(rrset)
		if err := dnswire.SortCanonical(sorted); err != nil {
			return nil, err
		}
	}
	// The signature ends the RRSIG RDATA: the rest is what it covers.
	out, err := dnswire.AppendRDataWire(make([]byte, 0, signedDataCap), sig)
	if err != nil {
		return nil, err
	}
	out = out[:len(out)-len(sig.Signature)]
	for _, rr := range sorted {
		if out, err = dnswire.AppendCanonicalNameWire(out, signedOwnerName(dnswire.CanonicalName(rr.Name), sig.Labels)); err != nil {
			return nil, err
		}
		out = append(out,
			byte(rr.Type()>>8), byte(rr.Type()),
			byte(rr.Class>>8), byte(rr.Class),
			byte(sig.OrigTTL>>24), byte(sig.OrigTTL>>16), byte(sig.OrigTTL>>8), byte(sig.OrigTTL),
			0, 0) // RDATA length, filled in below
		lenAt := len(out) - 2
		if out, err = dnswire.AppendRDataWire(out, rr.Data); err != nil {
			return nil, err
		}
		rdlen := len(out) - lenAt - 2
		out[lenAt], out[lenAt+1] = byte(rdlen>>8), byte(rdlen)
	}
	return out, nil
}

// signedDataCap is signedData's first buffer size: the RRSIG fields
// and an RRset of two Ed25519 DNSKEY, CDNSKEY or CDS records take under
// 200 octets.
const signedDataCap = 512

// signedOwnerName reduces an owner name to the wildcard form when the
// RRSIG labels field indicates wildcard expansion (RFC 4035 §5.3.2).
func signedOwnerName(owner string, sigLabels uint8) string {
	if dnswire.CountLabels(owner) <= int(sigLabels) {
		return owner
	}
	labels := dnswire.SplitLabels(owner)
	keep := labels[len(labels)-int(sigLabels):]
	name := "*"
	for _, l := range keep {
		name += "." + l
	}
	return dnswire.CanonicalName(name)
}

func signBytes(key *Key, data []byte) ([]byte, error) {
	newHash, ch, err := algHash(key.Algorithm)
	if err != nil {
		return nil, err
	}
	switch priv := key.priv.(type) {
	case ed25519.PrivateKey:
		return ed25519.Sign(priv, data), nil
	case *ecdsa.PrivateKey:
		h := newHash()
		h.Write(data)
		r, s, err := ecdsa.Sign(rand.Reader, priv, h.Sum(nil))
		if err != nil {
			return nil, err
		}
		size := ecdsaSigSize(key.Algorithm)
		out := make([]byte, 2*size)
		r.FillBytes(out[:size])
		s.FillBytes(out[size:])
		return out, nil
	default:
		h := newHash()
		h.Write(data)
		return key.priv.Sign(rand.Reader, h.Sum(nil), ch)
	}
}

// ValidityWindow returns a SignOptions covering now-1h .. now+30d, the
// shape real signers produce.
func ValidityWindow(now time.Time, signerName string) SignOptions {
	return SignOptions{
		Inception:  now.Add(-1 * time.Hour),
		Expiration: now.Add(30 * 24 * time.Hour),
		SignerName: signerName,
	}
}

// ExpiredWindow returns a SignOptions whose signatures are already
// expired at now. Used to model decayed deployments (§4.4 of the paper
// observed such a zone).
func ExpiredWindow(now time.Time, signerName string) SignOptions {
	return SignOptions{
		Inception:  now.Add(-60 * 24 * time.Hour),
		Expiration: now.Add(-30 * 24 * time.Hour),
		SignerName: signerName,
	}
}

// String implements fmt.Stringer for diagnostics.
func (k *Key) String() string {
	kind := "ZSK"
	if k.IsSEP() {
		kind = "KSK"
	}
	return fmt.Sprintf("%s alg=%s tag=%d", kind, dnswire.AlgorithmName(k.Algorithm), k.KeyTag())
}

var _ = crypto.SHA256 // keep crypto import tied to signBytes' default path
