// Package dnssec implements DNSSEC cryptography: key generation for the
// recommended algorithms (RSA/SHA-256, ECDSA P-256/P-384, Ed25519),
// RRSIG creation and verification over canonical RRsets (RFC 4034 §3),
// DS digest computation (RFC 4509/6605), key tags, and chain validation
// from a trust anchor down to individual RRsets. It also implements the
// CDS/CDNSKEY content rules of RFC 7344 and the RFC 8078 §4 DELETE
// sentinel used to turn DNSSEC off.
package dnssec

import (
	"crypto"
	"crypto/ecdsa"
	"crypto/ed25519"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"crypto/sha512"
	"errors"
	"fmt"
	"hash"
	"io"
	"math/big"

	"dnssecboot/internal/dnswire"
)

// Errors returned by key handling and validation.
var (
	ErrUnsupportedAlgorithm = errors.New("dnssec: unsupported algorithm")
	ErrBadPublicKey         = errors.New("dnssec: malformed public key")
	ErrBadSignature         = errors.New("dnssec: signature verification failed")
	ErrSignatureExpired     = errors.New("dnssec: signature expired")
	ErrSignatureNotYetValid = errors.New("dnssec: signature not yet valid")
	ErrNoMatchingKey        = errors.New("dnssec: no DNSKEY matches RRSIG")
	ErrNoMatchingDS         = errors.New("dnssec: no DS matches any DNSKEY")
)

// Key is a DNSSEC signing key: the private key material plus the public
// DNSKEY record fields.
type Key struct {
	Flags     uint16
	Algorithm uint8
	priv      crypto.Signer
	public    []byte // DNSKEY public-key field, wire format
}

// GenerateKey creates a new signing key for the given algorithm. flags
// should be dnswire.DNSKEYFlagZone, optionally ORed with
// dnswire.DNSKEYFlagSEP for a key-signing key. rng may be nil to use
// crypto/rand.Reader.
func GenerateKey(algorithm uint8, flags uint16, rng io.Reader) (*Key, error) {
	if rng == nil {
		rng = rand.Reader
	}
	k := &Key{Flags: flags, Algorithm: algorithm}
	switch algorithm {
	case dnswire.AlgRSASHA256, dnswire.AlgRSASHA512:
		priv, err := rsa.GenerateKey(rng, 2048)
		if err != nil {
			return nil, err
		}
		k.priv = priv
		k.public = packRSAPublicKey(&priv.PublicKey)
	case dnswire.AlgECDSAP256SHA256:
		priv, err := ecdsa.GenerateKey(elliptic.P256(), rng)
		if err != nil {
			return nil, err
		}
		k.priv = priv
		k.public = packECDSAPublicKey(&priv.PublicKey, 32)
	case dnswire.AlgECDSAP384SHA384:
		priv, err := ecdsa.GenerateKey(elliptic.P384(), rng)
		if err != nil {
			return nil, err
		}
		k.priv = priv
		k.public = packECDSAPublicKey(&priv.PublicKey, 48)
	case dnswire.AlgEd25519:
		pub, priv, err := ed25519.GenerateKey(rng)
		if err != nil {
			return nil, err
		}
		k.priv = priv
		k.public = append([]byte(nil), pub...)
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnsupportedAlgorithm, algorithm)
	}
	return k, nil
}

// DNSKEY returns the public DNSKEY payload for this key.
func (k *Key) DNSKEY() *dnswire.DNSKEY {
	return &dnswire.DNSKEY{
		Flags:     k.Flags,
		Protocol:  3,
		Algorithm: k.Algorithm,
		PublicKey: append([]byte(nil), k.public...),
	}
}

// KeyTag returns the RFC 4034 Appendix-B key tag of the key.
func (k *Key) KeyTag() uint16 { return KeyTag(k.DNSKEY()) }

// IsSEP reports whether the key carries the SEP (KSK) flag.
func (k *Key) IsSEP() bool { return k.Flags&dnswire.DNSKEYFlagSEP != 0 }

// CanSign reports why SignRRset would refuse k: an algorithm this
// package does not implement, or no private key. Nil means it signs.
func (k *Key) CanSign() error {
	if _, _, err := algHash(k.Algorithm); err != nil {
		return err
	}
	if k.priv == nil {
		return errors.New("dnssec: key has no private part")
	}
	return nil
}

// KeyTag computes the RFC 4034 Appendix-B key tag over a DNSKEY RDATA.
func KeyTag(key *dnswire.DNSKEY) uint16 {
	rdata, err := dnswire.RDataWire(key)
	if err != nil {
		return 0
	}
	var acc uint32
	for i, b := range rdata {
		if i&1 == 0 {
			acc += uint32(b) << 8
		} else {
			acc += uint32(b)
		}
	}
	acc += acc >> 16 & 0xFFFF
	return uint16(acc & 0xFFFF)
}

func packRSAPublicKey(pub *rsa.PublicKey) []byte {
	// RFC 3110 §2: exponent length (1 or 3 octets), exponent, modulus.
	e := big.NewInt(int64(pub.E)).Bytes()
	var out []byte
	if len(e) <= 255 {
		out = append(out, byte(len(e)))
	} else {
		out = append(out, 0, byte(len(e)>>8), byte(len(e)))
	}
	out = append(out, e...)
	out = append(out, pub.N.Bytes()...)
	return out
}

func unpackRSAPublicKey(data []byte) (*rsa.PublicKey, error) {
	if len(data) < 3 {
		return nil, ErrBadPublicKey
	}
	elen := int(data[0])
	data = data[1:]
	if elen == 0 {
		if len(data) < 2 {
			return nil, ErrBadPublicKey
		}
		elen = int(data[0])<<8 | int(data[1])
		data = data[2:]
	}
	if elen == 0 || len(data) < elen+1 {
		return nil, ErrBadPublicKey
	}
	e := new(big.Int).SetBytes(data[:elen])
	if !e.IsInt64() || e.Int64() > int64(1)<<31 {
		return nil, ErrBadPublicKey
	}
	return &rsa.PublicKey{
		N: new(big.Int).SetBytes(data[elen:]),
		E: int(e.Int64()),
	}, nil
}

func packECDSAPublicKey(pub *ecdsa.PublicKey, size int) []byte {
	out := make([]byte, 2*size)
	pub.X.FillBytes(out[:size])
	pub.Y.FillBytes(out[size:])
	return out
}

func unpackECDSAPublicKey(data []byte, curve elliptic.Curve, size int) (*ecdsa.PublicKey, error) {
	if len(data) != 2*size {
		return nil, ErrBadPublicKey
	}
	x := new(big.Int).SetBytes(data[:size])
	y := new(big.Int).SetBytes(data[size:])
	if !curve.IsOnCurve(x, y) {
		return nil, ErrBadPublicKey
	}
	return &ecdsa.PublicKey{Curve: curve, X: x, Y: y}, nil
}

// algHash returns the hash constructor and crypto.Hash for an algorithm,
// or nil for algorithms that hash internally (Ed25519).
func algHash(algorithm uint8) (func() hash.Hash, crypto.Hash, error) {
	switch algorithm {
	case dnswire.AlgRSASHA256, dnswire.AlgECDSAP256SHA256:
		return sha256.New, crypto.SHA256, nil
	case dnswire.AlgECDSAP384SHA384:
		return sha512.New384, crypto.SHA384, nil
	case dnswire.AlgRSASHA512:
		return sha512.New, crypto.SHA512, nil
	case dnswire.AlgEd25519:
		return nil, 0, nil
	default:
		return nil, 0, fmt.Errorf("%w: %d", ErrUnsupportedAlgorithm, algorithm)
	}
}

func ecdsaSigSize(algorithm uint8) int {
	if algorithm == dnswire.AlgECDSAP384SHA384 {
		return 48
	}
	return 32
}
