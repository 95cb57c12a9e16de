package dnswire

import (
	"encoding/base64"
	"encoding/hex"
	"fmt"
	"net/netip"
	"strconv"
	"strings"
)

// RData is the typed payload of a resource record. Implementations pack
// and unpack their wire representation and render presentation format.
type RData interface {
	// Type returns the RR type this payload belongs to.
	Type() Type
	// pack appends the wire-format RDATA to the builder. Names inside
	// RDATA are never compressed (safe for all types, required for
	// DNSSEC-era ones).
	pack(b *builder)
	// unpack decodes rdlen octets of RDATA from the parser. The parser
	// is positioned at the start of the RDATA within the full message so
	// compression pointers in legacy types resolve correctly.
	unpack(p *parser, rdlen int) error
	// String renders the RDATA portion in master-file presentation form.
	String() string
}

// newRData returns a zero value of the concrete RData for t, or a
// *Generic for unknown types (RFC 3597).
func newRData(t Type) RData {
	switch t {
	case TypeA:
		return new(A)
	case TypeAAAA:
		return new(AAAA)
	case TypeNS:
		return new(NS)
	case TypeCNAME:
		return new(CNAME)
	case TypePTR:
		return new(PTR)
	case TypeSOA:
		return new(SOA)
	case TypeMX:
		return new(MX)
	case TypeTXT:
		return new(TXT)
	case TypeSRV:
		return new(SRV)
	case TypeDS:
		return new(DS)
	case TypeCDS:
		return new(CDS)
	case TypeDNSKEY:
		return new(DNSKEY)
	case TypeCDNSKEY:
		return new(CDNSKEY)
	case TypeRRSIG:
		return new(RRSIG)
	case TypeNSEC:
		return new(NSEC)
	case TypeNSEC3:
		return new(NSEC3)
	case TypeNSEC3PARAM:
		return new(NSEC3PARAM)
	case TypeCSYNC:
		return new(CSYNC)
	case TypeDNAME:
		return new(DNAME)
	case TypeCAA:
		return new(CAA)
	case TypeTLSA:
		return new(TLSA)
	case TypeOPT:
		return new(OPT)
	default:
		return &Generic{T: t}
	}
}

// A is an IPv4 address record (RFC 1035 §3.4.1).
type A struct{ Addr netip.Addr }

// Type implements RData.
func (*A) Type() Type { return TypeA }

func (a *A) pack(b *builder) {
	v4 := a.Addr.As4()
	b.bytes(v4[:])
}

func (a *A) unpack(p *parser, rdlen int) error {
	raw, err := p.view(rdlen)
	if err != nil {
		return err
	}
	if len(raw) != 4 {
		return fmt.Errorf("dnswire: A rdata length %d", len(raw))
	}
	a.Addr = netip.AddrFrom4([4]byte(raw))
	return nil
}

func (a *A) String() string { return a.Addr.String() }

// AAAA is an IPv6 address record (RFC 3596).
type AAAA struct{ Addr netip.Addr }

// Type implements RData.
func (*AAAA) Type() Type { return TypeAAAA }

func (a *AAAA) pack(b *builder) {
	v6 := a.Addr.As16()
	b.bytes(v6[:])
}

func (a *AAAA) unpack(p *parser, rdlen int) error {
	raw, err := p.view(rdlen)
	if err != nil {
		return err
	}
	if len(raw) != 16 {
		return fmt.Errorf("dnswire: AAAA rdata length %d", len(raw))
	}
	a.Addr = netip.AddrFrom16([16]byte(raw))
	return nil
}

func (a *AAAA) String() string { return a.Addr.String() }

// singleName is the shared shape of NS, CNAME and PTR RDATA.
type singleName struct{ Target string }

func (s *singleName) pack(b *builder) { b.name(s.Target, false) }

func (s *singleName) unpack(p *parser, _ int) error {
	n, err := p.name()
	if err != nil {
		return err
	}
	s.Target = n
	return nil
}

func (s *singleName) String() string { return CanonicalName(s.Target) }

// NS is a nameserver record.
type NS struct{ singleName }

// Type implements RData.
func (*NS) Type() Type { return TypeNS }

// NewNS returns an NS record payload pointing at target.
func NewNS(target string) *NS { return &NS{singleName{CanonicalName(target)}} }

// CNAME is an alias record.
type CNAME struct{ singleName }

// Type implements RData.
func (*CNAME) Type() Type { return TypeCNAME }

// NewCNAME returns a CNAME payload pointing at target.
func NewCNAME(target string) *CNAME { return &CNAME{singleName{CanonicalName(target)}} }

// PTR is a pointer record.
type PTR struct{ singleName }

// Type implements RData.
func (*PTR) Type() Type { return TypePTR }

// SOA is a start-of-authority record (RFC 1035 §3.3.13).
type SOA struct {
	MName   string
	RName   string
	Serial  uint32
	Refresh uint32
	Retry   uint32
	Expire  uint32
	Minimum uint32
}

// Type implements RData.
func (*SOA) Type() Type { return TypeSOA }

func (s *SOA) pack(b *builder) {
	b.name(s.MName, false)
	b.name(s.RName, false)
	b.u32(s.Serial)
	b.u32(s.Refresh)
	b.u32(s.Retry)
	b.u32(s.Expire)
	b.u32(s.Minimum)
}

func (s *SOA) unpack(p *parser, _ int) error {
	var err error
	if s.MName, err = p.name(); err != nil {
		return err
	}
	if s.RName, err = p.name(); err != nil {
		return err
	}
	for _, dst := range []*uint32{&s.Serial, &s.Refresh, &s.Retry, &s.Expire, &s.Minimum} {
		if *dst, err = p.u32(); err != nil {
			return err
		}
	}
	return nil
}

func (s *SOA) String() string {
	return fmt.Sprintf("%s %s %d %d %d %d %d",
		CanonicalName(s.MName), CanonicalName(s.RName),
		s.Serial, s.Refresh, s.Retry, s.Expire, s.Minimum)
}

// MX is a mail-exchanger record.
type MX struct {
	Preference uint16
	Host       string
}

// Type implements RData.
func (*MX) Type() Type { return TypeMX }

func (m *MX) pack(b *builder) {
	b.u16(m.Preference)
	b.name(m.Host, false)
}

func (m *MX) unpack(p *parser, _ int) error {
	var err error
	if m.Preference, err = p.u16(); err != nil {
		return err
	}
	m.Host, err = p.name()
	return err
}

func (m *MX) String() string {
	return fmt.Sprintf("%d %s", m.Preference, CanonicalName(m.Host))
}

// TXT is a text record holding one or more character-strings.
type TXT struct{ Strings []string }

// Type implements RData.
func (*TXT) Type() Type { return TypeTXT }

func (t *TXT) pack(b *builder) {
	ss := t.Strings
	if len(ss) == 0 {
		ss = []string{""}
	}
	for _, s := range ss {
		if len(s) > 255 {
			b.err = fmt.Errorf("dnswire: TXT string exceeds 255 octets")
			return
		}
		b.u8(uint8(len(s)))
		b.str(s)
	}
}

func (t *TXT) unpack(p *parser, rdlen int) error {
	end := p.off + rdlen
	t.Strings = t.Strings[:0]
	for p.off < end {
		n, err := p.u8()
		if err != nil {
			return err
		}
		s, err := p.view(int(n))
		if err != nil {
			return err
		}
		t.Strings = append(t.Strings, string(s))
	}
	return nil
}

func (t *TXT) String() string {
	parts := make([]string, len(t.Strings))
	for i, s := range t.Strings {
		parts[i] = fmt.Sprintf("%q", s)
	}
	return strings.Join(parts, " ")
}

// SRV is a service-location record (RFC 2782).
type SRV struct {
	Priority uint16
	Weight   uint16
	Port     uint16
	Target   string
}

// Type implements RData.
func (*SRV) Type() Type { return TypeSRV }

func (s *SRV) pack(b *builder) {
	b.u16(s.Priority)
	b.u16(s.Weight)
	b.u16(s.Port)
	b.name(s.Target, false)
}

func (s *SRV) unpack(p *parser, _ int) error {
	var err error
	if s.Priority, err = p.u16(); err != nil {
		return err
	}
	if s.Weight, err = p.u16(); err != nil {
		return err
	}
	if s.Port, err = p.u16(); err != nil {
		return err
	}
	s.Target, err = p.name()
	return err
}

func (s *SRV) String() string {
	return fmt.Sprintf("%d %d %d %s", s.Priority, s.Weight, s.Port, CanonicalName(s.Target))
}

// DS is a delegation-signer record (RFC 4034 §5).
type DS struct {
	KeyTag     uint16
	Algorithm  uint8
	DigestType uint8
	Digest     []byte
}

// Type implements RData.
func (*DS) Type() Type { return TypeDS }

func (d *DS) pack(b *builder) {
	b.u16(d.KeyTag)
	b.u8(d.Algorithm)
	b.u8(d.DigestType)
	b.bytes(d.Digest)
}

func (d *DS) unpack(p *parser, rdlen int) error {
	var err error
	if d.KeyTag, err = p.u16(); err != nil {
		return err
	}
	if d.Algorithm, err = p.u8(); err != nil {
		return err
	}
	if d.DigestType, err = p.u8(); err != nil {
		return err
	}
	d.Digest, err = p.takeInto(d.Digest, rdlen-4)
	return err
}

func (d *DS) String() string { return string(d.appendText(nil)) }

func (d *DS) appendText(dst []byte) []byte {
	dst = appendUints(dst, uint64(d.KeyTag), uint64(d.Algorithm), uint64(d.DigestType))
	const upperHex = "0123456789ABCDEF"
	for _, c := range d.Digest {
		dst = append(dst, upperHex[c>>4], upperHex[c&0x0F])
	}
	return dst
}

// appendUints appends each value in decimal followed by a space.
func appendUints(dst []byte, vs ...uint64) []byte {
	for _, v := range vs {
		dst = strconv.AppendUint(dst, v, 10)
		dst = append(dst, ' ')
	}
	return dst
}

// IsDelete reports whether this record is the RFC 8078 §4 "delete DS"
// sentinel (algorithm 0). Only meaningful for CDS/CDNSKEY content.
func (d *DS) IsDelete() bool { return d.Algorithm == AlgDELETE }

// CDS is a child-published copy of a DS record (RFC 7344 §3.1).
type CDS struct{ DS }

// Type implements RData.
func (*CDS) Type() Type { return TypeCDS }

// DNSKEY is a DNSSEC public-key record (RFC 4034 §2).
type DNSKEY struct {
	Flags     uint16
	Protocol  uint8
	Algorithm uint8
	PublicKey []byte
}

// Type implements RData.
func (*DNSKEY) Type() Type { return TypeDNSKEY }

func (k *DNSKEY) pack(b *builder) {
	b.u16(k.Flags)
	b.u8(k.Protocol)
	b.u8(k.Algorithm)
	b.bytes(k.PublicKey)
}

func (k *DNSKEY) unpack(p *parser, rdlen int) error {
	var err error
	if k.Flags, err = p.u16(); err != nil {
		return err
	}
	if k.Protocol, err = p.u8(); err != nil {
		return err
	}
	if k.Algorithm, err = p.u8(); err != nil {
		return err
	}
	k.PublicKey, err = p.takeInto(k.PublicKey, rdlen-4)
	return err
}

func (k *DNSKEY) String() string { return string(k.appendText(nil)) }

func (k *DNSKEY) appendText(dst []byte) []byte {
	dst = appendUints(dst, uint64(k.Flags), uint64(k.Protocol), uint64(k.Algorithm))
	return base64.StdEncoding.AppendEncode(dst, k.PublicKey)
}

// IsZoneKey reports whether the ZONE bit is set; keys without it must
// not be used to verify zone data (RFC 4034 §2.1.1).
func (k *DNSKEY) IsZoneKey() bool { return k.Flags&DNSKEYFlagZone != 0 }

// IsDelete reports whether this record is the RFC 8078 §4 delete
// sentinel (algorithm 0). Only meaningful for CDNSKEY content.
func (k *DNSKEY) IsDelete() bool { return k.Algorithm == AlgDELETE }

// CDNSKEY is a child-published copy of a DNSKEY record (RFC 7344 §3.2).
type CDNSKEY struct{ DNSKEY }

// Type implements RData.
func (*CDNSKEY) Type() Type { return TypeCDNSKEY }

// RRSIG is a DNSSEC signature record (RFC 4034 §3).
type RRSIG struct {
	TypeCovered Type
	Algorithm   uint8
	Labels      uint8
	OrigTTL     uint32
	Expiration  uint32
	Inception   uint32
	KeyTag      uint16
	SignerName  string
	Signature   []byte
}

// Type implements RData.
func (*RRSIG) Type() Type { return TypeRRSIG }

func (r *RRSIG) pack(b *builder) {
	b.u16(uint16(r.TypeCovered))
	b.u8(r.Algorithm)
	b.u8(r.Labels)
	b.u32(r.OrigTTL)
	b.u32(r.Expiration)
	b.u32(r.Inception)
	b.u16(r.KeyTag)
	b.name(r.SignerName, false)
	b.bytes(r.Signature)
}

func (r *RRSIG) unpack(p *parser, rdlen int) error {
	end := p.off + rdlen
	var err error
	var tc uint16
	if tc, err = p.u16(); err != nil {
		return err
	}
	r.TypeCovered = Type(tc)
	if r.Algorithm, err = p.u8(); err != nil {
		return err
	}
	if r.Labels, err = p.u8(); err != nil {
		return err
	}
	if r.OrigTTL, err = p.u32(); err != nil {
		return err
	}
	if r.Expiration, err = p.u32(); err != nil {
		return err
	}
	if r.Inception, err = p.u32(); err != nil {
		return err
	}
	if r.KeyTag, err = p.u16(); err != nil {
		return err
	}
	if r.SignerName, err = p.name(); err != nil {
		return err
	}
	r.Signature, err = p.takeInto(r.Signature, end-p.off)
	return err
}

func (r *RRSIG) String() string { return string(r.appendText(nil)) }

func (r *RRSIG) appendText(dst []byte) []byte {
	dst = append(dst, r.TypeCovered.String()...)
	dst = append(dst, ' ')
	dst = appendUints(dst, uint64(r.Algorithm), uint64(r.Labels), uint64(r.OrigTTL),
		uint64(r.Expiration), uint64(r.Inception), uint64(r.KeyTag))
	dst = append(dst, CanonicalName(r.SignerName)...)
	dst = append(dst, ' ')
	return base64.StdEncoding.AppendEncode(dst, r.Signature)
}

// NSEC is an authenticated-denial record (RFC 4034 §4).
type NSEC struct {
	NextDomain string
	Types      []Type
}

// Type implements RData.
func (*NSEC) Type() Type { return TypeNSEC }

func (n *NSEC) pack(b *builder) {
	b.name(n.NextDomain, false)
	b.buf = packTypeBitmap(b.buf, n.Types)
}

func (n *NSEC) unpack(p *parser, rdlen int) error {
	end := p.off + rdlen
	var err error
	if n.NextDomain, err = p.name(); err != nil {
		return err
	}
	raw, err := p.view(end - p.off)
	if err != nil {
		return err
	}
	n.Types, err = unpackTypeBitmapInto(n.Types[:0], raw)
	return err
}

func (n *NSEC) String() string {
	parts := []string{CanonicalName(n.NextDomain)}
	for _, t := range n.Types {
		parts = append(parts, t.String())
	}
	return strings.Join(parts, " ")
}

// NSEC3 is a hashed authenticated-denial record (RFC 5155 §3).
type NSEC3 struct {
	HashAlg    uint8
	Flags      uint8
	Iterations uint16
	Salt       []byte
	NextHashed []byte
	Types      []Type
}

// Type implements RData.
func (*NSEC3) Type() Type { return TypeNSEC3 }

func (n *NSEC3) pack(b *builder) {
	b.u8(n.HashAlg)
	b.u8(n.Flags)
	b.u16(n.Iterations)
	b.u8(uint8(len(n.Salt)))
	b.bytes(n.Salt)
	b.u8(uint8(len(n.NextHashed)))
	b.bytes(n.NextHashed)
	b.buf = packTypeBitmap(b.buf, n.Types)
}

func (n *NSEC3) unpack(p *parser, rdlen int) error {
	end := p.off + rdlen
	var err error
	if n.HashAlg, err = p.u8(); err != nil {
		return err
	}
	if n.Flags, err = p.u8(); err != nil {
		return err
	}
	if n.Iterations, err = p.u16(); err != nil {
		return err
	}
	var sl uint8
	if sl, err = p.u8(); err != nil {
		return err
	}
	if n.Salt, err = p.takeInto(n.Salt, int(sl)); err != nil {
		return err
	}
	var hl uint8
	if hl, err = p.u8(); err != nil {
		return err
	}
	if n.NextHashed, err = p.takeInto(n.NextHashed, int(hl)); err != nil {
		return err
	}
	raw, err := p.view(end - p.off)
	if err != nil {
		return err
	}
	n.Types, err = unpackTypeBitmapInto(n.Types[:0], raw)
	return err
}

func (n *NSEC3) String() string {
	salt := "-"
	if len(n.Salt) > 0 {
		salt = strings.ToUpper(hex.EncodeToString(n.Salt))
	}
	parts := []string{
		fmt.Sprintf("%d %d %d %s %s", n.HashAlg, n.Flags, n.Iterations, salt,
			base32hexNoPad(n.NextHashed)),
	}
	for _, t := range n.Types {
		parts = append(parts, t.String())
	}
	return strings.Join(parts, " ")
}

// NSEC3PARAM advertises the NSEC3 parameters of a zone (RFC 5155 §4).
type NSEC3PARAM struct {
	HashAlg    uint8
	Flags      uint8
	Iterations uint16
	Salt       []byte
}

// Type implements RData.
func (*NSEC3PARAM) Type() Type { return TypeNSEC3PARAM }

func (n *NSEC3PARAM) pack(b *builder) {
	b.u8(n.HashAlg)
	b.u8(n.Flags)
	b.u16(n.Iterations)
	b.u8(uint8(len(n.Salt)))
	b.bytes(n.Salt)
}

func (n *NSEC3PARAM) unpack(p *parser, _ int) error {
	var err error
	if n.HashAlg, err = p.u8(); err != nil {
		return err
	}
	if n.Flags, err = p.u8(); err != nil {
		return err
	}
	if n.Iterations, err = p.u16(); err != nil {
		return err
	}
	var sl uint8
	if sl, err = p.u8(); err != nil {
		return err
	}
	n.Salt, err = p.takeInto(n.Salt, int(sl))
	return err
}

func (n *NSEC3PARAM) String() string {
	salt := "-"
	if len(n.Salt) > 0 {
		salt = strings.ToUpper(hex.EncodeToString(n.Salt))
	}
	return fmt.Sprintf("%d %d %d %s", n.HashAlg, n.Flags, n.Iterations, salt)
}

// CSYNC is a child-to-parent synchronisation record (RFC 7477).
type CSYNC struct {
	SOASerial uint32
	Flags     uint16
	Types     []Type
}

// Type implements RData.
func (*CSYNC) Type() Type { return TypeCSYNC }

func (c *CSYNC) pack(b *builder) {
	b.u32(c.SOASerial)
	b.u16(c.Flags)
	b.buf = packTypeBitmap(b.buf, c.Types)
}

func (c *CSYNC) unpack(p *parser, rdlen int) error {
	end := p.off + rdlen
	var err error
	if c.SOASerial, err = p.u32(); err != nil {
		return err
	}
	if c.Flags, err = p.u16(); err != nil {
		return err
	}
	raw, err := p.view(end - p.off)
	if err != nil {
		return err
	}
	c.Types, err = unpackTypeBitmapInto(c.Types[:0], raw)
	return err
}

func (c *CSYNC) String() string {
	parts := []string{fmt.Sprintf("%d %d", c.SOASerial, c.Flags)}
	for _, t := range c.Types {
		parts = append(parts, t.String())
	}
	return strings.Join(parts, " ")
}

// Generic holds the RDATA of a type this package has no structured
// decoder for (RFC 3597 unknown-type handling).
type Generic struct {
	T      Type
	Octets []byte
}

// Type implements RData.
func (g *Generic) Type() Type { return g.T }

func (g *Generic) pack(b *builder) { b.bytes(g.Octets) }

func (g *Generic) unpack(p *parser, rdlen int) error {
	var err error
	g.Octets, err = p.takeInto(g.Octets, rdlen)
	return err
}

func (g *Generic) String() string {
	return fmt.Sprintf("\\# %d %s", len(g.Octets), strings.ToUpper(hex.EncodeToString(g.Octets)))
}

const base32HexAlphabet = "0123456789ABCDEFGHIJKLMNOPQRSTUV"

// base32hexNoPad encodes b in the base32hex alphabet without padding,
// as used by NSEC3 owner names (RFC 5155 §1.3).
func base32hexNoPad(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	var sb strings.Builder
	var acc uint
	var bits uint
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

// DNAME redirects an entire subtree (RFC 6672); registries use it for
// TLD aliasing.
type DNAME struct{ singleName }

// Type implements RData.
func (*DNAME) Type() Type { return TypeDNAME }

// CAA restricts which certificate authorities may issue for a domain
// (RFC 8659); CT-log-derived domain lists (§3 source v) exist because
// of the certificate ecosystem CAA is part of.
type CAA struct {
	Flags uint8
	Tag   string
	Value string
}

// Type implements RData.
func (*CAA) Type() Type { return TypeCAA }

func (c *CAA) pack(b *builder) {
	b.u8(c.Flags)
	if len(c.Tag) == 0 || len(c.Tag) > 255 {
		b.err = fmt.Errorf("dnswire: CAA tag length %d", len(c.Tag))
		return
	}
	b.u8(uint8(len(c.Tag)))
	b.str(c.Tag)
	b.str(c.Value)
}

func (c *CAA) unpack(p *parser, rdlen int) error {
	end := p.off + rdlen
	var err error
	if c.Flags, err = p.u8(); err != nil {
		return err
	}
	tl, err := p.u8()
	if err != nil {
		return err
	}
	tag, err := p.view(int(tl))
	if err != nil {
		return err
	}
	c.Tag = string(tag)
	val, err := p.view(end - p.off)
	if err != nil {
		return err
	}
	c.Value = string(val)
	return nil
}

func (c *CAA) String() string {
	return fmt.Sprintf("%d %s %q", c.Flags, c.Tag, c.Value)
}

// TLSA binds TLS certificates to names via DNSSEC (DANE, RFC 6698) —
// one of the main motivations for completing DNSSEC chains that the
// bootstrapping work serves.
type TLSA struct {
	Usage        uint8
	Selector     uint8
	MatchingType uint8
	CertData     []byte
}

// Type implements RData.
func (*TLSA) Type() Type { return TypeTLSA }

func (t *TLSA) pack(b *builder) {
	b.u8(t.Usage)
	b.u8(t.Selector)
	b.u8(t.MatchingType)
	b.bytes(t.CertData)
}

func (t *TLSA) unpack(p *parser, rdlen int) error {
	var err error
	if t.Usage, err = p.u8(); err != nil {
		return err
	}
	if t.Selector, err = p.u8(); err != nil {
		return err
	}
	if t.MatchingType, err = p.u8(); err != nil {
		return err
	}
	t.CertData, err = p.takeInto(t.CertData, rdlen-3)
	return err
}

func (t *TLSA) String() string {
	return fmt.Sprintf("%d %d %d %s", t.Usage, t.Selector, t.MatchingType,
		strings.ToUpper(hex.EncodeToString(t.CertData)))
}
