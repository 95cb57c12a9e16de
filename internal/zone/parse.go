package zone

import (
	"encoding/base64"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"strconv"
	"strings"

	"dnssecboot/internal/dnswire"
)

// MaxLogicalLineBytes bounds one logical line: a physical line, or the
// join of a parenthesised multi-line record. The longest legitimate
// records (DNSKEY public keys, fat TXT sets) stay well under 100 KiB;
// one mebibyte leaves an order of magnitude of headroom while keeping a
// runaway input (no newlines, unterminated parentheses) from buffering
// without bound. Input exceeding it fails with a positional error.
const MaxLogicalLineBytes = 1 << 20

// Parse reads an RFC 1035 master file into a Zone. origin is used
// until a $ORIGIN directive overrides it; it may be "" if the file sets
// $ORIGIN itself before any record, or else the first record's owner
// becomes it. The first problem fails the parse with its line.
func Parse(r io.Reader, origin string) (*Zone, error) {
	rd := NewLineReader(r, origin, MaxLogicalLineBytes)
	var z *Zone
	var recs []dnswire.RR
	for {
		l, err := rd.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		rr, err := l.Record()
		if err != nil {
			return nil, err
		}
		if z == nil {
			if l.Origin == "." && rr.Name != "." {
				// The first record defines the origin when none was given.
				rd.origin = rr.Name
			}
			z = New(rd.origin)
		}
		if !dnswire.IsSubdomain(rr.Name, z.Origin) {
			return nil, l.errf("%s is out of zone %s", rr.Name, z.Origin)
		}
		recs = append(recs, rr)
	}
	if z == nil {
		return nil, fmt.Errorf("zone: empty master file")
	}
	if err := z.AddRecords(recs); err != nil {
		return nil, err
	}
	return z, nil
}

// ParseRR parses a single master-file record line with absolute names
// (the format RR.String produces), used when re-importing exported
// observations.
func ParseRR(line string) (dnswire.RR, error) {
	return ParseRecord(line, ".", 3600)
}

// ParseRecord parses one logical record line in isolation — its
// comments stripped and parentheses joined, as a LineReader returns it:
// relative names resolve against origin and a missing TTL field
// defaults to ttl. The record may name any owner, in or out of any
// zone; a blank owner is an error, since no owner came before.
func ParseRecord(line, origin string, ttl uint32) (dnswire.RR, error) {
	l := Line{Num: 1, Text: line, Origin: dnswire.CanonicalName(origin), TTL: ttl}
	return l.Record()
}

func (l *Line) errf(format string, args ...any) error {
	return &LineError{l.Num, fmt.Sprintf(format, args...)}
}

// Record parses l into a resource record. An error is a *LineError
// naming l.Num.
func (l *Line) Record() (dnswire.RR, error) {
	var buf [16]string
	tokens := appendFields(buf[:0], l.Text)
	owner := l.Owner
	if l.Text != "" && (l.Text[0] == ' ' || l.Text[0] == '\t') {
		if owner == "" {
			return dnswire.RR{}, l.errf("record with blank owner before any owner")
		}
	} else if len(tokens) > 0 {
		owner = l.name(tokens[0])
		tokens = tokens[1:]
	}

	// Optional TTL and class in either order.
	ttl := l.TTL
	class := dnswire.ClassIN
	for len(tokens) > 0 {
		tok := strings.ToUpper(tokens[0])
		if tok[0] >= '0' && tok[0] <= '9' { // a failed ParseUint allocates its error
			if v, err := strconv.ParseUint(tok, 10, 32); err == nil {
				ttl = uint32(v)
				tokens = tokens[1:]
				continue
			}
		}
		if tok == "IN" || tok == "CH" {
			if tok == "CH" {
				class = dnswire.ClassCH
			}
			tokens = tokens[1:]
			continue
		}
		break
	}
	if len(tokens) == 0 {
		return dnswire.RR{}, l.errf("missing record type")
	}
	typ, err := dnswire.TypeFromString(strings.ToUpper(tokens[0]))
	if err != nil {
		return dnswire.RR{}, l.errf("%v", err)
	}
	rdata, err := l.parseRData(typ, tokens[1:])
	if err != nil {
		return dnswire.RR{}, err
	}
	// The presentation syntax takes any label string; a name the wire
	// cannot carry fails here, not when a server packs it.
	if _, err := dnswire.NameWireLength(owner); err != nil {
		return dnswire.RR{}, l.errf("owner: %v", err)
	}
	return dnswire.RR{Name: owner, Class: class, TTL: ttl, Data: rdata}, nil
}

// appendFields appends the tokens of a logical line to dst, a quoted
// string as one token (without its quotes).
func appendFields(dst []string, line string) []string {
	for i := 0; ; {
		tok, next := nextField(line, i)
		if next < 0 {
			return dst
		}
		dst = append(dst, tok)
		i = next
	}
}

// nextField returns the token of line at or after i and the index past
// it, or next < 0 when none is left. A quoted token comes back with its
// escapes resolved, marked "was quoted" by a leading \x00.
func nextField(line string, i int) (tok string, next int) {
	for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
		i++
	}
	if i >= len(line) {
		return "", -1
	}
	if line[i] == '"' {
		j := i + 1
		var sb strings.Builder
		sb.WriteByte(0)
		for j < len(line) && line[j] != '"' {
			if line[j] == '\\' && j+1 < len(line) {
				j++
			}
			sb.WriteByte(line[j])
			j++
		}
		return sb.String(), j + 1
	}
	j := i
	for j < len(line) && line[j] != ' ' && line[j] != '\t' {
		j++
	}
	return line[i:j], j
}

// name resolves a possibly-relative name against the line's origin.
func (l *Line) name(tok string) string { return absName(tok, l.Origin) }

// absName resolves a possibly-relative name against origin.
func absName(tok, origin string) string {
	tok = strings.TrimPrefix(tok, "\x00")
	if tok == "@" {
		return origin
	}
	if strings.HasSuffix(tok, ".") || origin == "." {
		return dnswire.CanonicalName(tok)
	}
	return dnswire.CanonicalName(tok + "." + origin)
}

func unq(tok string) string { return strings.TrimPrefix(tok, "\x00") }

func (l *Line) parseRData(typ dnswire.Type, tokens []string) (dnswire.RData, error) {
	// Generic RFC 3597 form works for any type: "\# <len> <hex>".
	if len(tokens) >= 2 && unq(tokens[0]) == `\#` {
		n, err := strconv.Atoi(tokens[1])
		if err != nil {
			return nil, l.errf("\\# length: %v", err)
		}
		raw, err := hex.DecodeString(strings.Join(tokens[2:], ""))
		if err != nil {
			return nil, l.errf("\\# hex: %v", err)
		}
		if len(raw) != n {
			return nil, l.errf("\\# length %d != %d data octets", n, len(raw))
		}
		return &dnswire.Generic{T: typ, Octets: raw}, nil
	}

	need := func(n int) error {
		if len(tokens) < n {
			return l.errf("%s wants at least %d fields, got %d", typ, n, len(tokens))
		}
		return nil
	}
	num := func(i int, bits int) (uint64, error) {
		v, err := strconv.ParseUint(unq(tokens[i]), 10, bits)
		if err != nil {
			return 0, l.errf("%s field %d: %v", typ, i+1, err)
		}
		return v, nil
	}

	switch typ {
	case dnswire.TypeA:
		if err := need(1); err != nil {
			return nil, err
		}
		addr, err := netip.ParseAddr(unq(tokens[0]))
		if err != nil || !addr.Is4() {
			return nil, l.errf("bad A address %q", tokens[0])
		}
		return &dnswire.A{Addr: addr}, nil
	case dnswire.TypeAAAA:
		if err := need(1); err != nil {
			return nil, err
		}
		addr, err := netip.ParseAddr(unq(tokens[0]))
		if err != nil || !addr.Is6() {
			return nil, l.errf("bad AAAA address %q", tokens[0])
		}
		return &dnswire.AAAA{Addr: addr}, nil
	case dnswire.TypeNS:
		if err := need(1); err != nil {
			return nil, err
		}
		return dnswire.NewNS(l.name(tokens[0])), nil
	case dnswire.TypeCNAME:
		if err := need(1); err != nil {
			return nil, err
		}
		return dnswire.NewCNAME(l.name(tokens[0])), nil
	case dnswire.TypePTR:
		if err := need(1); err != nil {
			return nil, err
		}
		return ptrFrom(l.name(tokens[0])), nil
	case dnswire.TypeSOA:
		if err := need(7); err != nil {
			return nil, err
		}
		soa := &dnswire.SOA{MName: l.name(tokens[0]), RName: l.name(tokens[1])}
		vals := make([]uint32, 5)
		for i := range vals {
			v, err := num(2+i, 32)
			if err != nil {
				return nil, err
			}
			vals[i] = uint32(v)
		}
		soa.Serial, soa.Refresh, soa.Retry, soa.Expire, soa.Minimum = vals[0], vals[1], vals[2], vals[3], vals[4]
		return soa, nil
	case dnswire.TypeMX:
		if err := need(2); err != nil {
			return nil, err
		}
		pref, err := num(0, 16)
		if err != nil {
			return nil, err
		}
		return &dnswire.MX{Preference: uint16(pref), Host: l.name(tokens[1])}, nil
	case dnswire.TypeTXT:
		if err := need(1); err != nil {
			return nil, err
		}
		var ss []string
		for _, t := range tokens {
			ss = append(ss, unq(t))
		}
		return &dnswire.TXT{Strings: ss}, nil
	case dnswire.TypeSRV:
		if err := need(4); err != nil {
			return nil, err
		}
		pr, err := num(0, 16)
		if err != nil {
			return nil, err
		}
		w, err := num(1, 16)
		if err != nil {
			return nil, err
		}
		port, err := num(2, 16)
		if err != nil {
			return nil, err
		}
		return &dnswire.SRV{Priority: uint16(pr), Weight: uint16(w), Port: uint16(port), Target: l.name(tokens[3])}, nil
	case dnswire.TypeDS, dnswire.TypeCDS:
		if err := need(4); err != nil {
			return nil, err
		}
		tag, err := num(0, 16)
		if err != nil {
			return nil, err
		}
		alg, err := num(1, 8)
		if err != nil {
			return nil, err
		}
		dt, err := num(2, 8)
		if err != nil {
			return nil, err
		}
		digest, err := hex.DecodeString(strings.Join(mapUnq(tokens[3:]), ""))
		if err != nil {
			return nil, l.errf("%s digest: %v", typ, err)
		}
		ds := dnswire.DS{KeyTag: uint16(tag), Algorithm: uint8(alg), DigestType: uint8(dt), Digest: digest}
		if typ == dnswire.TypeCDS {
			return &dnswire.CDS{DS: ds}, nil
		}
		return &ds, nil
	case dnswire.TypeDNSKEY, dnswire.TypeCDNSKEY:
		if err := need(4); err != nil {
			return nil, err
		}
		flags, err := num(0, 16)
		if err != nil {
			return nil, err
		}
		proto, err := num(1, 8)
		if err != nil {
			return nil, err
		}
		alg, err := num(2, 8)
		if err != nil {
			return nil, err
		}
		pk, err := base64.StdEncoding.DecodeString(strings.Join(mapUnq(tokens[3:]), ""))
		if err != nil {
			return nil, l.errf("%s key: %v", typ, err)
		}
		key := dnswire.DNSKEY{Flags: uint16(flags), Protocol: uint8(proto), Algorithm: uint8(alg), PublicKey: pk}
		if typ == dnswire.TypeCDNSKEY {
			return &dnswire.CDNSKEY{DNSKEY: key}, nil
		}
		return &key, nil
	case dnswire.TypeRRSIG:
		if err := need(9); err != nil {
			return nil, err
		}
		covered, err := dnswire.TypeFromString(strings.ToUpper(unq(tokens[0])))
		if err != nil {
			return nil, l.errf("RRSIG covered: %v", err)
		}
		alg, err := num(1, 8)
		if err != nil {
			return nil, err
		}
		labels, err := num(2, 8)
		if err != nil {
			return nil, err
		}
		origTTL, err := num(3, 32)
		if err != nil {
			return nil, err
		}
		exp, err := num(4, 32)
		if err != nil {
			return nil, err
		}
		inc, err := num(5, 32)
		if err != nil {
			return nil, err
		}
		tag, err := num(6, 16)
		if err != nil {
			return nil, err
		}
		sig, err := base64.StdEncoding.DecodeString(strings.Join(mapUnq(tokens[8:]), ""))
		if err != nil {
			return nil, l.errf("RRSIG signature: %v", err)
		}
		return &dnswire.RRSIG{
			TypeCovered: covered, Algorithm: uint8(alg), Labels: uint8(labels),
			OrigTTL: uint32(origTTL), Expiration: uint32(exp), Inception: uint32(inc),
			KeyTag: uint16(tag), SignerName: l.name(tokens[7]), Signature: sig,
		}, nil
	case dnswire.TypeNSEC:
		if err := need(1); err != nil {
			return nil, err
		}
		n := &dnswire.NSEC{NextDomain: l.name(tokens[0])}
		for _, t := range tokens[1:] {
			tt, err := dnswire.TypeFromString(strings.ToUpper(unq(t)))
			if err != nil {
				return nil, l.errf("NSEC type list: %v", err)
			}
			n.Types = append(n.Types, tt)
		}
		return n, nil
	case dnswire.TypeNSEC3:
		if err := need(6); err != nil {
			return nil, err
		}
		ha, err := num(0, 8)
		if err != nil {
			return nil, err
		}
		fl, err := num(1, 8)
		if err != nil {
			return nil, err
		}
		it, err := num(2, 16)
		if err != nil {
			return nil, err
		}
		salt, err := parseSalt(unq(tokens[3]))
		if err != nil {
			return nil, l.errf("NSEC3 salt: %v", err)
		}
		next, err := decodeBase32Hex(unq(tokens[4]))
		if err != nil {
			return nil, l.errf("NSEC3 next-hashed: %v", err)
		}
		n := &dnswire.NSEC3{HashAlg: uint8(ha), Flags: uint8(fl), Iterations: uint16(it), Salt: salt, NextHashed: next}
		for _, t := range tokens[5:] {
			tt, err := dnswire.TypeFromString(strings.ToUpper(unq(t)))
			if err != nil {
				return nil, l.errf("NSEC3 type list: %v", err)
			}
			n.Types = append(n.Types, tt)
		}
		return n, nil
	case dnswire.TypeNSEC3PARAM:
		if err := need(4); err != nil {
			return nil, err
		}
		ha, err := num(0, 8)
		if err != nil {
			return nil, err
		}
		fl, err := num(1, 8)
		if err != nil {
			return nil, err
		}
		it, err := num(2, 16)
		if err != nil {
			return nil, err
		}
		salt, err := parseSalt(unq(tokens[3]))
		if err != nil {
			return nil, l.errf("NSEC3PARAM salt: %v", err)
		}
		return &dnswire.NSEC3PARAM{HashAlg: uint8(ha), Flags: uint8(fl), Iterations: uint16(it), Salt: salt}, nil
	case dnswire.TypeCSYNC:
		if err := need(2); err != nil {
			return nil, err
		}
		serial, err := num(0, 32)
		if err != nil {
			return nil, err
		}
		flags, err := num(1, 16)
		if err != nil {
			return nil, err
		}
		c := &dnswire.CSYNC{SOASerial: uint32(serial), Flags: uint16(flags)}
		for _, t := range tokens[2:] {
			tt, err := dnswire.TypeFromString(strings.ToUpper(unq(t)))
			if err != nil {
				return nil, l.errf("CSYNC type list: %v", err)
			}
			c.Types = append(c.Types, tt)
		}
		return c, nil
	default:
		return nil, l.errf("no presentation parser for %s (use \\# generic syntax)", typ)
	}
}

func ptrFrom(target string) *dnswire.PTR {
	p := &dnswire.PTR{}
	p.Target = target // promoted from the shared single-name shape
	return p
}

func parseSalt(tok string) ([]byte, error) {
	if tok == "-" {
		return nil, nil
	}
	return hex.DecodeString(tok)
}

// decodeBase32Hex decodes the unpadded base32hex used by NSEC3 owner
// hashes (RFC 5155 §1.3), accepting either case.
func decodeBase32Hex(in string) ([]byte, error) {
	var out []byte
	var acc, bits uint
	for _, c := range in {
		var v uint
		switch {
		case c >= '0' && c <= '9':
			v = uint(c - '0')
		case c >= 'A' && c <= 'V':
			v = uint(c-'A') + 10
		case c >= 'a' && c <= 'v':
			v = uint(c-'a') + 10
		default:
			return nil, fmt.Errorf("bad base32hex digit %q", c)
		}
		acc = acc<<5 | v
		bits += 5
		if bits >= 8 {
			bits -= 8
			out = append(out, byte(acc>>bits))
		}
	}
	return out, nil
}

func mapUnq(tokens []string) []string {
	out := make([]string, len(tokens))
	for i, t := range tokens {
		out[i] = unq(t)
	}
	return out
}
