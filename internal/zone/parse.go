package zone

import (
	"bufio"
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
// $ORIGIN itself before any record.
func Parse(r io.Reader, origin string) (*Zone, error) {
	p := &fileParser{
		origin: dnswire.CanonicalName(origin),
		ttl:    3600,
		sc:     bufio.NewScanner(r),
	}
	p.sc.Buffer(make([]byte, 0, 64*1024), MaxLogicalLineBytes)
	return p.run()
}

type fileParser struct {
	origin    string
	ttl       uint32
	lastOwner string
	sc        *bufio.Scanner
	line      int
	zone      *Zone
	// rootAll roots the zone at "." regardless of origin, so a single
	// record with any owner can be parsed in isolation (ParseRecord):
	// origin then only resolves relative names, never rejects owners.
	rootAll bool
}

func (p *fileParser) errf(format string, args ...any) error {
	return fmt.Errorf("zone: line %d: %s", p.line, fmt.Sprintf(format, args...))
}

func (p *fileParser) run() (*Zone, error) {
	for p.sc.Scan() {
		p.line++
		logical, err := p.logicalLine(p.sc.Text())
		if err != nil {
			return nil, err
		}
		if logical == "" {
			continue
		}
		if err := p.handleLine(logical); err != nil {
			return nil, err
		}
	}
	if err := p.sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			// The scanner hit the cap mid-line; the offending line is
			// the one after the last complete one.
			p.line++
			return nil, p.errf("line exceeds %d bytes", MaxLogicalLineBytes)
		}
		return nil, err
	}
	if p.zone == nil {
		return nil, fmt.Errorf("zone: empty master file")
	}
	return p.zone, nil
}

// logicalLine joins continuation lines while inside parentheses and
// strips comments (respecting quoted strings).
func (p *fileParser) logicalLine(first string) (string, error) {
	var sb strings.Builder
	depth := 0
	line := first
	for {
		inQuote := false
		for i := 0; i < len(line); i++ {
			c := line[i]
			switch {
			case c == '"' && (i == 0 || line[i-1] != '\\'):
				inQuote = !inQuote
				sb.WriteByte(c)
			case c == ';' && !inQuote:
				line = ""
				i = len(line)
			case c == '(' && !inQuote:
				depth++
				sb.WriteByte(' ')
			case c == ')' && !inQuote:
				depth--
				if depth < 0 {
					return "", p.errf("unbalanced ')'")
				}
				sb.WriteByte(' ')
			default:
				sb.WriteByte(c)
			}
			if line == "" {
				break
			}
		}
		if inQuote {
			return "", p.errf("unterminated quoted string")
		}
		if depth == 0 {
			return strings.TrimRight(sb.String(), " \t"), nil
		}
		if sb.Len() > MaxLogicalLineBytes {
			return "", p.errf("logical line exceeds %d bytes", MaxLogicalLineBytes)
		}
		if !p.sc.Scan() {
			if err := p.sc.Err(); errors.Is(err, bufio.ErrTooLong) {
				p.line++
				return "", p.errf("line exceeds %d bytes", MaxLogicalLineBytes)
			}
			return "", p.errf("EOF inside '('")
		}
		p.line++
		sb.WriteByte(' ')
		line = p.sc.Text()
	}
}

// fields tokenises a logical line preserving quoted strings as single
// tokens (without the quotes) and tracking whether the line began with
// whitespace (blank owner).
func fields(line string) (tokens []string, blankOwner bool) {
	blankOwner = len(line) > 0 && (line[0] == ' ' || line[0] == '\t')
	i := 0
	for i < len(line) {
		for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
			i++
		}
		if i >= len(line) {
			break
		}
		if line[i] == '"' {
			j := i + 1
			var sb strings.Builder
			for j < len(line) && line[j] != '"' {
				if line[j] == '\\' && j+1 < len(line) {
					j++
				}
				sb.WriteByte(line[j])
				j++
			}
			tokens = append(tokens, "\x00"+sb.String()) // \x00 marks "was quoted"
			i = j + 1
			continue
		}
		j := i
		for j < len(line) && line[j] != ' ' && line[j] != '\t' {
			j++
		}
		tokens = append(tokens, line[i:j])
		i = j
	}
	return tokens, blankOwner
}

func (p *fileParser) handleLine(line string) error {
	tokens, blankOwner := fields(line)
	if len(tokens) == 0 {
		return nil
	}
	switch strings.ToUpper(tokens[0]) {
	case "$ORIGIN":
		if len(tokens) != 2 {
			return p.errf("$ORIGIN wants one argument")
		}
		p.origin = dnswire.CanonicalName(tokens[1])
		return nil
	case "$TTL":
		if len(tokens) != 2 {
			return p.errf("$TTL wants one argument")
		}
		v, err := strconv.ParseUint(tokens[1], 10, 32)
		if err != nil {
			return p.errf("$TTL: %v", err)
		}
		p.ttl = uint32(v)
		return nil
	case "$INCLUDE":
		return p.errf("$INCLUDE is not supported")
	}

	// Owner.
	var owner string
	if blankOwner {
		if p.lastOwner == "" {
			return p.errf("record with blank owner before any owner")
		}
		owner = p.lastOwner
	} else {
		owner = p.absName(tokens[0])
		tokens = tokens[1:]
	}
	p.lastOwner = owner

	// Optional TTL and class in either order.
	ttl := p.ttl
	class := dnswire.ClassIN
	for len(tokens) > 0 {
		tok := strings.ToUpper(tokens[0])
		if v, err := strconv.ParseUint(tok, 10, 32); err == nil {
			ttl = uint32(v)
			tokens = tokens[1:]
			continue
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
		return p.errf("missing record type")
	}
	typ, err := dnswire.TypeFromString(strings.ToUpper(tokens[0]))
	if err != nil {
		return p.errf("%v", err)
	}
	rdata, err := p.parseRData(typ, tokens[1:])
	if err != nil {
		return err
	}
	if p.zone == nil {
		if p.rootAll {
			p.zone = New(".")
		} else {
			if p.origin == "." && owner != "." {
				// First record defines the origin when none was given.
				p.origin = owner
			}
			p.zone = New(p.origin)
		}
	}
	return p.zone.Add(dnswire.RR{Name: owner, Class: class, TTL: ttl, Data: rdata})
}

// absName resolves a possibly-relative name against $ORIGIN.
func (p *fileParser) absName(tok string) string {
	tok = strings.TrimPrefix(tok, "\x00")
	if tok == "@" {
		return p.origin
	}
	if strings.HasSuffix(tok, ".") {
		return dnswire.CanonicalName(tok)
	}
	if p.origin == "." {
		return dnswire.CanonicalName(tok)
	}
	return dnswire.CanonicalName(tok + "." + p.origin)
}

func unq(tok string) string { return strings.TrimPrefix(tok, "\x00") }

func (p *fileParser) parseRData(typ dnswire.Type, tokens []string) (dnswire.RData, error) {
	// Generic RFC 3597 form works for any type: "\# <len> <hex>".
	if len(tokens) >= 2 && unq(tokens[0]) == `\#` {
		n, err := strconv.Atoi(tokens[1])
		if err != nil {
			return nil, p.errf("\\# length: %v", err)
		}
		raw, err := hex.DecodeString(strings.Join(tokens[2:], ""))
		if err != nil {
			return nil, p.errf("\\# hex: %v", err)
		}
		if len(raw) != n {
			return nil, p.errf("\\# length %d != %d data octets", n, len(raw))
		}
		return &dnswire.Generic{T: typ, Octets: raw}, nil
	}

	need := func(n int) error {
		if len(tokens) < n {
			return p.errf("%s wants at least %d fields, got %d", typ, n, len(tokens))
		}
		return nil
	}
	num := func(i int, bits int) (uint64, error) {
		v, err := strconv.ParseUint(unq(tokens[i]), 10, bits)
		if err != nil {
			return 0, p.errf("%s field %d: %v", typ, i+1, err)
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
			return nil, p.errf("bad A address %q", tokens[0])
		}
		return &dnswire.A{Addr: addr}, nil
	case dnswire.TypeAAAA:
		if err := need(1); err != nil {
			return nil, err
		}
		addr, err := netip.ParseAddr(unq(tokens[0]))
		if err != nil || !addr.Is6() {
			return nil, p.errf("bad AAAA address %q", tokens[0])
		}
		return &dnswire.AAAA{Addr: addr}, nil
	case dnswire.TypeNS:
		if err := need(1); err != nil {
			return nil, err
		}
		return dnswire.NewNS(p.absName(tokens[0])), nil
	case dnswire.TypeCNAME:
		if err := need(1); err != nil {
			return nil, err
		}
		return dnswire.NewCNAME(p.absName(tokens[0])), nil
	case dnswire.TypePTR:
		if err := need(1); err != nil {
			return nil, err
		}
		return ptrFrom(p.absName(tokens[0])), nil
	case dnswire.TypeSOA:
		if err := need(7); err != nil {
			return nil, err
		}
		soa := &dnswire.SOA{MName: p.absName(tokens[0]), RName: p.absName(tokens[1])}
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
		return &dnswire.MX{Preference: uint16(pref), Host: p.absName(tokens[1])}, nil
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
		return &dnswire.SRV{Priority: uint16(pr), Weight: uint16(w), Port: uint16(port), Target: p.absName(tokens[3])}, nil
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
			return nil, p.errf("%s digest: %v", typ, err)
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
			return nil, p.errf("%s key: %v", typ, err)
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
			return nil, p.errf("RRSIG covered: %v", err)
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
			return nil, p.errf("RRSIG signature: %v", err)
		}
		return &dnswire.RRSIG{
			TypeCovered: covered, Algorithm: uint8(alg), Labels: uint8(labels),
			OrigTTL: uint32(origTTL), Expiration: uint32(exp), Inception: uint32(inc),
			KeyTag: uint16(tag), SignerName: p.absName(tokens[7]), Signature: sig,
		}, nil
	case dnswire.TypeNSEC:
		if err := need(1); err != nil {
			return nil, err
		}
		n := &dnswire.NSEC{NextDomain: p.absName(tokens[0])}
		for _, t := range tokens[1:] {
			tt, err := dnswire.TypeFromString(strings.ToUpper(unq(t)))
			if err != nil {
				return nil, p.errf("NSEC type list: %v", err)
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
			return nil, p.errf("NSEC3 salt: %v", err)
		}
		next, err := decodeBase32Hex(unq(tokens[4]))
		if err != nil {
			return nil, p.errf("NSEC3 next-hashed: %v", err)
		}
		n := &dnswire.NSEC3{HashAlg: uint8(ha), Flags: uint8(fl), Iterations: uint16(it), Salt: salt, NextHashed: next}
		for _, t := range tokens[5:] {
			tt, err := dnswire.TypeFromString(strings.ToUpper(unq(t)))
			if err != nil {
				return nil, p.errf("NSEC3 type list: %v", err)
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
			return nil, p.errf("NSEC3PARAM salt: %v", err)
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
				return nil, p.errf("CSYNC type list: %v", err)
			}
			c.Types = append(c.Types, tt)
		}
		return c, nil
	default:
		return nil, p.errf("no presentation parser for %s (use \\# generic syntax)", typ)
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

// ParseRR parses a single master-file record line with absolute names
// (the format RR.String produces), used when re-importing exported
// observations.
func ParseRR(line string) (dnswire.RR, error) {
	return ParseRecord(line, ".", 3600)
}

// ParseRecord parses one master-file record line in isolation: relative
// names resolve against origin and a missing TTL field defaults to ttl,
// but — unlike Parse — the record may name any owner, in or out of any
// zone. This is the per-line primitive the streaming ingest pipeline
// parallelises over: directives ($ORIGIN, $TTL) and blank-owner
// continuation are stateful and must be resolved by the caller before
// the line reaches this function.
func ParseRecord(line, origin string, ttl uint32) (dnswire.RR, error) {
	p := &fileParser{
		origin:  dnswire.CanonicalName(origin),
		ttl:     ttl,
		rootAll: true,
		sc:      bufio.NewScanner(strings.NewReader(line)),
	}
	p.sc.Buffer(make([]byte, 0, 256), MaxLogicalLineBytes)
	z, err := p.run()
	if err != nil {
		return dnswire.RR{}, err
	}
	all := z.All()
	if len(all) != 1 {
		return dnswire.RR{}, fmt.Errorf("zone: expected one record, got %d", len(all))
	}
	return all[0], nil
}
