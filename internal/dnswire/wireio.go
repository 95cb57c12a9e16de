package dnswire

import "sync"

// Low-level wire readers and writers shared by message and RDATA codecs.
//
// Both the builder and the parser are pooled: the scan hot path packs
// and unpacks a handful of messages per zone, and allocating fresh
// scratch (compression table, name-assembly buffer, intern table) per
// message made the codec the dominant source of garbage in whole-scan
// profiles. Pooled scratch never escapes into results: the builder's
// output buffer is caller-owned, and the parser copies every byte it
// hands out (takeInto) or interns it as an immutable string.

type builder struct {
	buf  []byte
	base int       // message start within buf (AppendPack offset)
	comp compTable // compression table of the message being packed
	err  error
}

var builderPool = sync.Pool{New: func() any { return new(builder) }}

// newBuilder returns a pooled builder appending to dst. Compression
// offsets are taken relative to len(dst), so a message can be packed
// into the tail of a caller-owned buffer.
func newBuilder(dst []byte) *builder {
	b := builderPool.Get().(*builder)
	b.buf = dst
	b.base = len(dst)
	b.err = nil
	b.comp.reset()
	//lint:allow poollife constructor hands pool ownership to the caller; every caller pairs it with release()
	return b
}

// release returns b to the pool. The output buffer is the caller's and
// must not be retained by the pool (the caller keeps the packed bytes).
func (b *builder) release() {
	b.buf = nil
	builderPool.Put(b)
}

func (b *builder) u8(v uint8) { b.buf = append(b.buf, v) }
func (b *builder) u16(v uint16) {
	b.buf = append(b.buf, byte(v>>8), byte(v))
}
func (b *builder) u32(v uint32) {
	b.buf = append(b.buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}
func (b *builder) bytes(v []byte) { b.buf = append(b.buf, v...) }
func (b *builder) str(v string)   { b.buf = append(b.buf, v...) }

// name packs a domain name. Compression is only ever applied to owner
// names and classic RR targets in messages; RDATA of DNSSEC-era types is
// always packed uncompressed (RFC 3597 §4), which callers arrange by
// passing compress=false.
func (b *builder) name(n string, compress bool) {
	if b.err != nil {
		return
	}
	var t *compTable
	if compress {
		t = &b.comp
	}
	out, err := packNameOffset(b.buf, b.base, n, t)
	if err != nil {
		b.err = err
		return
	}
	b.buf = out
}

// internCap bounds the per-parser name-intern table. Scan workloads
// see the same nameserver and apex names over and over; a table that
// reaches the cap is cleared and starts over, so a pooled parser never
// accumulates unbounded uniques over a multi-million-zone run and keeps
// interning the names of the messages it is parsing now.
const internCap = 4096

type parser struct {
	msg     []byte
	off     int
	scratch []byte            // name-assembly buffer, reused per name
	names   map[string]string // interned name strings, reused per parser
}

var parserPool = sync.Pool{New: func() any { return &parser{} }}

// newParser returns a pooled parser positioned at the start of msg. The
// parser retains no aliases of msg in anything it returns, so callers
// may reuse msg storage immediately after parsing.
func newParser(msg []byte) *parser {
	p := parserPool.Get().(*parser)
	p.msg = msg
	p.off = 0
	//lint:allow poollife constructor hands pool ownership to the caller; every caller pairs it with release()
	return p
}

func (p *parser) release() {
	p.msg = nil
	parserPool.Put(p)
}

// intern returns b as a string, reusing a previously-built string for
// the same bytes when possible. The map lookup on a []byte key compiles
// without a conversion allocation, so repeated names cost zero garbage.
func (p *parser) intern(b []byte) string {
	if s, ok := p.names[string(b)]; ok {
		return s
	}
	s := string(b)
	if p.names == nil {
		p.names = make(map[string]string, 64)
	} else if len(p.names) >= internCap {
		clear(p.names)
	}
	p.names[s] = s
	return s
}

func (p *parser) remaining() int { return len(p.msg) - p.off }

func (p *parser) u8() (uint8, error) {
	if p.off+1 > len(p.msg) {
		return 0, errTruncated
	}
	v := p.msg[p.off]
	p.off++
	return v, nil
}

func (p *parser) u16() (uint16, error) {
	if p.off+2 > len(p.msg) {
		return 0, errTruncated
	}
	v := uint16(p.msg[p.off])<<8 | uint16(p.msg[p.off+1])
	p.off += 2
	return v, nil
}

func (p *parser) u32() (uint32, error) {
	if p.off+4 > len(p.msg) {
		return 0, errTruncated
	}
	v := uint32(p.msg[p.off])<<24 | uint32(p.msg[p.off+1])<<16 |
		uint32(p.msg[p.off+2])<<8 | uint32(p.msg[p.off+3])
	p.off += 4
	return v, nil
}

// takeInto returns the next n bytes copied into dst, reusing dst's
// storage when its capacity allows. Unpack-into callers thread the
// previous field value through so steady-state reparsing allocates
// nothing.
func (p *parser) takeInto(dst []byte, n int) ([]byte, error) {
	if n < 0 || p.off+n > len(p.msg) {
		return nil, errTruncated
	}
	if cap(dst) < n {
		dst = make([]byte, n)
	} else {
		dst = dst[:n]
	}
	copy(dst, p.msg[p.off:p.off+n])
	p.off += n
	return dst, nil
}

// view returns the next n bytes of the input without copying. Only for
// transient decoding (type bitmaps) — the slice aliases p.msg and must
// not be retained.
func (p *parser) view(n int) ([]byte, error) {
	if n < 0 || p.off+n > len(p.msg) {
		return nil, errTruncated
	}
	v := p.msg[p.off : p.off+n]
	p.off += n
	return v, nil
}

func (p *parser) name() (string, error) {
	buf, next, err := appendUnpackedName(p.scratch[:0], p.msg, p.off)
	if err != nil {
		return "", err
	}
	p.scratch = buf
	p.off = next
	if len(buf) == 0 {
		return ".", nil
	}
	return p.intern(buf), nil
}

// packTypeBitmap encodes the RFC 4034 §4.1.2 window-block type bitmap
// used by NSEC, NSEC3 and CSYNC. Types must be pre-sorted ascending.
func packTypeBitmap(buf []byte, types []Type) []byte {
	if len(types) == 0 {
		return buf
	}
	window := -1
	var bits [32]byte
	maxOctet := 0
	flush := func() {
		if window >= 0 {
			buf = append(buf, byte(window), byte(maxOctet))
			buf = append(buf, bits[:maxOctet]...)
		}
		bits = [32]byte{}
		maxOctet = 0
	}
	for _, t := range types {
		w := int(t >> 8)
		if w != window {
			flush()
			window = w
		}
		lo := int(t & 0xFF)
		bits[lo/8] |= 0x80 >> (lo % 8)
		if lo/8+1 > maxOctet {
			maxOctet = lo/8 + 1
		}
	}
	flush()
	return buf
}

// unpackTypeBitmapInto appends the decoded types to dst (pass a
// truncated previous slice to reuse its storage).
func unpackTypeBitmapInto(dst []Type, data []byte) ([]Type, error) {
	for len(data) > 0 {
		if len(data) < 2 {
			return nil, errTruncated
		}
		window, n := int(data[0]), int(data[1])
		if n < 1 || n > 32 || len(data) < 2+n {
			return nil, errTruncated
		}
		for i := 0; i < n; i++ {
			for bit := 0; bit < 8; bit++ {
				if data[2+i]&(0x80>>bit) != 0 {
					dst = append(dst, Type(window<<8|i*8+bit))
				}
			}
		}
		data = data[2+n:]
	}
	return dst, nil
}
