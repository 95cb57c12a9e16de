package dnswire

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"sync"
)

// RR is a resource record: owner name, class, TTL and typed RDATA.
type RR struct {
	Name  string
	Class Class
	TTL   uint32
	Data  RData
}

// Type returns the RR type taken from the typed payload.
func (r RR) Type() Type {
	if r.Data == nil {
		return TypeNone
	}
	return r.Data.Type()
}

// String renders the record in master-file presentation form.
func (r RR) String() string { return string(r.AppendText(nil)) }

// AppendText appends the record's master-file presentation form (see
// String) to dst. With a caller-reused dst it allocates nothing for the
// DNSSEC types the scanner exports (DS, CDS, DNSKEY, CDNSKEY, RRSIG);
// other types render through their RDATA's String.
func (r RR) AppendText(dst []byte) []byte {
	dst = append(dst, CanonicalName(r.Name)...)
	dst = append(dst, '\t')
	dst = strconv.AppendUint(dst, uint64(r.TTL), 10)
	dst = append(dst, '\t')
	dst = append(dst, r.Class.String()...)
	dst = append(dst, '\t')
	dst = append(dst, r.Type().String()...)
	dst = append(dst, '\t')
	if t, ok := r.Data.(textAppender); ok {
		return t.appendText(dst)
	}
	return append(dst, r.Data.String()...)
}

// textAppender is implemented by the RDATA types whose presentation
// form is appended in place rather than built as a string.
type textAppender interface {
	appendText(dst []byte) []byte
}

// Equal reports whether two RRs have the same owner, class, type and
// RDATA (TTL excluded, per RRset-membership semantics). Both RDATA are
// encoded into one pooled scratch buffer, so a comparison allocates
// nothing: it runs for every RRSIG a server answer adds and every
// duplicate check of Zone.Add.
func (r RR) Equal(o RR) bool {
	if CanonicalName(r.Name) != CanonicalName(o.Name) || r.Class != o.Class || r.Type() != o.Type() {
		return false
	}
	scratch := equalScratch.Get().(*[]byte)
	defer equalScratch.Put(scratch)
	a, err := AppendRDataWire((*scratch)[:0], r.Data)
	if err != nil {
		return false
	}
	n := len(a)
	ab, err := AppendRDataWire(a, o.Data)
	if err != nil {
		return false
	}
	*scratch = ab
	return bytes.Equal(ab[:n], ab[n:])
}

// equalScratch holds Equal's RDATA encode buffers.
var equalScratch = sync.Pool{New: func() any { return new([]byte) }}

// RDataWire returns the uncompressed wire encoding of an RDATA payload.
func RDataWire(d RData) ([]byte, error) {
	return AppendRDataWire(nil, d)
}

// AppendRDataWire appends the uncompressed wire encoding of an RDATA
// payload to dst. With a caller-reused dst the encode is allocation-free.
func AppendRDataWire(dst []byte, d RData) ([]byte, error) {
	b := newBuilder(dst)
	d.pack(b) // RData packers pass compress=false: no compression table
	out, err := b.buf, b.err
	b.release()
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Question is a query tuple.
type Question struct {
	Name  string
	Type  Type
	Class Class
}

// String renders the question in dig-like form.
func (q Question) String() string {
	return fmt.Sprintf("%s %s %s", CanonicalName(q.Name), q.Class, q.Type)
}

// Message is a DNS message (RFC 1035 §4).
type Message struct {
	ID                 uint16
	Response           bool
	Opcode             Opcode
	Authoritative      bool
	Truncated          bool
	RecursionDesired   bool
	RecursionAvailable bool
	AuthenticData      bool
	CheckingDisabled   bool
	Rcode              Rcode

	Question   []Question
	Answer     []RR
	Authority  []RR
	Additional []RR

	// TrailingBytes is the number of octets left in the wire input after
	// the last record when this message was produced by Unpack — a
	// malformed-responder signal (well-formed messages end exactly at the
	// last record). It is ignored by Pack and zero for messages built in
	// memory. A conformance scanner must not silently normalise trailing
	// garbage away, so the count is surfaced rather than rejected here;
	// the resolver counts it per response (resolver.trailing_bytes).
	TrailingBytes int

	// question and opt are storage inside the message: a decoded
	// message's single question and the OPT payload of its additional
	// section live here, and so does an OPT record SetEDNS adds, so
	// none of them costs an allocation of its own. Question and the OPT
	// record's Data then point into m.
	question [1]Question
	opt      OPT
}

// ErrTooManyRecords is returned when a section exceeds 65535 records.
var ErrTooManyRecords = errors.New("dnswire: section exceeds 65535 records")

// Pack serialises the message with name compression on owner names.
func (m *Message) Pack() ([]byte, error) {
	return m.AppendPack(nil)
}

// AppendPack serialises the message with name compression and appends
// the wire form to dst, returning the extended slice. With a
// caller-reused dst of sufficient capacity the pack is allocation-free.
func (m *Message) AppendPack(dst []byte) ([]byte, error) {
	return m.appendPackLimit(dst, 0)
}

// AppendPackTruncating serialises the message and appends it to dst
// (see AppendPack for the reuse contract); if the result exceeds limit
// octets, sections are dropped and the TC bit set, mirroring
// authoritative-server UDP behaviour. limit <= 0 means no limit.
//
// The shrinking is progressive: first the answer/authority/additional
// records go (the OPT pseudo-record is kept so the client still sees
// EDNS), then the OPT itself. The floor is the header plus the question
// section, which cannot be dropped — when even that skeleton exceeds
// limit (a long qname against a tiny limit), the skeleton is returned
// as-is with TC set, so the result can exceed limit by at most the
// question's encoding. Callers enforcing transport limits should treat
// the 12-octet header plus the question as the minimum viable datagram.
func (m *Message) AppendPackTruncating(dst []byte, limit int) ([]byte, error) {
	return m.appendPackLimit(dst, limit)
}

func (m *Message) appendPackLimit(dst []byte, limit int) ([]byte, error) {
	base := len(dst)
	out, err := m.appendPackOnce(dst)
	if err != nil {
		return nil, err
	}
	if limit <= 0 || len(out)-base <= limit {
		return out, nil
	}
	// Too large: emit a truncated response with an empty answer section
	// (clients retry over TCP; partial RRsets would be misleading).
	tm := *m
	tm.Answer, tm.Authority = nil, nil
	tm.Additional = optOnly(m.Additional)
	tm.Truncated = true
	out, err = tm.appendPackOnce(out[:base])
	if err != nil {
		return nil, err
	}
	if len(out)-base <= limit || len(tm.Additional) == 0 {
		return out, nil
	}
	// Still too large: the question plus OPT alone exceed the limit.
	// Drop the OPT too — TC is already set, and a client that retries
	// over TCP re-sends its own EDNS state anyway.
	tm.Additional = nil
	return tm.appendPackOnce(out[:base])
}

func optOnly(rrs []RR) []RR {
	for _, rr := range rrs {
		if rr.Type() == TypeOPT {
			return []RR{rr}
		}
	}
	return nil
}

func (m *Message) appendPackOnce(dst []byte) ([]byte, error) {
	for _, s := range [][]RR{m.Answer, m.Authority, m.Additional} {
		if len(s) > 0xFFFF {
			return nil, ErrTooManyRecords
		}
	}
	if len(m.Question) > 0xFFFF {
		return nil, ErrTooManyRecords
	}
	b := newBuilder(dst)
	defer b.release()
	b.u16(m.ID)
	var f1 uint8
	if m.Response {
		f1 |= 0x80
	}
	f1 |= uint8(m.Opcode) << 3
	if m.Authoritative {
		f1 |= 0x04
	}
	if m.Truncated {
		f1 |= 0x02
	}
	if m.RecursionDesired {
		f1 |= 0x01
	}
	b.u8(f1)
	var f2 uint8
	if m.RecursionAvailable {
		f2 |= 0x80
	}
	if m.AuthenticData {
		f2 |= 0x20
	}
	if m.CheckingDisabled {
		f2 |= 0x10
	}
	f2 |= uint8(m.Rcode & 0x0F)
	b.u8(f2)
	b.u16(uint16(len(m.Question)))
	b.u16(uint16(len(m.Answer)))
	b.u16(uint16(len(m.Authority)))
	b.u16(uint16(len(m.Additional)))
	for _, q := range m.Question {
		b.name(q.Name, true)
		b.u16(uint16(q.Type))
		b.u16(uint16(q.Class))
	}
	for _, sec := range [][]RR{m.Answer, m.Authority, m.Additional} {
		for _, rr := range sec {
			if err := packRR(b, rr, m.Rcode); err != nil {
				return nil, err
			}
		}
	}
	if b.err != nil {
		return nil, b.err
	}
	return b.buf, nil
}

func packRR(b *builder, rr RR, rcode Rcode) error {
	if rr.Data == nil {
		return errors.New("dnswire: RR with nil data")
	}
	b.name(rr.Name, true)
	b.u16(uint16(rr.Type()))
	if rr.Type() == TypeOPT {
		// For OPT, the class field carries the UDP payload size and the
		// TTL carries extended rcode/flags; the caller encodes those
		// into Class/TTL via the OPT helpers.
		b.u16(uint16(rr.Class))
		ttl := rr.TTL
		// Fold the upper bits of the rcode into the extended-rcode byte.
		ttl = ttl&0x00FFFFFF | uint32(rcode>>4)<<24
		b.u32(ttl)
	} else {
		b.u16(uint16(rr.Class))
		b.u32(rr.TTL)
	}
	// Reserve rdlength, pack rdata, then patch.
	lenAt := len(b.buf)
	b.u16(0)
	start := len(b.buf)
	rr.Data.pack(b)
	if b.err != nil {
		return b.err
	}
	rdlen := len(b.buf) - start
	if rdlen > 0xFFFF {
		return fmt.Errorf("dnswire: rdata of %s exceeds 65535 octets", rr.Type())
	}
	b.buf[lenAt] = byte(rdlen >> 8)
	b.buf[lenAt+1] = byte(rdlen)
	return nil
}

// Unpack parses a wire-format message into a fresh Message. A message
// of up to 8 records is allocated together with its record sections,
// so the message, its question, its OPT payload and its sections cost
// one allocation; only the other RDATA are allocated on their own.
// UnpackFrom into a message of one's own sizes nothing ahead: its
// sections grow as records are appended and are kept for the next.
func Unpack(msg []byte) (*Message, error) {
	m := newMessage(msg)
	if err := m.UnpackFrom(msg); err != nil {
		return nil, err
	}
	return m, nil
}

// Messages allocated together with room for their records (see
// newMessage). On the scan workloads 70 % of decoded responses hold at
// most two records, 23 % three and 7 % four to eight (EXPERIMENTS.md
// E-alloc); the two smaller classes keep those shapes from paying for
// eight slots.
type (
	message2 struct {
		m   Message
		rrs [2]RR
	}
	message3 struct {
		m   Message
		rrs [3]RR
	}
	message8 struct {
		m   Message
		rrs [8]RR
	}
)

// minRRWire is the shortest wire record: a root owner name and the ten
// octets of type, class, TTL and RDLENGTH.
const minRRWire = 11

// newMessage allocates the Message that msg decodes into, with its
// three record sections sized from the header counts: one backing
// array, allocated with the message when the counts total at most 8.
// Each section is capped at its own count, so appending to it never
// reaches the next; a section with count 0 stays nil. Counts the input
// cannot hold at minRRWire octets a record are not trusted with an
// allocation: such a message fails to parse anyway.
func newMessage(msg []byte) *Message {
	const headerLen = 12
	if len(msg) < headerLen {
		return new(Message)
	}
	var counts [3]int
	total := 0
	for i := range counts {
		counts[i] = int(msg[6+2*i])<<8 | int(msg[7+2*i])
		total += counts[i]
	}
	if total == 0 || total*minRRWire > len(msg)-headerLen {
		return new(Message)
	}
	var m *Message
	var all []RR
	switch {
	case total <= 2:
		b := new(message2)
		m, all = &b.m, b.rrs[:]
	case total <= 3:
		b := new(message3)
		m, all = &b.m, b.rrs[:]
	case total <= 8:
		b := new(message8)
		m, all = &b.m, b.rrs[:]
	default:
		m, all = new(Message), make([]RR, total)
	}
	lo := 0
	for i, dst := range [...]*[]RR{&m.Answer, &m.Authority, &m.Additional} {
		if n := counts[i]; n > 0 {
			*dst = all[lo : lo : lo+n]
			lo += n
		}
	}
	return m
}

// Reset empties m for reuse as a message built in place, keeping the
// storage of its record sections. Records m held, and its question and
// OPT payload, must no longer be in use: the next records overwrite
// them.
func (m *Message) Reset() {
	*m = Message{Answer: m.Answer[:0], Authority: m.Authority[:0], Additional: m.Additional[:0]}
}

// UnpackFrom parses a wire-format message into m, reusing m's section
// slices, RData values and their byte-field storage where the shapes
// match. Steady-state reparsing into the same Message allocates
// nothing. The previous contents of m are overwritten; callers must not
// retain references into them. On error m is left partially filled and
// must not be used.
func (m *Message) UnpackFrom(msg []byte) error {
	p := newParser(msg)
	defer p.release()
	return m.unpack(p)
}

// unpack is UnpackFrom with the parser, and so its intern table, given.
func (m *Message) unpack(p *parser) error {
	var err error
	if m.ID, err = p.u16(); err != nil {
		return err
	}
	f1, err := p.u8()
	if err != nil {
		return err
	}
	f2, err := p.u8()
	if err != nil {
		return err
	}
	m.Response = f1&0x80 != 0
	m.Opcode = Opcode(f1 >> 3 & 0x0F)
	m.Authoritative = f1&0x04 != 0
	m.Truncated = f1&0x02 != 0
	m.RecursionDesired = f1&0x01 != 0
	m.RecursionAvailable = f2&0x80 != 0
	m.AuthenticData = f2&0x20 != 0
	m.CheckingDisabled = f2&0x10 != 0
	m.Rcode = Rcode(f2 & 0x0F)
	m.TrailingBytes = 0
	var counts [4]uint16
	for i := range counts {
		if counts[i], err = p.u16(); err != nil {
			return err
		}
	}
	m.Question = m.Question[:0]
	for i := 0; i < int(counts[0]); i++ {
		var q Question
		if q.Name, err = p.name(); err != nil {
			return err
		}
		t, err := p.u16()
		if err != nil {
			return err
		}
		q.Type = Type(t)
		c, err := p.u16()
		if err != nil {
			return err
		}
		q.Class = Class(c)
		if counts[0] == 1 {
			m.question[0] = q
			m.Question = m.question[:1:1]
		} else {
			m.Question = append(m.Question, q)
		}
	}
	// The first OPT of the additional section decodes into m.opt; m.opt
	// is never reused through an old slot, so a second OPT, or one from
	// another section, gets storage of its own.
	inlineOPT := &m.opt
	for si, dst := range []*[]RR{&m.Answer, &m.Authority, &m.Additional} {
		// Keep the previous elements visible through old so each slot's
		// RData (and its byte-field storage) can be reused in place:
		// append overwrites old[i] only after unpackRR has read it.
		old := *dst
		s := old[:0]
		for i := 0; i < int(counts[si+1]); i++ {
			var reuse RData
			if i < len(old) && old[i].Data != RData(&m.opt) {
				reuse = old[i].Data
			}
			var inline *OPT
			if si == 2 {
				inline = inlineOPT
			}
			rr, extRcode, hasExt, err := unpackRR(p, reuse, inline)
			if err != nil {
				*dst = s
				return err
			}
			if rr.Data == RData(inlineOPT) {
				inlineOPT = nil
			}
			if hasExt {
				m.Rcode |= Rcode(extRcode) << 4
			}
			s = append(s, rr)
		}
		*dst = s
	}
	m.TrailingBytes = p.remaining()
	return nil
}

// unpackRR decodes one resource record. reuse, when non-nil and of the
// record's concrete type, is overwritten in place instead of allocating
// a fresh RData (the unpack-into fast path); an OPT record decodes into
// inline instead when that is non-nil. For OPT records the
// extended-rcode byte is returned with hasExt set (by value, so the hot
// path never heap-allocates it).
func unpackRR(p *parser, reuse RData, inline *OPT) (rr RR, extRcode uint8, hasExt bool, err error) {
	if rr.Name, err = p.name(); err != nil {
		return rr, 0, false, err
	}
	t16, err := p.u16()
	if err != nil {
		return rr, 0, false, err
	}
	typ := Type(t16)
	c16, err := p.u16()
	if err != nil {
		return rr, 0, false, err
	}
	rr.Class = Class(c16)
	if rr.TTL, err = p.u32(); err != nil {
		return rr, 0, false, err
	}
	rdlen, err := p.u16()
	if err != nil {
		return rr, 0, false, err
	}
	if p.remaining() < int(rdlen) {
		return rr, 0, false, errTruncated
	}
	data := reuse
	switch {
	case typ == TypeOPT && inline != nil:
		data = inline
	case data == nil || data.Type() != typ:
		data = newRData(typ)
	}
	start := p.off
	if err := data.unpack(p, int(rdlen)); err != nil {
		return rr, 0, false, err
	}
	if p.off != start+int(rdlen) {
		return rr, 0, false, fmt.Errorf("dnswire: %s rdata length mismatch", typ)
	}
	rr.Data = data
	if typ == TypeOPT {
		return rr, uint8(rr.TTL >> 24), true, nil
	}
	return rr, 0, false, nil
}

// NewQuery builds a standard query for (name, type) with a fresh
// question section and the RD bit clear (iterative-resolver style).
func NewQuery(id uint16, name string, t Type) *Message {
	m := &Message{}
	m.InitQuery(id, name, t)
	return m
}

// InitQuery resets m in place to a standard query for (name, type),
// whose question is held inside m. The answer and authority sections
// are emptied; the additional section is intentionally retained so that
// a previously attached OPT record can be updated in place by SetEDNS —
// callers reusing a query message across attempts must either call
// SetEDNS after InitQuery or clear Additional themselves.
func (m *Message) InitQuery(id uint16, name string, t Type) {
	m.ID = id
	m.Response = false
	m.Opcode = 0
	m.Authoritative = false
	m.Truncated = false
	m.RecursionDesired = false
	m.RecursionAvailable = false
	m.AuthenticData = false
	m.CheckingDisabled = false
	m.Rcode = 0
	m.TrailingBytes = 0
	m.question[0] = Question{Name: CanonicalName(name), Type: t, Class: ClassIN}
	m.Question = m.question[:1:1]
	m.Answer = m.Answer[:0]
	m.Authority = m.Authority[:0]
}
