package dnswire

import (
	"fmt"
)

// OPT is the EDNS(0) pseudo-record payload (RFC 6891). Options are kept
// as opaque code/data pairs.
type OPT struct {
	Options []EDNSOption
}

// EDNSOption is a single EDNS option TLV.
type EDNSOption struct {
	Code uint16
	Data []byte
}

// Type implements RData.
func (*OPT) Type() Type { return TypeOPT }

func (o *OPT) pack(b *builder) {
	for _, opt := range o.Options {
		b.u16(opt.Code)
		b.u16(uint16(len(opt.Data)))
		b.bytes(opt.Data)
	}
}

func (o *OPT) unpack(p *parser, rdlen int) error {
	end := p.off + rdlen
	// Reuse the previous option slice and each slot's Data storage
	// (captured before append overwrites the slot).
	old := o.Options
	opts := old[:0]
	for p.off < end {
		code, err := p.u16()
		if err != nil {
			return err
		}
		n, err := p.u16()
		if err != nil {
			return err
		}
		var reuse []byte
		if len(opts) < len(old) {
			reuse = old[len(opts)].Data
		}
		data, err := p.takeInto(reuse, int(n))
		if err != nil {
			o.Options = opts
			return err
		}
		opts = append(opts, EDNSOption{Code: code, Data: data})
	}
	o.Options = opts
	return nil
}

func (o *OPT) String() string {
	return fmt.Sprintf("; EDNS options=%d", len(o.Options))
}

// EDNS describes the EDNS(0) state of a message, decoded from or
// encoded into its OPT pseudo-record.
type EDNS struct {
	UDPSize       uint16
	ExtendedRcode uint8 // upper 8 bits of the 12-bit rcode
	Version       uint8
	DO            bool // DNSSEC OK
	Options       []EDNSOption
}

// SetEDNS attaches (or replaces) the OPT record on m. When an OPT
// record is already present its *OPT payload is mutated in place, so a
// reused query message keeps EDNS attachment allocation-free.
func (m *Message) SetEDNS(e EDNS) {
	ttl := uint32(e.ExtendedRcode)<<24 | uint32(e.Version)<<16
	if e.DO {
		ttl |= 1 << 15
	}
	for i := range m.Additional {
		rr := &m.Additional[i]
		if rr.Type() != TypeOPT {
			continue
		}
		rr.Name = "."
		rr.Class = Class(e.UDPSize)
		rr.TTL = ttl
		if o, ok := rr.Data.(*OPT); ok {
			o.Options = append(o.Options[:0], e.Options...)
		} else {
			rr.Data = &OPT{Options: e.Options}
		}
		return
	}
	m.Additional = append(m.Additional, RR{
		Name:  ".",
		Class: Class(e.UDPSize),
		TTL:   ttl,
		Data:  &OPT{Options: e.Options},
	})
}

// GetEDNS extracts the EDNS state from m's OPT record, if present.
func (m *Message) GetEDNS() (EDNS, bool) {
	for _, rr := range m.Additional {
		if rr.Type() != TypeOPT {
			continue
		}
		opt := rr.Data.(*OPT)
		return EDNS{
			UDPSize:       uint16(rr.Class),
			ExtendedRcode: uint8(rr.TTL >> 24),
			Version:       uint8(rr.TTL >> 16),
			DO:            rr.TTL&(1<<15) != 0,
			Options:       opt.Options,
		}, true
	}
	return EDNS{}, false
}

// DNSSECOK reports whether the message carries an OPT record with the
// DO bit set.
func (m *Message) DNSSECOK() bool {
	e, ok := m.GetEDNS()
	return ok && e.DO
}
