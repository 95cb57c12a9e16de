package transport

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"net/netip"
	"sync"
	"time"

	"dnssecboot/internal/dnswire"
)

// FaultProfile describes misbehaviour injected in front of a network.
// The zero value injects nothing.
type FaultProfile struct {
	// Loss drops each query attempt with this probability (the client
	// sees ErrTimeout).
	Loss float64
	// ExtraLatency is waited once per exchange before it is passed on.
	ExtraLatency time.Duration
	// Down makes every address hard-unreachable (ErrUnreachable).
	Down bool
	// ServFail answers every query with SERVFAIL instead of passing it
	// on.
	ServFail bool
	// FlakyEveryN makes servers respond only to every Nth repetition
	// of the same query tuple, dropping the rest — the "answers on the
	// second try" behaviour that motivates retry policies. Values < 2
	// disable the mode.
	FlakyEveryN int
}

// Faults is an Exchanger that injects Profile's misbehaviour in front
// of Inner. Decisions are deterministic: each is derived from Seed, the
// server address, the query tuple (name, type) and a per-tuple sequence
// number, so a scan with a fixed seed sees the identical fault pattern
// on every run regardless of goroutine interleaving or wall-clock
// timing.
type Faults struct {
	Inner   Exchanger
	Profile FaultProfile
	Seed    int64

	mu  sync.Mutex
	seq map[uint64]uint64
}

// Exchange implements Exchanger.
func (f *Faults) Exchange(ctx context.Context, server netip.AddrPort, query *dnswire.Message) (*dnswire.Message, error) {
	p := f.Profile
	if p.Down {
		return nil, ErrUnreachable
	}
	if f.drop(server.Addr(), query) {
		return nil, ErrTimeout
	}
	if p.ExtraLatency > 0 {
		t := time.NewTimer(p.ExtraLatency)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return nil, ErrTimeout
		case <-t.C:
		}
	}
	if p.ServFail {
		// The question is copied: a caller may reuse its query once
		// Exchange returns.
		return &dnswire.Message{ID: query.ID, Response: true, Opcode: query.Opcode, Rcode: dnswire.RcodeServFail,
			Question: append([]dnswire.Question(nil), query.Question...)}, nil
	}
	return f.Inner.Exchange(ctx, server, query)
}

// drop draws whether this exchange is lost, advancing the tuple's
// sequence.
func (f *Faults) drop(addr netip.Addr, q *dnswire.Message) bool {
	key := tupleKey(addr, q)
	f.mu.Lock()
	if f.seq == nil {
		f.seq = make(map[uint64]uint64)
	}
	seq := f.seq[key]
	f.seq[key] = seq + 1
	f.mu.Unlock()

	p := f.Profile
	if p.FlakyEveryN > 1 && (seq+1)%uint64(p.FlakyEveryN) != 0 {
		return true
	}
	return p.Loss > 0 && roll(f.Seed, key, seq, 'u') < p.Loss
}

// tupleKey hashes the (addr, qname, qtype) query tuple.
func tupleKey(addr netip.Addr, q *dnswire.Message) uint64 {
	h := fnv.New64a()
	b, _ := addr.MarshalBinary()
	h.Write(b)
	if len(q.Question) > 0 {
		h.Write([]byte(dnswire.CanonicalName(q.Question[0].Name)))
		var t [2]byte
		binary.BigEndian.PutUint16(t[:], uint16(q.Question[0].Type))
		h.Write(t[:])
	}
	return h.Sum64()
}

// roll derives a uniform float64 in [0, 1) from the seed, tuple key,
// sequence number and leg tag.
func roll(seed int64, key, seq uint64, leg byte) float64 {
	h := fnv.New64a()
	var b [17]byte
	binary.BigEndian.PutUint64(b[0:8], uint64(seed))
	binary.BigEndian.PutUint64(b[8:16], key)
	b[16] = leg
	h.Write(b[:])
	var s [8]byte
	binary.BigEndian.PutUint64(s[:], seq)
	h.Write(s[:])
	// FNV alone avalanches trailing bytes poorly (sequential seq values
	// barely move the high bits); finish with a splitmix64-style mix.
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}
