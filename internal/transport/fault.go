package transport

import (
	"encoding/binary"
	"hash/fnv"
	"net/netip"
	"sync"
	"time"

	"dnssecboot/internal/dnswire"
)

// FaultProfile describes misbehaviour injected in front of a registered
// handler. Profiles are evaluated deterministically: every decision is
// derived from the network's chaos seed, the server address, the query
// tuple (name, type) and a per-tuple sequence number, so a scan with a
// fixed seed sees the identical fault pattern on every run regardless
// of wall-clock timing. The zero value injects nothing.
type FaultProfile struct {
	// Loss drops each query attempt with this probability (the client
	// sees ErrTimeout).
	Loss float64
	// ExtraLatency is added to the network's base latency for matching
	// exchanges (both directions combined).
	ExtraLatency time.Duration
	// Down makes the address hard-unreachable (ErrUnreachable).
	Down bool
	// ServFail answers every query with SERVFAIL instead of consulting
	// the handler.
	ServFail bool
	// TruncateAlways truncates every UDP response regardless of size,
	// forcing the TCP fallback round-trip.
	TruncateAlways bool
	// FlakyEveryN makes the server respond only to every Nth repetition
	// of the same query tuple, dropping the rest — the "answers on the
	// second try" behaviour that motivates retry policies. Values < 2
	// disable the mode.
	FlakyEveryN int
}

// active reports whether the profile injects anything at all.
func (p FaultProfile) active() bool {
	return p.Loss > 0 || p.ExtraLatency > 0 || p.Down || p.ServFail || p.TruncateAlways || p.FlakyEveryN > 1
}

// faultState holds the fault configuration and the per-tuple sequence
// counters that make decisions reproducible under concurrency: two
// scans issuing the same queries get the same drops even if goroutine
// interleaving differs, because each (addr, qname, qtype) tuple draws
// from its own deterministic sequence.
type faultState struct {
	mu     sync.Mutex
	seed   int64
	byAddr map[netip.Addr]FaultProfile
	def    *FaultProfile
	seq    map[uint64]uint64
}

// SetChaosSeed sets the seed driving fault decisions. By default the
// network's construction seed is used.
func (n *MemNetwork) SetChaosSeed(seed int64) {
	n.faults.mu.Lock()
	defer n.faults.mu.Unlock()
	n.faults.seed = seed
}

// SetFault attaches a fault profile to a single address. A zero profile
// clears it.
//
//lint:allow unused test seam: resolver and scan tests fault one server with it
func (n *MemNetwork) SetFault(addr netip.Addr, p FaultProfile) {
	n.faults.mu.Lock()
	defer n.faults.mu.Unlock()
	if n.faults.byAddr == nil {
		n.faults.byAddr = make(map[netip.Addr]FaultProfile)
	}
	if p.active() {
		n.faults.byAddr[addr] = p
	} else {
		delete(n.faults.byAddr, addr)
	}
}

// SetDefaultFault applies a profile to every address without a more
// specific one — uniform network weather. A zero profile clears it.
func (n *MemNetwork) SetDefaultFault(p FaultProfile) {
	n.faults.mu.Lock()
	defer n.faults.mu.Unlock()
	if p.active() {
		n.faults.def = &p
	} else {
		n.faults.def = nil
	}
}

func (f *faultState) lookupLocked(addr netip.Addr) FaultProfile {
	if p, ok := f.byAddr[addr]; ok {
		return p
	}
	if f.def != nil {
		return *f.def
	}
	return FaultProfile{}
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

// faultPlan is the resolved set of decisions for one exchange.
type faultPlan struct {
	down         bool
	drop         bool // drop the UDP leg
	dropTCP      bool // drop the TCP fallback leg
	servFail     bool
	truncate     bool
	extraLatency time.Duration
}

// plan resolves the profile for addr and draws this exchange's
// decisions from the deterministic sequence. Counters advance only for
// addresses with an active profile, so fault-free runs pay one mutex
// acquisition and nothing else.
func (f *faultState) plan(addr netip.Addr, q *dnswire.Message) faultPlan {
	f.mu.Lock()
	defer f.mu.Unlock()
	p := f.lookupLocked(addr)
	if !p.active() {
		return faultPlan{}
	}
	if p.Down {
		return faultPlan{down: true}
	}
	key := tupleKey(addr, q)
	if f.seq == nil {
		f.seq = make(map[uint64]uint64)
	}
	seq := f.seq[key]
	f.seq[key] = seq + 1

	plan := faultPlan{
		servFail:     p.ServFail,
		truncate:     p.TruncateAlways,
		extraLatency: p.ExtraLatency,
	}
	if p.FlakyEveryN > 1 && (seq+1)%uint64(p.FlakyEveryN) != 0 {
		plan.drop = true
	}
	if !plan.drop && p.Loss > 0 && roll(f.seed, key, seq, 'u') < p.Loss {
		plan.drop = true
	}
	if p.Loss > 0 && roll(f.seed, key, seq, 't') < p.Loss {
		plan.dropTCP = true
	}
	return plan
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
