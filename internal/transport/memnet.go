package transport

import (
	"context"
	"maps"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"

	"dnssecboot/internal/dnswire"
)

// MemNetwork is a simulated internet: handlers are registered on
// individual addresses or whole prefixes (anycast, as Cloudflare
// operates). Every message is packed to wire format and re-parsed on
// delivery, so the full codec path is exercised and traffic volume can
// be accounted (the paper's Appendix D reasons about scan data volume).
// It delivers every query instantly; loss, outages and latency are
// injected by wrapping it in Faults.
type MemNetwork struct {
	// mu guards hosts and prefixes, the routes as registered.
	mu       sync.Mutex
	hosts    map[netip.Addr]Handler
	prefixes []prefixRoute
	// routes is the snapshot of hosts and prefixes that exchanges read
	// without a lock. A registration clears it and the first exchange
	// after one takes a new copy, so a world that registers all its
	// servers before it is scanned copies its routes once.
	routes atomic.Pointer[routeTable]

	queries  atomic.Int64
	bytesOut atomic.Int64 // query bytes
	bytesIn  atomic.Int64 // response bytes
}

// routeTable is one snapshot of the routes; it is never changed.
type routeTable struct {
	hosts    map[netip.Addr]Handler
	prefixes []prefixRoute
}

type prefixRoute struct {
	prefix  netip.Prefix
	handler Handler
}

// NewMemNetwork returns an empty network.
func NewMemNetwork() *MemNetwork {
	return &MemNetwork{hosts: make(map[netip.Addr]Handler)}
}

// Register binds handler to a single IP address.
func (n *MemNetwork) Register(addr netip.Addr, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.hosts[addr] = h
	n.routes.Store(nil)
}

// RegisterPrefix binds handler to every address within prefix; used to
// model anycast pools where "almost any IP address originated by them
// will respond to DNS queries" (paper §3 on Cloudflare).
func (n *MemNetwork) RegisterPrefix(p netip.Prefix, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.prefixes = append(n.prefixes, prefixRoute{prefix: p, handler: h})
	n.routes.Store(nil)
}

// table returns the current routes snapshot, copying the routes first
// if a registration cleared it.
func (n *MemNetwork) table() *routeTable {
	if rt := n.routes.Load(); rt != nil {
		return rt
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	rt := n.routes.Load()
	if rt == nil {
		rt = &routeTable{hosts: maps.Clone(n.hosts), prefixes: slices.Clone(n.prefixes)}
		n.routes.Store(rt)
	}
	return rt
}

// Route returns the handler bound to addr: the one registered for it,
// else the first prefix registered that contains it.
func (n *MemNetwork) Route(addr netip.Addr) (Handler, bool) {
	rt := n.table()
	if h, ok := rt.hosts[addr]; ok {
		return h, true
	}
	for _, pr := range rt.prefixes {
		if pr.prefix.Contains(addr) {
			return pr.handler, true
		}
	}
	return nil, false
}

// memScratch is the per-exchange reusable state: the packed query and
// response wire buffers, the server-side parsed query message and the
// reply a ReplyHandler answers into. All of it stays inside one
// Exchange call — the parsed query is handed to the handler (handlers
// do not retain it), the reply, which may alias the query's question
// and the handler's records, is packed to wire before the scratch is
// pooled again, and the returned response is a fresh Unpack that copies
// every byte it keeps.
type memScratch struct {
	wire     []byte
	respWire []byte
	parsed   dnswire.Message
	reply    dnswire.Message
}

var memScratchPool = sync.Pool{New: func() any { return new(memScratch) }}

// Exchange implements Exchanger. The query is packed, routed, handled
// and the response packed with the client's advertised UDP size (never
// below 512 octets); a truncated response is transparently retried
// without the size limit, modelling TCP fallback. Both responses count
// towards the bytes received.
func (n *MemNetwork) Exchange(ctx context.Context, server netip.AddrPort, query *dnswire.Message) (*dnswire.Message, error) {
	h, ok := n.Route(server.Addr())
	if !ok {
		return nil, ErrUnreachable
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	s := memScratchPool.Get().(*memScratch)
	defer memScratchPool.Put(s)
	wire, err := query.AppendPack(s.wire[:0])
	if err != nil {
		return nil, err
	}
	s.wire = wire
	n.queries.Add(1)
	n.bytesOut.Add(int64(len(wire)))

	if err := s.parsed.UnpackFrom(wire); err != nil {
		return nil, err
	}
	var resp *dnswire.Message
	if rh, ok := h.(ReplyHandler); ok {
		answered, err := rh.HandleDNSInto(ctx, server.Addr(), &s.parsed, &s.reply)
		if err != nil {
			return nil, err
		}
		if answered {
			resp = &s.reply
		}
	} else if resp, err = h.HandleDNS(ctx, server.Addr(), &s.parsed); err != nil {
		return nil, err
	}
	if resp == nil {
		return nil, ErrTimeout // server silently dropped the query
	}

	respWire, err := resp.AppendPackTruncating(s.respWire[:0], query.UDPLimit())
	if err != nil {
		return nil, err
	}
	s.respWire = respWire
	n.bytesIn.Add(int64(len(respWire)))
	out, err := dnswire.Unpack(respWire)
	if err != nil {
		return nil, err
	}
	if out.Truncated {
		// TCP retry: no size limit, second round trip.
		n.queries.Add(1)
		n.bytesOut.Add(int64(len(wire)))
		respWire, err = resp.AppendPack(s.respWire[:0])
		if err != nil {
			return nil, err
		}
		s.respWire = respWire
		n.bytesIn.Add(int64(len(respWire)))
		out, err = dnswire.Unpack(respWire)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Stats reports traffic counters since creation.
func (n *MemNetwork) Stats() (queries, bytesOut, bytesIn int64) {
	return n.queries.Load(), n.bytesOut.Load(), n.bytesIn.Load()
}

// ResetStats zeroes the traffic counters.
func (n *MemNetwork) ResetStats() {
	n.queries.Store(0)
	n.bytesOut.Store(0)
	n.bytesIn.Store(0)
}
