package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dnssecboot/internal/dnswire"
	"dnssecboot/internal/obs"
	"dnssecboot/internal/server"
	"dnssecboot/internal/transport"
	"dnssecboot/internal/zone"
)

// serve: the authoritative serving path over real sockets. One
// Ed25519-signed zone behind server.CachedHandler on a loopback
// server.Listener, and p closed-loop UDP clients (one connection each,
// the next query sent when the reply arrives) in the same process, so
// clients and server share the cores and loopback is not a real link.
// Names are zipf(1.1), 70 % A, 20 % AAAA, 5 % DNSKEY, 5 % NXDOMAIN,
// half with DO set: two response sizes, a hot set the response cache
// holds and a tail that reaches the zone.

type serveParams struct {
	names     int
	repLength time.Duration
}

func serveParamsFor(r *run) serveParams {
	if r.quick {
		return serveParams{names: 500, repLength: 300 * time.Millisecond}
	}
	return serveParams{names: 8000, repLength: 2 * time.Second}
}

const (
	serveOrigin    = "bench.example."
	serveCacheSize = 4096
	replyTimeout   = time.Second
	// Every unpackEvery-th reply is fully unpacked and checked.
	unpackEvery = 64
	planLength  = 1 << 16
)

// serveTrace is the server side of a traced serve run. Client k's open
// span is published in cur[k]; its DNS IDs are k modulo p, which is how
// a handler span finds its parent and its buffer. A client has one
// query in flight, so a shard's lock is uncontended.
type serveTrace struct {
	on     atomic.Bool
	p      int
	cur    []atomic.Uint64
	shards []*serveShard
}

type serveShard struct {
	mu  sync.Mutex
	buf *spanBuf
}

// timedHandler times a transport.Handler while the trace is on.
type timedHandler struct {
	name  string
	inner transport.Handler
	st    *serveTrace
}

func (h *timedHandler) HandleDNS(ctx context.Context, local netip.Addr, q *dnswire.Message) (*dnswire.Message, error) {
	if !h.st.on.Load() {
		return h.inner.HandleDNS(ctx, local, q)
	}
	k := int(q.ID) % h.st.p
	sh := h.st.shards[k]
	_, parent := spanFrom(ctx)
	if parent == 0 {
		parent = h.st.cur[k].Load()
	}
	sh.mu.Lock()
	id := sh.buf.begin(h.name, parent, "")
	sh.mu.Unlock()
	resp, err := h.inner.HandleDNS(withSpan(ctx, sh.buf, id), local, q)
	sh.mu.Lock()
	sh.buf.end(id)
	sh.mu.Unlock()
	return resp, err
}

// serveEnv is a running server and what its set-up measured.
type serveEnv struct {
	listener *server.Listener
	addr     *net.UDPAddr
	now      time.Time
	signS    float64
	reg      *obs.Registry
	st       *serveTrace
}

// startServer builds and signs the zone and starts the listener.
func startServer(r *run, p serveParams) (*serveEnv, error) {
	env := &serveEnv{now: time.Now()}
	z := zone.New(serveOrigin)
	z.SetBasics("ns1."+serveOrigin, []string{"ns1." + serveOrigin, "ns2." + serveOrigin}, 1)
	for i := 0; i < p.names; i++ {
		name := hostName(i)
		z.MustAdd(dnswire.RR{Name: name, Class: dnswire.ClassIN, TTL: 300,
			Data: &dnswire.A{Addr: netip.AddrFrom4([4]byte{192, 0, byte(i >> 8), byte(i)})}})
		z.MustAdd(dnswire.RR{Name: name, Class: dnswire.ClassIN, TTL: 300,
			Data: &dnswire.AAAA{Addr: netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 14: byte(i >> 8), 15: byte(i)})}})
	}
	cfg := zone.SignConfig{Algorithm: dnswire.AlgEd25519, Now: env.now}
	if err := z.GenerateKeys(cfg, rand.New(rand.NewSource(r.seed))); err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := z.Sign(cfg); err != nil {
		return nil, err
	}
	env.signS = time.Since(t0).Seconds()

	srv := server.New(r.seed)
	srv.AddZone(z)
	var inner transport.Handler = srv
	var lcfg server.Config
	if r.trace {
		env.reg = obs.NewRegistry()
		lcfg.Metrics = env.reg
		env.st = &serveTrace{p: r.p, cur: make([]atomic.Uint64, r.p)}
		for k := 0; k < r.p; k++ {
			env.st.shards = append(env.st.shards, &serveShard{buf: r.tr.buf()})
		}
		inner = &timedHandler{name: "server.handle", inner: srv, st: env.st}
	}
	var handler transport.Handler = &server.CachedHandler{Inner: inner, Cache: server.NewCache(serveCacheSize, env.reg)}
	if r.trace {
		handler = &timedHandler{name: "server.cached_handle", inner: handler, st: env.st}
	}
	l, err := server.ListenConfig("127.0.0.1:0", handler, lcfg)
	if err != nil {
		return nil, err
	}
	env.listener = l
	env.addr = net.UDPAddrFromAddrPort(l.Addr())
	return env, nil
}

func hostName(i int) string { return "host" + strconv.Itoa(i) + "." + serveOrigin }

// query is one pre-packed question and what its reply must look like.
type query struct {
	wire    []byte
	rcode   byte
	answers bool // ANCOUNT must be positive (else zero)
	do      bool // DO set: the reply must carry RRSIGs (else none)
}

// client is one closed-loop connection with its own query table, so
// that patching the ID into a packed query touches no shared memory.
type client struct {
	k       int
	conn    *net.UDPConn
	queries []query
	plan    []uint32 // the order queries are sent in, cycled
	next    int
	seq     uint32
	buf     *spanBuf // nil unless traced
}

func newClient(r *run, p serveParams, k int, addr *net.UDPAddr) (*client, error) {
	conn, err := net.DialUDP("udp", nil, addr)
	if err != nil {
		return nil, err
	}
	c := &client{k: k, conn: conn, plan: make([]uint32, planLength)}
	rng := rand.New(rand.NewSource(r.seed<<8 + int64(k)))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(p.names-1))
	type key struct {
		name int
		kind int
		do   bool
	}
	index := map[key]uint32{}
	for i := range c.plan {
		ky := key{name: int(zipf.Uint64()), do: rng.Intn(2) == 0}
		switch u := rng.Float64(); {
		case u < 0.70:
			ky.kind = 0
		case u < 0.90:
			ky.kind = 1
		case u < 0.95:
			ky.kind, ky.name = 2, 0
		default:
			ky.kind = 3
		}
		qi, ok := index[ky]
		if !ok {
			q := query{answers: true, do: ky.do}
			name, typ := hostName(ky.name), dnswire.TypeA
			switch ky.kind {
			case 1:
				typ = dnswire.TypeAAAA
			case 2:
				name, typ = serveOrigin, dnswire.TypeDNSKEY
			case 3:
				name = "nx" + name
				q.rcode, q.answers = byte(dnswire.RcodeNXDomain), false
			}
			m := dnswire.NewQuery(0, name, typ)
			if ky.do {
				m.SetEDNS(dnswire.EDNS{UDPSize: 1232, DO: true})
			}
			if q.wire, err = m.Pack(); err != nil {
				conn.Close()
				return nil, err
			}
			qi = uint32(len(c.queries))
			index[ky] = qi
			c.queries = append(c.queries, q)
		}
		c.plan[i] = qi
	}
	return c, nil
}

// clientRep is what one client measured in one repetition.
type clientRep struct {
	sent, ok, timeouts, bad int64
	latUS                   []float64
	captured                [][]byte
}

// loop sends queries until the deadline, checking every reply.
func (c *client) loop(deadline time.Time, p int, st *serveTrace, capture bool) (clientRep, error) {
	var rep clientRep
	rep.latUS = make([]float64, 0, 1<<17)
	in := make([]byte, 65535)
	idSpace := uint32(65536 / p)
	for {
		t0 := time.Now()
		if !t0.Before(deadline) {
			return rep, nil
		}
		q := &c.queries[c.plan[c.next]]
		c.next = (c.next + 1) % len(c.plan)
		id := uint16(c.seq%idSpace*uint32(p) + uint32(c.k))
		c.seq++
		binary.BigEndian.PutUint16(q.wire, id)
		span := c.buf.begin("client.query", 0, "")
		if c.buf != nil {
			st.cur[c.k].Store(span)
		}
		if _, err := c.conn.Write(q.wire); err != nil {
			return rep, err
		}
		rep.sent++
		if err := c.conn.SetReadDeadline(t0.Add(replyTimeout)); err != nil {
			return rep, err
		}
		n, err := c.conn.Read(in)
		for err == nil && n >= 2 && binary.BigEndian.Uint16(in) != id {
			n, err = c.conn.Read(in) // the late reply to a query that timed out
		}
		c.buf.end(span)
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				rep.timeouts++
				continue
			}
			return rep, err
		}
		rep.latUS = append(rep.latUS, float64(time.Since(t0).Nanoseconds())/1e3)
		if !replyOK(in[:n], id, q, rep.sent%unpackEvery == 0) {
			rep.bad++
			continue
		}
		rep.ok++
		if capture && len(rep.captured) < captureMax {
			rep.captured = append(rep.captured, append([]byte(nil), in[:n]...))
		}
	}
}

// replyOK checks a reply's header against the query and, when full is
// set, unpacks it and checks that signatures are present iff DO was.
func replyOK(msg []byte, id uint16, q *query, full bool) bool {
	if len(msg) < 12 || binary.BigEndian.Uint16(msg) != id || msg[2]&0x80 == 0 {
		return false
	}
	if msg[3]&0x0f != q.rcode || (binary.BigEndian.Uint16(msg[6:]) > 0) != q.answers {
		return false
	}
	if !full {
		return true
	}
	m, err := dnswire.Unpack(msg)
	if err != nil {
		return false
	}
	signed := false
	for _, sec := range [][]dnswire.RR{m.Answer, m.Authority} {
		for _, rr := range sec {
			signed = signed || rr.Type() == dnswire.TypeRRSIG
		}
	}
	return signed == q.do
}

// serveRep is one repetition over all clients.
type serveRep struct {
	clientRep
	wall, cpu time.Duration
}

func serveOnce(clients []*client, length time.Duration, st *serveTrace, capture bool) (serveRep, error) {
	reps := make([]clientRep, len(clients))
	errs := make([]error, len(clients))
	runtime.GC()
	cpu0, t0 := cpuTime(), time.Now()
	deadline := t0.Add(length)
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			reps[i], errs[i] = c.loop(deadline, len(clients), st, capture)
		}(i, c)
	}
	wg.Wait()
	total := serveRep{wall: time.Since(t0), cpu: cpuTime() - cpu0}
	for i, rep := range reps {
		if errs[i] != nil {
			return total, errs[i]
		}
		total.sent += rep.sent
		total.ok += rep.ok
		total.timeouts += rep.timeouts
		total.bad += rep.bad
		total.latUS = append(total.latUS, rep.latUS...)
		total.captured = append(total.captured, rep.captured...)
	}
	if total.ok == 0 {
		return total, fmt.Errorf("verification failed: no query of %d got a correct reply", total.sent)
	}
	return total, nil
}

func runServe(r *run) error {
	p := serveParamsFor(r)
	// Set-up builds, signs and serves the zone: three times as samples
	// of setup_s, once as a span in the traced run.
	var env *serveEnv
	start := func() error {
		if env != nil {
			if err := env.listener.Close(); err != nil {
				return err
			}
		}
		var err error
		env, err = startServer(r, p)
		return err
	}
	if r.trace {
		id := r.tr.main().begin("server.setup", 0, "")
		err := start()
		r.tr.main().end(id)
		if err != nil {
			return err
		}
	} else {
		for i := 0; i < 3; i++ {
			if err := r.setup(start); err != nil {
				return err
			}
		}
	}
	defer env.listener.Close()
	clients := make([]*client, r.p)
	for k := range clients {
		c, err := newClient(r, p, k, env.addr)
		if err != nil {
			return err
		}
		defer c.conn.Close()
		clients[k] = c
	}
	if r.trace {
		return runServeTraced(r, p, env, clients)
	}

	err := r.repeat(func(timed bool) error {
		rep, err := serveOnce(clients, p.repLength, nil, false)
		if err != nil || !timed {
			return err
		}
		r.attempted += rep.sent
		r.failed += rep.sent - rep.ok
		r.add("ops_per_s", float64(rep.ok)/rep.wall.Seconds())
		r.add("cpu_us_per_op", float64(rep.cpu.Microseconds())/float64(rep.ok))
		r.add("queries_per_op", float64(rep.sent)/float64(rep.ok))
		return nil
	})
	if err != nil {
		return err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.add("peak_rss_mb", rss)
	return nil
}

// runServeTraced measures one repetition with the handler wrappers
// passing through and one with every client query and handler call
// recorded as a span.
func runServeTraced(r *run, p serveParams, env *serveEnv, clients []*client) error {
	if _, err := serveOnce(clients, p.repLength, nil, false); err != nil { // warm-up
		return err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	gc0 := gcCPUSeconds()
	plain, err := serveOnce(clients, p.repLength, nil, false)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	r.add("runtime.allocs_per_op", float64(after.Mallocs-before.Mallocs)/float64(plain.ok))
	r.add("runtime.alloc_kb_per_op", float64(after.TotalAlloc-before.TotalAlloc)/1024/float64(plain.ok))
	r.add("runtime.gc_cpu_share", (gcCPUSeconds()-gc0)/plain.cpu.Seconds())
	r.add("client.p50_us", percentile(plain.latUS, 0.50))
	r.add("client.p99_us", percentile(plain.latUS, 0.99))
	r.add("client.samples", float64(len(plain.latUS)))

	for _, c := range clients {
		c.buf = r.tr.buf()
	}
	env.st.on.Store(true)
	traced, err := serveOnce(clients, p.repLength, env.st, true)
	env.st.on.Store(false)
	if err != nil {
		return err
	}
	r.attempted = plain.sent + traced.sent
	r.failed = r.attempted - plain.ok - traced.ok

	st := r.tr.stats()
	outer, inner := st.durs["server.cached_handle"], st.durs["server.handle"]
	r.add("zone.sign_s", env.signS)
	r.add("server.query_count", float64(len(outer)))
	r.add("server.handle_count", float64(len(inner)))
	if len(outer) > 0 {
		r.add("server.cache_hit_share", 1-float64(len(inner))/float64(len(outer)))
	}
	r.add("server.handle_us_p50", median(inner)*1e6)
	r.add("server.handle_busy_s", st.busy["server.handle"])
	r.add("server.cached_handle_busy_s", st.busy["server.cached_handle"])
	handlerShare := st.busy["server.cached_handle"] / traced.cpu.Seconds()
	r.add("server.handler_share", handlerShare)
	r.add("server.socket_share", 1-handlerShare)
	r.add("server.udp_dropped", float64(env.reg.Counter("server.udp.dropped").Value()))
	r.add("client.timeouts", float64(plain.timeouts+traced.timeouts))
	perOp := func(rep serveRep) float64 { return rep.wall.Seconds() / float64(rep.ok) }
	r.add("trace.overhead_share", perOp(traced)/perOp(plain)-1)

	unitCosts(r, traced.captured, env.now)
	return nil
}
