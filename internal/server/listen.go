package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"time"

	"dnssecboot/internal/dnswire"
	"dnssecboot/internal/obs"
	"dnssecboot/internal/transport"
	"dnssecboot/internal/zone"
)

// Config tunes a Listener. The zero value picks serving defaults.
type Config struct {
	// UDPWorkers is the number of goroutines handling UDP queries. The
	// reader fans packets out to this fixed pool instead of spawning a
	// goroutine per packet, so a query flood cannot exhaust the
	// scheduler. Defaults to 4×GOMAXPROCS.
	UDPWorkers int
	// UDPBacklog is the depth of the packet queue between the reader
	// and the workers. When it is full further packets are dropped
	// (clients retry; UDP is lossy by contract). Defaults to 1024.
	UDPBacklog int
	// IdleTimeout bounds how long a TCP connection may sit between
	// messages before the server closes it, so abandoned clients cannot
	// pin handler goroutines forever. Defaults to 2 minutes.
	IdleTimeout time.Duration
	// Metrics optionally receives serving instruments (queries, drops,
	// handle latency, in-flight gauge). Nil disables instrumentation at
	// zero cost.
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.UDPWorkers <= 0 {
		c.UDPWorkers = 4 * runtime.GOMAXPROCS(0)
	}
	if c.UDPBacklog <= 0 {
		c.UDPBacklog = 1024
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 2 * time.Minute
	}
	return c
}

// udpPacket is one received datagram handed from the reader to a
// worker. buf is pooled storage owned by the receiver until it is
// returned to the pool.
type udpPacket struct {
	buf   []byte
	n     int
	raddr net.Addr
}

// Listener serves a transport.Handler on real UDP and TCP sockets. TCP
// connections additionally support AXFR (RFC 5936) for zones held by a
// *Server handler, mirroring how the paper obtained ccTLD zone files.
//
// UDP queries are handled by a bounded worker pool; TCP connections get
// one goroutine each with an idle read deadline. Close / Shutdown stop
// intake first (sockets stay open), let every queued and in-flight
// query finish and write its response, and only then release the
// sockets.
type Listener struct {
	handler transport.Handler
	cfg     Config

	pc    net.PacketConn
	tcp   net.Listener
	local netip.Addr

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}

	queue chan udpPacket
	bufs  sync.Pool

	// wg tracks every serving goroutine: the UDP reader, each UDP
	// worker, the TCP accept loop and each TCP connection handler.
	// Handlers are only added under mu with the closed flag false, and
	// the accept loop itself is counted, so Add can never race a Wait
	// that has already observed zero.
	wg sync.WaitGroup

	udpQueries *obs.Counter
	udpDropped *obs.Counter
	tcpQueries *obs.Counter
	tcpConns   *obs.Counter
	handleSec  *obs.Histogram
	inflight   *obs.Gauge
}

// listenPair binds UDP and TCP listeners on the same address and port.
// When addr requests an ephemeral port, the kernel assigns the UDP port
// first and the matching TCP bind can collide with an unrelated socket
// already holding that port — in that case retry with a fresh ephemeral
// pick instead of failing.
func listenPair(addr string) (net.PacketConn, net.Listener, error) {
	const attempts = 8
	var err error
	for i := 0; i < attempts; i++ {
		var pc net.PacketConn
		pc, err = net.ListenPacket("udp", addr)
		if err != nil {
			return nil, nil, err
		}
		var tl net.Listener
		tl, err = net.Listen("tcp", pc.LocalAddr().String())
		if err == nil {
			return pc, tl, nil
		}
		pc.Close()
		if _, port, perr := net.SplitHostPort(addr); perr != nil || port != "0" {
			break
		}
	}
	return nil, nil, err
}

// Listen starts UDP and TCP listeners on addr (e.g. "127.0.0.1:0") with
// default Config and begins serving h.
func Listen(addr string, h transport.Handler) (*Listener, error) {
	return ListenConfig(addr, h, Config{})
}

// ListenConfig starts UDP and TCP listeners on addr and begins serving
// h with the given tuning. The returned Listener reports its bound
// address via Addr.
func ListenConfig(addr string, h transport.Handler, cfg Config) (*Listener, error) {
	cfg = cfg.withDefaults()
	pc, tl, err := listenPair(addr)
	if err != nil {
		return nil, err
	}
	l := &Listener{
		handler: h,
		cfg:     cfg,
		pc:      pc,
		tcp:     tl,
		conns:   make(map[net.Conn]struct{}),
		queue:   make(chan udpPacket, cfg.UDPBacklog),
	}
	l.bufs.New = func() any { return make([]byte, 65535) }
	ap, _ := netip.ParseAddrPort(pc.LocalAddr().String())
	l.local = ap.Addr()
	reg := cfg.Metrics
	l.udpQueries = reg.Counter("server.udp.queries")
	l.udpDropped = reg.Counter("server.udp.dropped")
	l.tcpQueries = reg.Counter("server.tcp.queries")
	l.tcpConns = reg.Counter("server.tcp.conns")
	l.handleSec = reg.Histogram("server.handle.seconds", obs.DefLatencyBuckets)
	l.inflight = reg.Gauge("server.inflight")

	l.wg.Add(2 + cfg.UDPWorkers)
	go l.readUDP()
	for i := 0; i < cfg.UDPWorkers; i++ {
		go l.udpWorker()
	}
	go l.serveTCP()
	return l, nil
}

// Addr returns the bound UDP address (the TCP listener shares it).
func (l *Listener) Addr() netip.AddrPort {
	ap, _ := netip.ParseAddrPort(l.pc.LocalAddr().String())
	return ap
}

// aLongTimeAgo is a deadline in the distant past: setting it fails any
// blocked or future read immediately without closing the socket.
var aLongTimeAgo = time.Unix(1, 0)

// Close gracefully stops the listener: intake stops, every queued and
// in-flight query is answered, then the sockets are released. It is
// Shutdown without a deadline.
func (l *Listener) Close() error {
	return l.Shutdown(context.Background())
}

// Shutdown drains the listener: it stops accepting new work (UDP reads,
// TCP accepts, further messages on open connections), waits for queued
// and in-flight queries to be answered, then closes the sockets. If ctx
// expires first the sockets are torn down immediately and Shutdown
// returns the context error after the handlers unwind.
func (l *Listener) Shutdown(ctx context.Context) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	conns := make([]net.Conn, 0, len(l.conns))
	for c := range l.conns {
		conns = append(conns, c)
	}
	l.mu.Unlock()

	// Stop intake without closing the UDP socket: responses for queued
	// packets still have to be written through it.
	_ = l.pc.SetReadDeadline(aLongTimeAgo)
	_ = l.tcp.Close()
	for _, c := range conns {
		_ = c.SetReadDeadline(aLongTimeAgo)
	}

	done := make(chan struct{})
	go func() {
		l.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		// Hard stop: yank the sockets out from under the handlers.
		_ = l.pc.Close()
		for _, c := range conns {
			_ = c.Close()
		}
		<-done
	}
	_ = l.pc.Close()
	return err
}

// readUDP is the single socket reader: it moves datagrams into the
// bounded worker queue and drops on overflow.
func (l *Listener) readUDP() {
	defer l.wg.Done()
	defer close(l.queue) // workers drain what is queued, then exit
	for {
		buf := l.bufs.Get().([]byte)
		n, raddr, err := l.pc.ReadFrom(buf)
		if err != nil {
			l.bufs.Put(buf)
			return
		}
		l.udpQueries.Inc()
		select {
		//lint:allow poollife buffer ownership transfers to the worker, which Puts it after handling the packet
		case l.queue <- udpPacket{buf: buf, n: n, raddr: raddr}:
		default:
			l.udpDropped.Inc()
			l.bufs.Put(buf)
		}
	}
}

// udpScratch is a worker's reusable parse/pack state: queries parse
// into the same Message and responses pack into the same buffer, so a
// steady-state worker allocates only what the handler itself builds.
// Handlers must not retain the query past the call (the cache keys copy
// what they store; responses aliasing the question section are packed
// to wire here before the scratch is reused).
type udpScratch struct {
	q    dnswire.Message
	resp []byte
}

func (l *Listener) udpWorker() {
	defer l.wg.Done()
	var s udpScratch
	for pkt := range l.queue {
		l.handleUDP(pkt, &s)
	}
}

func (l *Listener) handleUDP(pkt udpPacket, s *udpScratch) {
	defer l.bufs.Put(pkt.buf)
	start := time.Now()
	l.inflight.Add(1)
	defer l.inflight.Add(-1)
	if err := s.q.UnpackFrom(pkt.buf[:pkt.n]); err != nil {
		return
	}
	q := &s.q
	resp, err := l.handler.HandleDNS(context.Background(), l.local, q)
	if err != nil || resp == nil {
		return
	}
	wire, err := resp.AppendPackTruncating(s.resp[:0], q.UDPLimit())
	if err != nil {
		return
	}
	s.resp = wire
	_, _ = l.pc.WriteTo(wire, pkt.raddr)
	l.handleSec.ObserveSince(start)
}

func (l *Listener) serveTCP() {
	defer l.wg.Done()
	for {
		conn, err := l.tcp.Accept()
		if err != nil {
			return
		}
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			conn.Close()
			continue // the closed tcp listener errors out the next Accept
		}
		l.conns[conn] = struct{}{}
		l.wg.Add(1)
		l.mu.Unlock()
		l.tcpConns.Inc()
		go l.serveConn(conn)
	}
}

// armIdle sets the idle read deadline for the next message on conn.
// It reports false once shutdown has begun, in which case the deadline
// is already in the past and the handler should stop reading. Taking
// mu orders the idle deadline against Shutdown's aLongTimeAgo write so
// a handler can never re-arm a connection the drain already expired.
func (l *Listener) armIdle(conn net.Conn) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return false
	}
	_ = conn.SetReadDeadline(time.Now().Add(l.cfg.IdleTimeout))
	return true
}

func (l *Listener) serveConn(conn net.Conn) {
	defer func() {
		l.mu.Lock()
		delete(l.conns, conn)
		l.mu.Unlock()
		conn.Close()
		l.wg.Done()
	}()
	var buf, outBuf []byte
	var qm dnswire.Message // connection-local parse target, reused per message
	for {
		if !l.armIdle(conn) {
			return
		}
		wire, err := transport.ReadTCPMessageInto(conn, buf)
		if err != nil {
			return
		}
		buf = wire[:cap(wire)]
		start := time.Now()
		l.inflight.Add(1)
		if err := qm.UnpackFrom(wire); err != nil {
			l.inflight.Add(-1)
			return
		}
		q := &qm
		l.tcpQueries.Inc()
		if len(q.Question) == 1 && q.Question[0].Type == dnswire.TypeAXFR {
			err := l.serveAXFR(conn, q)
			l.inflight.Add(-1)
			if err != nil {
				return
			}
			l.handleSec.ObserveSince(start)
			continue
		}
		resp, err := l.handler.HandleDNS(context.Background(), l.local, q)
		if err != nil || resp == nil {
			l.inflight.Add(-1)
			return
		}
		out, err := resp.AppendPack(outBuf[:0])
		if err != nil {
			l.inflight.Add(-1)
			return
		}
		outBuf = out
		err = transport.WriteTCPMessage(conn, out)
		l.inflight.Add(-1)
		if err != nil {
			return
		}
		l.handleSec.ObserveSince(start)
	}
}

// serveAXFR streams a zone transfer: SOA, all records, SOA again
// (RFC 5936 §2.2), split across messages as needed. Per §2.2.1 the
// question section is copied into the first message only.
func (l *Listener) serveAXFR(conn net.Conn, q *dnswire.Message) error {
	srv, ok := l.handler.(*Server)
	if !ok {
		return writeRcode(conn, q, dnswire.RcodeNotImp)
	}
	z := srv.Zone(q.Question[0].Name)
	if z == nil {
		return writeRcode(conn, q, dnswire.RcodeNotAuth)
	}
	soa := z.SOA()
	if soa == nil {
		return writeRcode(conn, q, dnswire.RcodeServFail)
	}
	records := []dnswire.RR{*soa}
	for _, rr := range z.All() {
		if rr.Type() == dnswire.TypeSOA {
			continue
		}
		records = append(records, rr)
	}
	records = append(records, *soa)

	const chunk = 200
	for i := 0; i < len(records); i += chunk {
		end := i + chunk
		if end > len(records) {
			end = len(records)
		}
		m := &dnswire.Message{
			ID: q.ID, Response: true, Authoritative: true,
			Answer: records[i:end],
		}
		if i == 0 {
			m.Question = q.Question
		}
		wire, err := m.Pack()
		if err != nil {
			return err
		}
		if err := transport.WriteTCPMessage(conn, wire); err != nil {
			return err
		}
	}
	return nil
}

func writeRcode(conn net.Conn, q *dnswire.Message, rc dnswire.Rcode) error {
	m := &dnswire.Message{ID: q.ID, Response: true, Rcode: rc, Question: q.Question}
	wire, err := m.Pack()
	if err != nil {
		return err
	}
	return transport.WriteTCPMessage(conn, wire)
}

// AXFR performs a zone transfer from server, reassembling the streamed
// messages into a Zone. It is the client used to ingest TLD zone files
// (paper §3, sources iii/iv). Every message's ID must echo the query
// ID (RFC 5936 §2.2); a mismatching stream is rejected rather than
// silently ingested.
func AXFR(ctx context.Context, server netip.AddrPort, origin string) (*zone.Zone, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", server.String())
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if dl, ok := ctx.Deadline(); ok {
		_ = conn.SetDeadline(dl)
	}
	q := dnswire.NewQuery(4242, origin, dnswire.TypeAXFR)
	wire, err := q.Pack()
	if err != nil {
		return nil, err
	}
	if err := transport.WriteTCPMessage(conn, wire); err != nil {
		return nil, err
	}
	z := zone.New(origin)
	soaSeen := 0
	for soaSeen < 2 {
		respWire, err := transport.ReadTCPMessage(conn)
		if err != nil {
			return nil, fmt.Errorf("server: AXFR read: %w", err)
		}
		resp, err := dnswire.Unpack(respWire)
		if err != nil {
			return nil, err
		}
		if resp.ID != q.ID {
			return nil, fmt.Errorf("server: AXFR response ID %d != query ID %d", resp.ID, q.ID)
		}
		if resp.Rcode != dnswire.RcodeNoError {
			return nil, fmt.Errorf("server: AXFR refused: %s", resp.Rcode)
		}
		if len(resp.Answer) == 0 {
			return nil, errors.New("server: empty AXFR message")
		}
		for _, rr := range resp.Answer {
			if rr.Type() == dnswire.TypeSOA {
				soaSeen++
				if soaSeen == 2 {
					break
				}
			}
			if err := z.Add(rr); err != nil {
				return nil, err
			}
		}
	}
	return z, nil
}
