package server

import (
	"context"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dnssecboot/internal/dnswire"
	"dnssecboot/internal/obs"
	"dnssecboot/internal/transport"
)

// slowHandler answers every query with a fixed A record after blocking
// on release (or after a fixed delay when release is nil). finished is
// incremented only after the response has been produced.
type slowHandler struct {
	release  chan struct{}
	delay    time.Duration
	started  atomic.Int64
	finished atomic.Int64
}

func (h *slowHandler) HandleDNS(_ context.Context, _ netip.Addr, q *dnswire.Message) (*dnswire.Message, error) {
	h.started.Add(1)
	if h.release != nil {
		<-h.release
	} else if h.delay > 0 {
		time.Sleep(h.delay)
	}
	m := reply(q, dnswire.RcodeNoError)
	m.Authoritative = true
	m.Answer = append(m.Answer, dnswire.RR{
		Name: q.Question[0].Name, Class: dnswire.ClassIN, TTL: 60,
		Data: &dnswire.A{Addr: netip.MustParseAddr("192.0.2.1")},
	})
	h.finished.Add(1)
	return m, nil
}

func sendUDPQuery(t *testing.T, addr netip.AddrPort, name string) net.Conn {
	t.Helper()
	conn, err := net.Dial("udp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	q := dnswire.NewQuery(7, name, dnswire.TypeA)
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	return conn
}

// Close must not return while a UDP handler is still in flight, and the
// drained handler's response must still reach the client (the socket
// stays open until every worker is done). Pre-fix, per-packet handler
// goroutines were untracked: Close returned immediately and the
// handler wrote to a closed PacketConn.
func TestCloseWaitsForInflightUDP(t *testing.T) {
	h := &slowHandler{release: make(chan struct{})}
	l, err := ListenConfig("127.0.0.1:0", h, Config{UDPWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	conn := sendUDPQuery(t, l.Addr(), "slow.example.")
	defer conn.Close()

	// Wait until the handler is actually in flight.
	for i := 0; h.started.Load() == 0; i++ {
		if i > 400 {
			t.Fatal("handler never started")
		}
		time.Sleep(5 * time.Millisecond)
	}

	closeDone := make(chan struct{})
	go func() {
		if err := l.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
		close(closeDone)
	}()
	select {
	case <-closeDone:
		t.Fatal("Close returned while a UDP handler was still in flight")
	case <-time.After(100 * time.Millisecond):
	}

	close(h.release)
	select {
	case <-closeDone:
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not return after the handler finished")
	}
	if h.finished.Load() != 1 {
		t.Fatalf("finished = %d, want 1", h.finished.Load())
	}
	// The in-flight query's response must have been written before the
	// socket closed.
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 4096)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatalf("no response for the drained query: %v", err)
	}
	resp, err := dnswire.Unpack(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != 7 || len(resp.Answer) != 1 {
		t.Errorf("drained response: id %d, %d answers", resp.ID, len(resp.Answer))
	}
}

// Same contract over TCP: a request already read off the wire is
// answered before Close returns, even though the drain aborts idle
// reads immediately.
func TestCloseWaitsForInflightTCP(t *testing.T) {
	h := &slowHandler{release: make(chan struct{})}
	l, err := ListenConfig("127.0.0.1:0", h, Config{UDPWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	q := dnswire.NewQuery(9, "slow.example.", dnswire.TypeA)
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	if err := transport.WriteTCPMessage(conn, wire); err != nil {
		t.Fatal(err)
	}
	for i := 0; h.started.Load() == 0; i++ {
		if i > 400 {
			t.Fatal("handler never started")
		}
		time.Sleep(5 * time.Millisecond)
	}

	closeDone := make(chan struct{})
	go func() {
		_ = l.Close()
		close(closeDone)
	}()
	select {
	case <-closeDone:
		t.Fatal("Close returned while a TCP handler was still in flight")
	case <-time.After(100 * time.Millisecond):
	}
	close(h.release)
	select {
	case <-closeDone:
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not return after the handler finished")
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	respWire, err := transport.ReadTCPMessage(conn)
	if err != nil {
		t.Fatalf("no response for the drained TCP query: %v", err)
	}
	resp, err := dnswire.Unpack(respWire)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != 9 || len(resp.Answer) != 1 {
		t.Errorf("drained response: id %d, %d answers", resp.ID, len(resp.Answer))
	}
}

// Hammering the accept path while Close runs must not panic or race:
// pre-fix, serveTCP called wg.Add(1) for each accepted connection with
// no closed-flag guard, racing the wg.Wait already running in Close.
func TestCloseWhileAccepting(t *testing.T) {
	for round := 0; round < 20; round++ {
		s := New(1)
		s.AddZone(buildZone(t, false))
		l, err := ListenConfig("127.0.0.1:0", s, Config{UDPWorkers: 1})
		if err != nil {
			t.Fatal(err)
		}
		addr := l.Addr().String()
		var dialers sync.WaitGroup
		stop := make(chan struct{})
		for i := 0; i < 4; i++ {
			dialers.Add(1)
			go func() {
				defer dialers.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					c, err := net.DialTimeout("tcp", addr, time.Second)
					if err != nil {
						return
					}
					c.Close()
				}
			}()
		}
		time.Sleep(time.Millisecond)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		close(stop)
		dialers.Wait()
	}
}

// Concurrent UDP load against Close: every query that got a response
// must have been fully handled, and Close must not lose races with the
// worker pool under -race.
func TestCloseWhileServingUDP(t *testing.T) {
	h := &slowHandler{delay: time.Millisecond}
	l, err := ListenConfig("127.0.0.1:0", h, Config{UDPWorkers: 4, UDPBacklog: 64})
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr()
	var senders sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		senders.Add(1)
		go func() {
			defer senders.Done()
			conn, err := net.Dial("udp", addr.String())
			if err != nil {
				return
			}
			defer conn.Close()
			q := dnswire.NewQuery(11, "x.example.", dnswire.TypeA)
			wire, _ := q.Pack()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, _ = conn.Write(wire)
				time.Sleep(100 * time.Microsecond)
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := h.finished.Load(), h.started.Load(); got != want {
		t.Errorf("Close returned with %d of %d started handlers finished", got, want)
	}
	close(stop)
	senders.Wait()
}

// An idle TCP connection must be closed by the server once IdleTimeout
// elapses, so abandoned clients cannot pin handler goroutines forever.
func TestTCPIdleTimeout(t *testing.T) {
	s := New(1)
	s.AddZone(buildZone(t, false))
	l, err := ListenConfig("127.0.0.1:0", s, Config{UDPWorkers: 1, IdleTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Send nothing; the server should hang up on its own.
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("idle connection still open after IdleTimeout")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server never closed the idle connection")
	}
}

// The idle deadline is per-message: a connection that keeps issuing
// queries stays up across many IdleTimeout windows.
func TestTCPIdleTimeoutRearmsPerMessage(t *testing.T) {
	s := New(1)
	s.AddZone(buildZone(t, false))
	l, err := ListenConfig("127.0.0.1:0", s, Config{UDPWorkers: 1, IdleTimeout: 60 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 5; i++ {
		q := dnswire.NewQuery(uint16(i+1), "www.example.com.", dnswire.TypeA)
		wire, err := q.Pack()
		if err != nil {
			t.Fatal(err)
		}
		if err := transport.WriteTCPMessage(conn, wire); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		respWire, err := transport.ReadTCPMessage(conn)
		if err != nil {
			t.Fatalf("query %d read: %v", i, err)
		}
		resp, err := dnswire.Unpack(respWire)
		if err != nil {
			t.Fatal(err)
		}
		if resp.ID != uint16(i+1) {
			t.Fatalf("query %d: response ID %d", i, resp.ID)
		}
		time.Sleep(40 * time.Millisecond) // under the idle limit
	}
}

// Shutdown with an expired context force-closes instead of waiting for
// a stuck handler, and still leaves every goroutine joined.
func TestShutdownDeadlineForcesClose(t *testing.T) {
	h := &slowHandler{release: make(chan struct{})}
	l, err := ListenConfig("127.0.0.1:0", h, Config{UDPWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	conn := sendUDPQuery(t, l.Addr(), "stuck.example.")
	defer conn.Close()
	for i := 0; h.started.Load() == 0; i++ {
		if i > 400 {
			t.Fatal("handler never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	go func() {
		time.Sleep(300 * time.Millisecond)
		close(h.release) // un-stick so the forced drain can join
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := l.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown = %v, want context.DeadlineExceeded", err)
	}
	// Idempotent: a second Close is a no-op.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// The listener's serving metrics move under load.
func TestListenerMetrics(t *testing.T) {
	s := New(1)
	s.AddZone(buildZone(t, false))
	reg := obs.NewRegistry()
	l, err := ListenConfig("127.0.0.1:0", s, Config{UDPWorkers: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	c := &transport.Client{Timeout: 2 * time.Second, Retries: 1}
	for i := 0; i < 5; i++ {
		q := dnswire.NewQuery(0, "www.example.com.", dnswire.TypeA)
		if _, err := c.Exchange(context.Background(), l.Addr(), q); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Counters["server.udp.queries"] < 5 {
		t.Errorf("server.udp.queries = %d, want >= 5", snap.Counters["server.udp.queries"])
	}
	hs, ok := snap.Histograms["server.handle.seconds"]
	if !ok || hs.Count < 5 {
		t.Errorf("server.handle.seconds count = %d, want >= 5", hs.Count)
	}
	if snap.Gauges["server.inflight"] != 0 {
		t.Errorf("server.inflight after drain = %d, want 0", snap.Gauges["server.inflight"])
	}
}
