package obs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTracerWritesOneLinePerExchange(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	start := time.Now()
	time.Sleep(time.Millisecond)
	tr.Exchange(start, TraceEvent{Zone: "island.example.", Server: "192.0.2.1:53", Name: "island.example.", Qtype: "SOA", Rcode: "NOERROR"})
	tr.Exchange(time.Now(), TraceEvent{Zone: "island.example.", Server: "[2001:db8::1]:53", Name: "a\\\"b\x01.example.", Qtype: "CDS", Err: `transport: timeout "quoted"`})
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	var evs []TraceEvent
	if err := ReadTrace(&buf, func(ev TraceEvent) error {
		evs = append(evs, ev)
		return nil
	}); err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if len(evs) != 2 || tr.Events() != 2 {
		t.Fatalf("got %d events (Events() = %d), want 2", len(evs), tr.Events())
	}
	if evs[0].DurUS < 1000 || evs[1].TUS < evs[0].DurUS {
		t.Errorf("times do not follow the clock: %+v", evs)
	}
	want := TraceEvent{TUS: evs[1].TUS, DurUS: evs[1].DurUS, Zone: "island.example.", Server: "[2001:db8::1]:53",
		Name: "a\\\"b\x01.example.", Qtype: "CDS", Err: `transport: timeout "quoted"`}
	if evs[1] != want {
		t.Errorf("escaped line does not round-trip:\n got %+v\nwant %+v", evs[1], want)
	}
}

func TestReadTraceRejectsMalformedLines(t *testing.T) {
	ok := `{"t_us":1,"zone":"a.","server":"192.0.2.1:53","name":"a.","qtype":"SOA","rcode":"NOERROR","dur_us":2}`
	for _, tc := range []struct{ in, want string }{
		{ok + "\nnot-json\n", "line 2"},
		{`{"server":"192.0.2.1:53","name":"a.","qtype":"SOA","rcode":"NOERROR"}` + "\n", "missing zone"},
		{`{"zone":"a.","server":"192.0.2.1:53","name":"a.","qtype":"SOA"}` + "\n", "rcode or an error"},
	} {
		if err := ReadTrace(strings.NewReader(tc.in), func(TraceEvent) error { return nil }); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ReadTrace(%q) = %v, want an error naming %q", tc.in, err, tc.want)
		}
	}
	stop := errors.New("stop")
	err := ReadTrace(strings.NewReader(ok+"\n"+ok+"\n"), func(TraceEvent) error { return stop })
	if !errors.Is(err, stop) || !strings.Contains(err.Error(), "line 1") {
		t.Errorf("ReadTrace with a failing callback = %v, want %v naming line 1", err, stop)
	}
}

// traceLines is an io.Reader of n trace lines, each made as it is read,
// so the reader itself holds one line.
type traceLines struct {
	n, i    int
	line    []byte
	pending []byte
}

func (g *traceLines) Read(p []byte) (int, error) {
	for len(g.pending) == 0 {
		if g.i == g.n {
			return 0, io.EOF
		}
		g.line = fmt.Appendf(g.line[:0], `{"t_us":%d,"zone":"z%d.example.","server":"192.0.2.1:53","name":"z%d.example.","qtype":"SOA","rcode":"NOERROR","dur_us":3}`+"\n", g.i, g.i%5000, g.i)
		g.pending = g.line
		g.i++
	}
	n := copy(p, g.pending)
	g.pending = g.pending[n:]
	return n, nil
}

// TestReadTraceStreams: reading a long trace keeps the live heap flat.
// A reader that keeps every event grows it by about 210 B per line,
// 42 MB here.
func TestReadTraceStreams(t *testing.T) {
	const lines = 200_000
	liveHeap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var seen int
	var base, end uint64
	err := ReadTrace(&traceLines{n: lines}, func(ev TraceEvent) error {
		seen++
		switch seen {
		case 1000:
			base = liveHeap()
		case lines:
			end = liveHeap()
		}
		return nil
	})
	if err != nil || seen != lines {
		t.Fatalf("read %d of %d lines: %v", seen, lines, err)
	}
	if end > base+512<<10 {
		t.Errorf("live heap grew by %d kB over %d lines", (end-base)>>10, lines-1000)
	}
}

func TestProgressRendersAndStops(t *testing.T) {
	var buf syncBuffer
	p := NewProgress(&buf, 10, 5*time.Millisecond)
	for i := 0; i < 10; i++ {
		p.Done(i%5 == 0)
	}
	time.Sleep(20 * time.Millisecond)
	p.Stop()
	p.Stop() // idempotent
	out := buf.String()
	if !strings.Contains(out, "10/10 zones") {
		t.Fatalf("final progress line missing:\n%s", out)
	}
	if !strings.Contains(out, "err 20.0%") {
		t.Fatalf("error rate missing:\n%s", out)
	}
	var np *Progress
	np.Done(false)
	np.Stop()
}

type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
