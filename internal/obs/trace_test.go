package obs

import (
	"bytes"
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
	evs, err := ReadTrace(&buf)
	if err != nil {
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
		if _, err := ReadTrace(strings.NewReader(tc.in)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ReadTrace(%q) = %v, want an error naming %q", tc.in, err, tc.want)
		}
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
