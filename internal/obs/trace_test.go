package obs

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTracerAndSpanAreNoOps(t *testing.T) {
	var tr *Tracer
	sp := tr.StartSpan("example.com.")
	if sp != nil {
		t.Fatal("nil tracer must return a nil span")
	}
	sp.Emit(TraceEvent{Stage: "query", Event: "attempt"})
	sp.Emit(TraceEvent{Stage: "resolve", Event: "delegation"})
	sp.End("ok")
	if tr.Events() != 0 {
		t.Fatal("nil tracer counted events")
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("nil tracer Close: %v", err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		sp.Emit(TraceEvent{Stage: "query", Event: "attempt"})
	})
	if allocs != 0 {
		t.Fatalf("disabled span allocated %.1f per emit, want 0", allocs)
	}
}

func TestSpanEmitsZoneAndTimestamps(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf, "")
	sp := tr.StartSpan("island.example.")
	sp.Emit(TraceEvent{Stage: "resolve", Event: "delegation", Name: "island.example.", Detail: "2 NS"})
	time.Sleep(time.Millisecond)
	sp.Emit(TraceEvent{Stage: "query", Event: "attempt", Server: "192.0.2.1:53", Qtype: "SOA", Attempt: 1})
	sp.End("ok")
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	evs, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	for _, ev := range evs {
		if ev.Zone != "island.example." {
			t.Fatalf("event zone = %q, want island.example.", ev.Zone)
		}
	}
	if evs[1].TUS <= evs[0].TUS {
		t.Fatalf("timestamps not increasing: %d then %d", evs[0].TUS, evs[1].TUS)
	}
	if evs[2].Stage != "scan" || evs[2].Event != "end" || evs[2].Outcome != "ok" {
		t.Fatalf("end event = %+v", evs[2])
	}
	if got := tr.Events(); got != 3 {
		t.Fatalf("Events() = %d, want 3", got)
	}
}

func TestTracerZoneFilter(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf, "keep.example.")
	tr.StartSpan("keep.example.").Emit(TraceEvent{Stage: "query", Event: "attempt"})
	tr.StartSpan("drop.example.").Emit(TraceEvent{Stage: "query", Event: "attempt"})
	tr.StartSpan("keep.example.").End("ok")
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	evs, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if len(evs) != 2 {
		t.Fatalf("filter kept %d events, want 2:\n%s", len(evs), buf.String())
	}
	for _, ev := range evs {
		if ev.Zone != "keep.example." {
			t.Fatalf("filter leaked zone %q", ev.Zone)
		}
	}
}

func TestWithSpanRoundTrip(t *testing.T) {
	ctx := context.Background()
	if SpanFrom(ctx) != nil {
		t.Fatal("empty context must carry no span")
	}
	if got := WithSpan(ctx, nil); got != ctx {
		t.Fatal("attaching a nil span must return ctx unchanged")
	}
	tr := NewTracer(&bytes.Buffer{}, "")
	sp := tr.StartSpan("example.com.")
	if got := SpanFrom(WithSpan(ctx, sp)); got != sp {
		t.Fatal("span did not round-trip through context")
	}
}

func TestReadTraceRejectsMalformedLines(t *testing.T) {
	_, err := ReadTrace(strings.NewReader(`{"zone":"a.","stage":"query","event":"attempt"}` + "\nnot-json\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("want line-2 parse error, got %v", err)
	}
	_, err = ReadTrace(strings.NewReader(`{"stage":"query","event":"attempt"}` + "\n"))
	if err == nil || !strings.Contains(err.Error(), "missing zone") {
		t.Fatalf("want missing-zone error, got %v", err)
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
