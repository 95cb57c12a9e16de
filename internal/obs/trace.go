package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// TraceEvent is one JSONL row in the trace stream. Zone and Stage are
// always set; the remaining fields are stage-specific and omitted when
// empty so rows stay compact.
type TraceEvent struct {
	TUS     int64  `json:"t_us"` // microseconds since the span started
	Zone    string `json:"zone"`
	Stage   string `json:"stage"` // resolve | query | validate | classify | scan
	Event   string `json:"event"` // e.g. delegation, attempt, retry, cache_hit, ds_absent, decision
	Server  string `json:"server,omitempty"`
	Name    string `json:"name,omitempty"`
	Qtype   string `json:"qtype,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	Rcode   string `json:"rcode,omitempty"`
	Err     string `json:"err,omitempty"`
	Outcome string `json:"outcome,omitempty"`
	DurUS   int64  `json:"dur_us,omitempty"`
	Detail  string `json:"detail,omitempty"`
	N       int    `json:"n,omitempty"`
}

// Tracer serialises trace events from concurrent spans onto one JSONL
// writer. An optional zone filter restricts output to a single zone's
// decision trace (-trace-zone). A nil *Tracer is a valid no-op, and
// StartSpan on it returns a nil (no-op) span, so instrumented code never
// branches on "is tracing on".
type Tracer struct {
	mu     sync.Mutex
	bw     *bufio.Writer
	filter string // when set, only events for this zone are written
	events int64
}

// NewTracer wraps w in a buffered JSONL trace sink. filterZone of ""
// traces every zone.
func NewTracer(w io.Writer, filterZone string) *Tracer {
	return &Tracer{bw: bufio.NewWriterSize(w, 1<<16), filter: filterZone}
}

// Events reports how many events have been written (post-filter).
func (t *Tracer) Events() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.events
}

// Close flushes buffered events. No-op on a nil tracer.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.bw.Flush()
}

// emit takes the event by value so Span.Emit stays allocation-free on
// the disabled path (a *TraceEvent parameter would force the caller's
// event to the heap even when the span is nil).
func (t *Tracer) emit(ev TraceEvent) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.filter != "" && ev.Zone != t.filter {
		return
	}
	line, err := json.Marshal(ev)
	if err != nil {
		return // an event that cannot marshal is dropped, never fatal
	}
	t.bw.Write(line)
	t.bw.WriteByte('\n')
	t.events++
}

// Span is the per-zone event scope. All events emitted through it carry
// the zone name and a timestamp relative to the span start. Nil spans
// swallow every call, so passing a span through context costs nothing
// when tracing is off.
type Span struct {
	tracer *Tracer
	zone   string
	start  time.Time
}

// StartSpan opens a span for one zone. Returns nil (a no-op span) on a
// nil tracer — callers store and use the result unconditionally.
func (t *Tracer) StartSpan(zone string) *Span {
	if t == nil {
		return nil
	}
	return &Span{tracer: t, zone: zone, start: time.Now()}
}

// Emit records one event on the span, filling in zone and relative
// timestamp. The event's other fields are taken as given. No-op on nil.
func (s *Span) Emit(ev TraceEvent) {
	if s == nil {
		return
	}
	ev.Zone = s.zone
	ev.TUS = time.Since(s.start).Microseconds()
	s.tracer.emit(ev)
}

// End emits the span-closing event carrying the zone's final outcome.
func (s *Span) End(outcome string) {
	if s == nil {
		return
	}
	s.Emit(TraceEvent{Stage: "scan", Event: "end", Outcome: outcome, DurUS: time.Since(s.start).Microseconds()})
}

type spanKey struct{}

// WithSpan attaches a span to the context so resolver internals can
// emit events without new parameters. Attaching nil is fine — SpanFrom
// will just return nil.
func WithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFrom returns the span carried by ctx, or nil.
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// ReadTrace parses a JSONL trace stream, returning every event. Used by
// `reanalyze -trace` to round-trip -trace-out artefacts in CI.
func ReadTrace(r io.Reader) ([]TraceEvent, error) {
	var events []TraceEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var ev TraceEvent
		if err := json.Unmarshal(raw, &ev); err != nil {
			return events, fmt.Errorf("trace line %d: %w", line, err)
		}
		if ev.Zone == "" || ev.Stage == "" {
			return events, fmt.Errorf("trace line %d: missing zone or stage", line)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return events, fmt.Errorf("trace line %d: %w", line, err)
	}
	return events, nil
}
