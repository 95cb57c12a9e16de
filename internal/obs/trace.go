package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// TraceEvent is one line of the exchange trace: one query sent to one
// server on behalf of one zone's scan, and how it ended — an rcode, or
// an error when no usable response came back.
type TraceEvent struct {
	TUS    int64  `json:"t_us"` // when the exchange began, µs after the tracer started
	Zone   string `json:"zone"` // the zone whose scan sent it
	Server string `json:"server"`
	Name   string `json:"name"`
	Qtype  string `json:"qtype"`
	Rcode  string `json:"rcode,omitempty"`
	Err    string `json:"err,omitempty"`
	DurUS  int64  `json:"dur_us"`
}

// Tracer serialises trace events from concurrent exchanges onto one
// JSONL writer.
type Tracer struct {
	start  time.Time
	mu     sync.Mutex
	bw     *bufio.Writer
	events int64
}

// NewTracer wraps w in a buffered JSONL trace sink.
func NewTracer(w io.Writer) *Tracer {
	return &Tracer{start: time.Now(), bw: bufio.NewWriterSize(w, 1<<16)}
}

// Events reports how many events have been written.
func (t *Tracer) Events() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.events
}

// Close flushes buffered events.
func (t *Tracer) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.bw.Flush()
}

// Exchange writes the line of an exchange that began at start and has
// just ended, filling in ev's times.
func (t *Tracer) Exchange(start time.Time, ev TraceEvent) {
	ev.TUS = start.Sub(t.start).Microseconds()
	ev.DurUS = time.Since(start).Microseconds()
	line, _ := json.Marshal(ev) // strings and integers always marshal
	t.mu.Lock()
	defer t.mu.Unlock()
	t.bw.Write(append(line, '\n'))
	t.events++
}

// ReadTrace parses a JSONL trace stream and calls each with every
// event, in order. A malformed line, or an error from each, stops it
// with an error naming the line. It holds one line at a time, so a
// trace of any length is read in constant memory. Used by
// `reanalyze -trace` to round-trip -trace-out artefacts in CI.
func ReadTrace(r io.Reader, each func(TraceEvent) error) error {
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
			return fmt.Errorf("trace line %d: %w", line, err)
		}
		if ev.Zone == "" || ev.Server == "" || ev.Name == "" || ev.Qtype == "" {
			return fmt.Errorf("trace line %d: missing zone, server, name or qtype", line)
		}
		if (ev.Rcode == "") == (ev.Err == "") {
			return fmt.Errorf("trace line %d: want an rcode or an error", line)
		}
		if err := each(ev); err != nil {
			return fmt.Errorf("trace line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("trace line %d: %w", line, err)
	}
	return nil
}
