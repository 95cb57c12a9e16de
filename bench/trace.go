package main

import (
	"bufio"
	"context"
	"os"
	"strconv"
	"sync"
	"time"
)

// Spans are recorded here, in the benchmark's own files, around the
// calls into each layer's public functions; the program itself carries
// no benchmark instrumentation. They stay in memory until the run ends
// and are then written as JSON lines (name, start_ns, end_ns, id,
// parent, op).

// span is one timed call. Times are nanoseconds since the tracer was
// made; parent 0 means the caller is not known.
type span struct {
	name       string
	start, end int64
	id, parent uint64
	op         string
}

// spanBuf is the span buffer of one goroutine (or of one lock): only
// its owner appends to it, so recording takes no lock. A nil *spanBuf
// records nothing, which is how untraced repetitions share the traced
// code path.
type spanBuf struct {
	tr    *tracer
	shard uint64
	spans []span
}

// tracer owns every buffer of a run.
type tracer struct {
	base time.Time

	mu   sync.Mutex
	bufs []*spanBuf
}

func newTracer() *tracer {
	t := &tracer{base: time.Now()}
	t.buf()
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// buf adds a buffer for a new owner.
func (t *tracer) buf() *spanBuf {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b := &spanBuf{tr: t, shard: uint64(len(t.bufs))}
	t.bufs = append(t.bufs, b)
	return b
}

// main is the buffer of the run's own goroutine.
func (t *tracer) main() *spanBuf {
	if t == nil {
		return nil
	}
	return t.bufs[0]
}

// begin opens a span and returns its id; end closes it. An id packs the
// buffer's number and the span's position so that end, and the
// self-time pass, find the span without a map.
func (b *spanBuf) begin(name string, parent uint64, op string) uint64 {
	if b == nil {
		return 0
	}
	id := b.shard<<32 | uint64(len(b.spans)+1)
	b.spans = append(b.spans, span{name: name, start: b.tr.now(), id: id, parent: parent, op: op})
	return id
}

func (b *spanBuf) end(id uint64) {
	if b == nil {
		return
	}
	b.spans[uint32(id)-1].end = b.tr.now()
}

// record appends a span whose times the caller took itself.
func (b *spanBuf) record(name string, start, end int64, parent uint64, op string) {
	id := b.shard<<32 | uint64(len(b.spans)+1)
	b.spans = append(b.spans, span{name: name, start: start, end: end, id: id, parent: parent, op: op})
}

// spanCtx is how a span id travels through the program's call chain:
// the timing wrappers read it from the context they are handed.
type spanCtx struct {
	buf *spanBuf
	id  uint64
}

type spanCtxKey struct{}

func withSpan(ctx context.Context, buf *spanBuf, id uint64) context.Context {
	if buf == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, spanCtx{buf, id})
}

func spanFrom(ctx context.Context) (*spanBuf, uint64) {
	sc, _ := ctx.Value(spanCtxKey{}).(spanCtx)
	return sc.buf, sc.id
}

// each calls fn for every recorded span.
func (t *tracer) each(fn func(*span)) {
	for _, b := range t.bufs {
		for i := range b.spans {
			fn(&b.spans[i])
		}
	}
}

// spanStats are the aggregates the per-layer metrics are made of.
type spanStats struct {
	// durs lists every span's duration in seconds, by span name.
	durs map[string][]float64
	// busy sums them; self sums duration minus the time covered by the
	// span's own children.
	busy, self map[string]float64
}

func (t *tracer) stats() spanStats {
	children := make([][]int64, len(t.bufs))
	for i, b := range t.bufs {
		children[i] = make([]int64, len(b.spans))
	}
	t.each(func(s *span) {
		if s.parent != 0 {
			children[s.parent>>32][uint32(s.parent)-1] += s.end - s.start
		}
	})
	st := spanStats{durs: map[string][]float64{}, busy: map[string]float64{}, self: map[string]float64{}}
	t.each(func(s *span) {
		d := s.end - s.start
		st.durs[s.name] = append(st.durs[s.name], float64(d)/1e9)
		st.busy[s.name] += float64(d) / 1e9
		st.self[s.name] += float64(d-children[s.id>>32][uint32(s.id)-1]) / 1e9
	})
	return st
}

// writeFile flushes every span to path as JSON lines.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	t.each(func(s *span) {
		line = append(line[:0], `{"name":`...)
		line = strconv.AppendQuote(line, s.name)
		line = append(line, `,"start_ns":`...)
		line = strconv.AppendInt(line, s.start, 10)
		line = append(line, `,"end_ns":`...)
		line = strconv.AppendInt(line, s.end, 10)
		line = append(line, `,"id":`...)
		line = strconv.AppendUint(line, s.id, 10)
		line = append(line, `,"parent":`...)
		line = strconv.AppendUint(line, s.parent, 10)
		line = append(line, `,"op":`...)
		line = strconv.AppendQuote(line, s.op)
		line = append(line, "}\n"...)
		w.Write(line) // a write error is sticky and surfaces from Flush
	})
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
