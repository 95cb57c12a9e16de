// Package obs is the reproduction's observability layer: a
// dependency-free metrics registry (counters, gauges, fixed-bucket
// latency histograms), a JSONL trace of wire exchanges, and a live
// progress reporter. The paper's YoDNS substrate is
// only trustworthy because its operators could watch the scanner work —
// per-nameserver query behaviour, rate-limit pressure, where
// classification time went (§3); this package gives our scan the same
// visibility without pulling in a metrics framework.
//
// Every instrument is safe to use through a nil pointer: a nil
// *Counter, *Histogram or *Progress turns each call
// into a no-op without allocating, so instrumented hot paths cost
// nothing when observation is disabled.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil counter.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil counter.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (zero for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value. No-op on a nil gauge.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by n. No-op on a nil gauge.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value (zero for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket distribution. Buckets are defined by
// ascending upper bounds; observations above the last bound land in an
// implicit +Inf bucket. All updates are lock-free atomics.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, cumulative on read only
	count  atomic.Int64
	sum    atomic.Int64 // math.Float64bits accumulator, CAS loop
}

// DefLatencyBuckets spans the range the in-memory simulation and a real
// UDP scan both inhabit: 10 µs to 10 s, roughly ×2.5 per step.
var DefLatencyBuckets = []float64{
	10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value. No-op on a nil histogram.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(uint64(old)) + v)
		if h.sum.CompareAndSwap(old, int64(next)) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since start. No-op on a nil
// histogram.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start).Seconds())
}

// Count returns the number of observations (zero for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (zero for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(uint64(h.sum.Load()))
}

// Quantile estimates the q-quantile (0..1) from the bucket counts,
// interpolating linearly inside the winning bucket. Returns 0 with no
// observations; values in the +Inf bucket report the last finite bound.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	lower := 0.0
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			if i < len(h.bounds) {
				lower = h.bounds[i]
			}
			continue
		}
		if float64(cum+n) >= rank {
			if i >= len(h.bounds) {
				return lower // +Inf bucket: report last finite bound
			}
			upper := h.bounds[i]
			frac := (rank - float64(cum)) / float64(n)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return lower + (upper-lower)*frac
		}
		cum += n
		if i < len(h.bounds) {
			lower = h.bounds[i]
		}
	}
	return lower
}

// BucketSnapshot is one histogram bucket in a snapshot.
type BucketSnapshot struct {
	LE    float64 `json:"le"` // upper bound; +Inf encoded as "inf" via MarshalJSON
	Count int64   `json:"count"`
}

// HistogramSnapshot is the exported view of a histogram.
type HistogramSnapshot struct {
	Count   int64            `json:"count"`
	Sum     float64          `json:"sum"`
	P50     float64          `json:"p50"`
	P90     float64          `json:"p90"`
	P99     float64          `json:"p99"`
	Buckets []BucketSnapshot `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time copy of a registry, shaped for JSON
// export (the -metrics-out artefact).
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Registry holds named instruments. Instruments are created on first
// request and shared by name afterwards; all methods are safe for
// concurrent use. A nil *Registry hands out nil instruments, so an
// optional registry can be threaded through constructors unchecked.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil
// registry returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use (later callers share the original bounds).
// A nil registry returns a nil (no-op) histogram.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = newHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// Snapshot copies every instrument's current state.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.histograms) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.histograms))
		for name, h := range r.histograms {
			hs := HistogramSnapshot{
				Count: h.Count(),
				Sum:   h.Sum(),
				P50:   h.Quantile(0.50),
				P90:   h.Quantile(0.90),
				P99:   h.Quantile(0.99),
			}
			var cum int64
			for i := range h.counts {
				cum += h.counts[i].Load()
				le := math.Inf(1)
				if i < len(h.bounds) {
					le = h.bounds[i]
				}
				hs.Buckets = append(hs.Buckets, BucketSnapshot{LE: le, Count: cum})
			}
			s.Histograms[name] = hs
		}
	}
	return s
}

// MarshalJSON encodes +Inf bounds as the string "inf" (plain floats
// otherwise), keeping the snapshot valid JSON.
func (b BucketSnapshot) MarshalJSON() ([]byte, error) {
	le := "\"inf\""
	if !math.IsInf(b.LE, 1) {
		le = fmt.Sprintf("%g", b.LE)
	}
	return []byte(fmt.Sprintf(`{"le":%s,"count":%d}`, le, b.Count)), nil
}

// UnmarshalJSON is the inverse of MarshalJSON: it accepts both plain
// float bounds and the "inf" string, so exported snapshots round-trip
// (dnsblast -verify-metrics reads dnsd's -metrics-out this way).
func (b *BucketSnapshot) UnmarshalJSON(data []byte) error {
	var raw struct {
		LE    json.RawMessage `json:"le"`
		Count int64           `json:"count"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	b.Count = raw.Count
	var s string
	if err := json.Unmarshal(raw.LE, &s); err == nil {
		if s != "inf" {
			return fmt.Errorf("obs: bucket bound %q is neither a number nor \"inf\"", s)
		}
		b.LE = math.Inf(1)
		return nil
	}
	return json.Unmarshal(raw.LE, &b.LE)
}

// WriteJSON writes an indented snapshot of the registry to w — the
// -metrics-out artefact.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
