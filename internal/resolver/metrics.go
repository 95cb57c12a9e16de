// Metrics bridge between the resolver and the obs registry. The six
// historical atomic counters live here now, as named instruments on a
// registry, so report/export and the -metrics-out artefact read one
// source of truth.
package resolver

import (
	"dnssecboot/internal/obs"
)

// Metric names registered by NewMetrics. Exported so the CLI and tests
// address snapshot entries without retyping strings.
const (
	MetricQueries      = "resolver_queries_total"
	MetricRetries      = "resolver_retries_total"
	MetricGaveUp       = "resolver_gave_up_total"
	MetricCacheHits    = "resolver_cache_hits_total"
	MetricCacheMisses  = "resolver_cache_misses_total"
	MetricCoalesced    = "resolver_coalesced_total"
	MetricQuerySeconds = "resolver_query_seconds"
	MetricRateWait     = "resolver_rate_wait_seconds"
	MetricTrailing     = "resolver_trailing_bytes_total"
	MetricMismatches   = "resolver_mismatches_total"
)

// Metrics holds the resolver's instruments. Install one built against a
// shared registry via Resolver.Obs to export resolver telemetry; a
// Resolver without one lazily builds Metrics on a private registry so
// the accessor methods (Queries, Retries, ...) keep working for bare
// literals.
type Metrics struct {
	Queries     *obs.Counter
	Retries     *obs.Counter
	GaveUp      *obs.Counter
	CacheHits   *obs.Counter
	CacheMisses *obs.Counter
	Coalesced   *obs.Counter
	// Trailing accumulates octets of trailing garbage observed after
	// the last record of responses (dnswire.Message.TrailingBytes) — a
	// malformed-responder signal the classifier can consult.
	Trailing *obs.Counter
	// Mismatches counts responses discarded for not answering the
	// question asked (ErrMismatch).
	Mismatches *obs.Counter
	// QuerySeconds observes wire-exchange latency per attempt;
	// RateWait observes time blocked in the per-server rate limiter.
	QuerySeconds *obs.Histogram
	RateWait     *obs.Histogram
}

// NewMetrics registers the resolver's instruments on reg. A nil
// registry yields all-nil (no-op) instruments.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Queries:      reg.Counter(MetricQueries),
		Retries:      reg.Counter(MetricRetries),
		GaveUp:       reg.Counter(MetricGaveUp),
		CacheHits:    reg.Counter(MetricCacheHits),
		CacheMisses:  reg.Counter(MetricCacheMisses),
		Coalesced:    reg.Counter(MetricCoalesced),
		Trailing:     reg.Counter(MetricTrailing),
		Mismatches:   reg.Counter(MetricMismatches),
		QuerySeconds: reg.Histogram(MetricQuerySeconds, obs.DefLatencyBuckets),
		RateWait:     reg.Histogram(MetricRateWait, obs.DefLatencyBuckets),
	}
}

// metrics returns the resolver's instruments, lazily building them on a
// private registry when none were installed.
func (r *Resolver) metrics() *Metrics {
	r.obsOnce.Do(func() {
		if r.Obs == nil {
			r.Obs = NewMetrics(obs.NewRegistry())
		}
	})
	return r.Obs
}
