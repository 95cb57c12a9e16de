// Package core ties the reproduction together: it generates (or
// accepts) a synthetic DNS ecosystem, runs the YoDNS-style measurement
// scan over it, classifies every zone the way the paper's §4 does, and
// aggregates the results into the paper's tables and figures. It is
// the library's primary entry point:
//
//	study, err := core.Run(ctx, core.Options{ScaleDivisor: 2000})
//	fmt.Println(study.Report.Headline())
//	fmt.Println(study.Report.Table3())
package core

import (
	"context"
	"fmt"
	"io"
	"net/netip"
	"time"

	"dnssecboot/internal/classify"
	"dnssecboot/internal/dnswire"
	"dnssecboot/internal/ecosystem"
	"dnssecboot/internal/obs"
	"dnssecboot/internal/rate"
	"dnssecboot/internal/report"
	"dnssecboot/internal/resolver"
	"dnssecboot/internal/scan"
	"dnssecboot/internal/transport"
)

// Options configure a full study run.
type Options struct {
	// Seed makes the world and the scan deterministic.
	Seed int64
	// ScaleDivisor divides the paper's population counts (see
	// ecosystem.Config). Zero means 2000.
	ScaleDivisor int
	// Concurrency is the number of parallel zone scans (default 8).
	Concurrency int
	// ProbeSignals enables the RFC 9615 signal-zone measurements
	// (§4.3/§4.4). On by default in Run.
	DisableSignalProbes bool
	// SignalOnlyCandidates applies the registry short-circuit of
	// Appendix D: probe signals only for signed or CDS-bearing zones.
	SignalOnlyCandidates bool
	// QueriesPerSecondPerNS applies the paper's per-NS rate limit
	// (50 q/s in §3). Zero disables limiting (simulation default:
	// the in-memory network has no load to protect).
	QueriesPerSecondPerNS float64
	// MaxZones truncates the scan list; zero scans everything.
	MaxZones int
	// World reuses an existing ecosystem instead of generating one.
	World *ecosystem.Ecosystem
	// Targets overrides the scan list (default: World.Targets). This is
	// the real-zone ingestion path: names reduced from a TLD dump by
	// internal/ingest are scanned against the configured network.
	Targets []string

	// LossRate injects uniform packet loss into the scanner's
	// exchanges with the simulated network, driven deterministically by
	// ChaosSeed.
	LossRate float64
	// ChaosSeed seeds the fault-injection decisions; zero falls back to
	// Seed so a study stays fully determined by its options.
	ChaosSeed int64
	// RetryAttempts is the total number of tries per server for
	// transient failures (timeouts, SERVFAIL); values < 2 disable
	// retries (the seed pipeline's single-shot behaviour).
	RetryAttempts int
	// RetryBackoff is the base pause before the first retry, doubling
	// per attempt. Zero retries immediately — the right choice against
	// the zero-latency in-memory network.
	RetryBackoff time.Duration

	// CacheNegTTL bounds how long negative (NXDOMAIN / lame) results
	// are served from the resolver's cache. Zero uses the resolver
	// default (60 s).
	CacheNegTTL time.Duration

	// Registry collects the run's metrics (query counts, latency and
	// rate-wait histograms, cache accounting). Nil means the resolver
	// keeps a private registry and nothing is exported.
	Registry *obs.Registry
	// Tracer receives one line per wire exchange the scanner makes
	// (-trace-out). Nil leaves nothing on the exchange path.
	Tracer *obs.Tracer
	// ProgressWriter receives live progress lines (zones/s, ETA, error
	// rate) during the scan; nil disables progress reporting.
	ProgressWriter io.Writer
	// ProgressInterval is the pause between progress lines (default 2s).
	ProgressInterval time.Duration
}

// Study is the outcome of a run.
type Study struct {
	// World is the scanned ecosystem.
	World *ecosystem.Ecosystem
	// Observations holds the raw scanner output, index-aligned with
	// World.Targets (or its truncation).
	Observations []*scan.ZoneObservation
	// Results holds the per-zone classifications.
	Results []*classify.Result
	// Report aggregates the results into the paper's tables.
	Report *report.Aggregate
	// Elapsed is the wall-clock scan duration.
	Elapsed time.Duration
}

// NewScanner builds a scanner wired to a world, with the paper's
// methodology defaults (Cloudflare sampling at 5 % full scans). When
// opts request chaos (LossRate) the scanner's resolver reaches the
// world's network through a Faults wrapper, and with a Tracer through
// the exchange trace around that, so an injected loss is traced as the
// error the resolver saw; the world is not changed.
func NewScanner(world *ecosystem.Ecosystem, opts Options) *scan.Scanner {
	chaosSeed := opts.ChaosSeed
	if chaosSeed == 0 {
		chaosSeed = opts.Seed
	}
	var net transport.Exchanger = world.Net
	if opts.LossRate > 0 {
		net = &transport.Faults{Inner: world.Net, Profile: transport.FaultProfile{Loss: opts.LossRate}, Seed: chaosSeed}
	}
	if opts.Tracer != nil {
		net = tracedNet{net, opts.Tracer}
	}
	r := &resolver.Resolver{Net: net, Roots: world.Roots, Cache: resolver.NewCache(opts.CacheNegTTL)}
	if opts.Registry != nil {
		r.Obs = resolver.NewMetrics(opts.Registry)
	}
	if opts.QueriesPerSecondPerNS > 0 {
		r.Limits = rate.NewPerKey(opts.QueriesPerSecondPerNS, int(opts.QueriesPerSecondPerNS))
		if opts.Registry != nil {
			wait := r.Obs.RateWait
			r.Limits.SetObserver(func(d time.Duration) { wait.Observe(d.Seconds()) })
		}
	}
	var retry *resolver.RetryPolicy
	if opts.RetryAttempts > 1 {
		retry = &resolver.RetryPolicy{
			Attempts:    opts.RetryAttempts,
			BaseBackoff: opts.RetryBackoff,
			Jitter:      0.5,
			Seed:        chaosSeed,
		}
	}
	return scan.New(scan.Config{
		Retry:                retry,
		Resolver:             r,
		Now:                  world.Now,
		Concurrency:          opts.Concurrency,
		SampleSuffixes:       world.CloudflareSuffixes,
		FullScanFraction:     0.05,
		ProbeSignals:         !opts.DisableSignalProbes,
		SignalOnlyCandidates: opts.SignalOnlyCandidates,
		TrustAnchor:          world.TrustAnchor,
		Seed:                 opts.Seed,
		ProgressWriter:       opts.ProgressWriter,
		ProgressInterval:     opts.ProgressInterval,
	})
}

// tracedNet is the exchange trace: an Exchanger wrapping an Exchanger
// that writes one line per exchange, for the zone whose scan made it.
// It reads the response's rcode before returning and keeps nothing: the
// response is reused by the next exchange.
type tracedNet struct {
	inner  transport.Exchanger
	tracer *obs.Tracer
}

// Exchange implements transport.Exchanger.
func (t tracedNet) Exchange(ctx context.Context, server netip.AddrPort, q *dnswire.Message) (*dnswire.Message, error) {
	start := time.Now()
	resp, err := t.inner.Exchange(ctx, server, q)
	ev := obs.TraceEvent{Zone: resolver.ZoneOf(ctx), Server: server.String(),
		Name: q.Question[0].Name, Qtype: q.Question[0].Type.String()}
	if err != nil {
		ev.Err = err.Error()
	} else if resp != nil {
		ev.Rcode = resp.Rcode.String()
	}
	t.tracer.Exchange(start, ev)
	return resp, err
}

// Run executes the full pipeline — generate → scan → classify → report
// — and keeps every zone: it is RunStream with a sink that collects.
// When ctx is cancelled mid-scan the study holds the clean prefix
// scanned so far and the context's error is returned with it.
func Run(ctx context.Context, opts Options) (*Study, error) {
	study := &Study{}
	st, err := RunStream(ctx, StreamOptions{
		Options: opts,
		Sink: func(_ int, zo *scan.ZoneObservation, res *classify.Result) error {
			study.Observations = append(study.Observations, zo)
			study.Results = append(study.Results, res)
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	study.World, study.Report, study.Elapsed = st.World, st.Report, st.Elapsed
	if st.Drained {
		return study, fmt.Errorf("core: scan stopped at zone %d of %d: %w", st.NextIndex, st.TotalZones, ctx.Err())
	}
	return study, nil
}
