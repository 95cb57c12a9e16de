package main

import (
	"context"
	"fmt"
	"math"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dnssecboot/internal/classify"
	"dnssecboot/internal/core"
	"dnssecboot/internal/dnswire"
	"dnssecboot/internal/ecosystem"
	"dnssecboot/internal/rate"
	"dnssecboot/internal/report"
	"dnssecboot/internal/resolver"
	"dnssecboot/internal/scan"
	"dnssecboot/internal/transport"
)

// scan-default and scan-ratelimited: the in-process scan pipeline
// (core.RunStream → JSONL export) over a generated world on the
// in-memory network. scan-default is CPU-bound and never waits;
// scan-ratelimited runs under a per-nameserver rate limit, so its wall
// clock is set by the queries sent to the busiest server.

type scanParams struct {
	scale       int     // ecosystem.Config.ScaleDivisor
	maxZones    int     // truncate the scan list (quick runs); 0 = all
	qps         float64 // per-nameserver limit; 0 = none
	concurrency int
}

func scanParamsFor(r *run) scanParams {
	if r.workload == "scan-ratelimited" {
		if r.quick {
			return scanParams{scale: 200_000, maxZones: 200, qps: 300, concurrency: 16}
		}
		// 1 560 zones at 1 000 q/s per server: about three seconds a
		// repetition, all of it waiting for the root and TLD servers.
		return scanParams{scale: 200_000, qps: 1000, concurrency: 16}
	}
	if r.quick {
		return scanParams{scale: 200_000, concurrency: r.p}
	}
	return scanParams{scale: 10_000, concurrency: r.p} // 28 838 zones
}

// statusFor maps the state the generator planted to the status the
// pipeline must find, as internal/core/core_test.go does.
var statusFor = map[ecosystem.State]classify.Status{
	ecosystem.StateUnsigned: classify.StatusUnsigned,
	ecosystem.StateSecured:  classify.StatusSecured,
	ecosystem.StateInvalid:  classify.StatusInvalid,
	ecosystem.StateIsland:   classify.StatusIsland,
}

// wrongStatus reports whether a zone's classification differs from its
// ground truth; an unresolved zone is wrong.
func wrongStatus(world *ecosystem.Ecosystem, zone string, got classify.Status) bool {
	truth := world.Truth[zone]
	return truth == nil || got == classify.StatusUnresolved || got != statusFor[truth.Spec.State]
}

// countWrong checks one repetition's classifications, index-aligned
// with the scan list.
func countWrong(world *ecosystem.Ecosystem, targets []string, statuses []classify.Status) int {
	wrong := 0
	for i, z := range targets {
		if wrongStatus(world, dnswire.CanonicalName(z), statuses[i]) {
			wrong++
		}
	}
	return wrong
}

// generate builds the world for the run's seed. As the set-up of an
// end-to-end run it builds it three times, each a sample of setup_s
// (one world alive at a time, as in the scanner binaries); the traced
// run builds it once, as a span.
func (r *run) generate(scale int) (*ecosystem.Ecosystem, error) {
	var world *ecosystem.Ecosystem
	build := func() error {
		world = nil
		w, err := ecosystem.Generate(ecosystem.Config{Seed: r.seed, ScaleDivisor: scale})
		if err != nil {
			return fmt.Errorf("generating world: %w", err)
		}
		world = w
		return nil
	}
	if r.trace {
		id := r.tr.main().begin("ecosystem.generate", 0, "")
		t0 := time.Now()
		err := build()
		r.add("ecosystem.generate_s", time.Since(t0).Seconds())
		r.tr.main().end(id)
		if err == nil {
			r.add("ecosystem.zones", float64(len(world.Targets)))
		}
		return world, err
	}
	for i := 0; i < 3; i++ {
		if err := r.setup(build); err != nil {
			return nil, err
		}
	}
	return world, nil
}

func targetsOf(world *ecosystem.Ecosystem, p scanParams) []string {
	if p.maxZones > 0 && len(world.Targets) > p.maxZones {
		return world.Targets[:p.maxZones]
	}
	return world.Targets
}

// scanRep is what one repetition of a scan measured.
type scanRep struct {
	zones   int
	wrong   int
	wall    time.Duration
	cpu     time.Duration
	queries int64
}

// streamRep is one repetition of the real pipeline: a fresh scanner,
// core.RunStream, every observation exported as JSONL to a file.
func streamRep(world *ecosystem.Ecosystem, p scanParams, seed int64, dump string) (scanRep, error) {
	f, err := os.Create(dump)
	if err != nil {
		return scanRep{}, err
	}
	defer f.Close()
	jw := scan.NewJSONLWriter(f)
	targets := targetsOf(world, p)
	statuses := make([]classify.Status, len(targets))
	runtime.GC()
	world.Net.ResetStats()
	cpu0, t0 := cpuTime(), time.Now()
	study, err := core.RunStream(context.Background(), core.StreamOptions{
		Options: core.Options{
			Seed: seed, World: world, MaxZones: p.maxZones,
			Concurrency: p.concurrency, QueriesPerSecondPerNS: p.qps,
		},
		Sink: func(i int, zo *scan.ZoneObservation, res *classify.Result) error {
			statuses[i] = res.Status
			return jw.Write(zo)
		},
	})
	if err == nil {
		err = jw.Flush()
	}
	rep := scanRep{wall: time.Since(t0), cpu: cpuTime() - cpu0}
	if err != nil {
		return rep, err
	}
	rep.queries, _, _ = world.Net.Stats()
	if study.Scanned != len(targets) {
		return rep, fmt.Errorf("scanned %d of %d zones", study.Scanned, len(targets))
	}
	rep.zones = study.Scanned
	rep.wrong = countWrong(world, targets, statuses)
	return rep, nil
}

func runScan(r *run) error {
	p := scanParamsFor(r)
	if r.trace {
		return runScanTraced(r, p)
	}
	r.waitBound = p.qps > 0
	world, err := r.generate(p.scale)
	if err != nil {
		return err
	}
	dump := filepath.Join(r.outDir, r.workload+".jsonl")
	err = r.repeat(func(timed bool) error {
		rep, err := streamRep(world, p, r.seed, dump)
		if err != nil || !timed {
			return err
		}
		r.attempted += int64(rep.zones)
		r.failed += int64(rep.wrong)
		r.add("ops_per_s", float64(rep.zones)/rep.wall.Seconds())
		r.add("cpu_us_per_op", float64(rep.cpu.Microseconds())/float64(rep.zones))
		r.add("queries_per_op", float64(rep.queries)/float64(rep.zones))
		return nil
	})
	if err != nil {
		return err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.add("peak_rss_mb", rss)
	return nil
}

// tracedNet times every exchange the resolver sends and names the
// scan.zone span that caused it, read from the context. With no span in
// the context it only forwards.
type tracedNet struct {
	inner transport.Exchanger
	// failed counts exchanges that returned an error.
	failed atomic.Int64

	// The first captureMax responses are kept in wire form for the
	// unit-cost replay.
	mu       sync.Mutex
	captured [][]byte
	full     atomic.Bool
}

const captureMax = 1000

func (n *tracedNet) Exchange(ctx context.Context, server netip.AddrPort, q *dnswire.Message) (*dnswire.Message, error) {
	buf, parent := spanFrom(ctx)
	if buf == nil {
		return n.inner.Exchange(ctx, server, q)
	}
	start := buf.tr.now()
	resp, err := n.inner.Exchange(ctx, server, q)
	end := buf.tr.now()
	buf.record("transport.exchange", start, end, parent, server.Addr().String())
	if err != nil {
		n.failed.Add(1)
	} else if resp != nil && !n.full.Load() {
		n.capture(resp)
	}
	return resp, err
}

func (n *tracedNet) capture(resp *dnswire.Message) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if wire, err := resp.Pack(); err == nil && len(n.captured) < captureMax {
		n.captured = append(n.captured, wire)
	}
	n.full.Store(len(n.captured) >= captureMax)
}

// rateSpans records the limiter's blocked waits. The observer is handed
// a duration and no context, so these spans carry no parent; they are
// subtracted from the zones' self time in aggregate.
type rateSpans struct {
	mu  sync.Mutex
	buf *spanBuf
}

func (rs *rateSpans) observe(d time.Duration) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	end := rs.buf.tr.now()
	rs.buf.record("rate.wait", end-int64(d), end, 0, "")
}

// newScanner builds a scanner from the same public constructors
// core.NewScanner uses, with net in place of world.Net. The traced
// run's queries-per-zone must match the RunStream run's, which is what
// shows the two are the same scanner.
func newScanner(world *ecosystem.Ecosystem, p scanParams, seed int64, net transport.Exchanger, waits *rateSpans) (*scan.Scanner, *resolver.Resolver) {
	res := &resolver.Resolver{Net: net, Roots: world.Roots, Cache: resolver.NewCache(0)}
	if p.qps > 0 {
		res.Limits = rate.NewPerKey(p.qps, int(p.qps))
		if waits != nil {
			res.Limits.SetObserver(waits.observe)
		}
	}
	return scan.New(scan.Config{
		Resolver:         res,
		Now:              world.Now,
		Concurrency:      p.concurrency,
		SampleSuffixes:   world.CloudflareSuffixes,
		FullScanFraction: 0.05,
		ProbeSignals:     true,
		TrustAnchor:      world.TrustAnchor,
		Seed:             seed,
	}), res
}

// workersResult is a workersRep repetition and the layer objects its
// counters are read from.
type workersResult struct {
	scanRep
	net      *tracedNet
	resolver *resolver.Resolver
	exported int64 // bytes of JSONL written
}

// workersRep scans every target with p.concurrency bench workers, each
// looping ScanZone → Classify → Aggregate.Add → JSONLWriter.Write with
// its own aggregate and export file: the pipeline's layers without
// ScanStream's dispatch and reorder stage. With a tracer every call is
// a span; without one it is the untraced reference for the overhead.
func workersRep(r *run, world *ecosystem.Ecosystem, p scanParams, tr *tracer) (workersResult, error) {
	net := &tracedNet{inner: world.Net}
	var waits *rateSpans
	if tr != nil {
		waits = &rateSpans{buf: tr.buf()}
	}
	scanner, res := newScanner(world, p, r.seed, net, waits)
	targets := targetsOf(world, p)
	statuses := make([]classify.Status, len(targets))
	var next, exported atomic.Int64
	errs := make([]error, p.concurrency)
	bufs := make([]*spanBuf, p.concurrency)
	for k := range bufs {
		bufs[k] = tr.buf()
	}
	runtime.GC()
	world.Net.ResetStats()
	cpu0, t0 := cpuTime(), time.Now()
	var wg sync.WaitGroup
	for k := 0; k < p.concurrency; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			errs[k] = func() error {
				f, err := os.Create(filepath.Join(r.outDir, fmt.Sprintf("%s-worker%d.jsonl", r.workload, k)))
				if err != nil {
					return err
				}
				defer f.Close()
				buf := bufs[k]
				ctx := context.Background()
				classifier := classify.New(world.Now)
				agg := report.NewAggregate()
				jw := scan.NewJSONLWriter(f)
				worker := buf.begin("bench.worker", 0, strconv.Itoa(k))
				for {
					i := int(next.Add(1)) - 1
					if i >= len(targets) {
						break
					}
					id := buf.begin("scan.zone", worker, targets[i])
					zo := scanner.ScanZone(withSpan(ctx, buf, id), targets[i])
					buf.end(id)

					id = buf.begin("classify.classify", worker, targets[i])
					result := classifier.Classify(zo)
					buf.end(id)
					statuses[i] = result.Status

					id = buf.begin("report.add", worker, targets[i])
					agg.Add(result)
					buf.end(id)

					id = buf.begin("scan.export", worker, targets[i])
					err := jw.Write(zo)
					buf.end(id)
					if err != nil {
						return err
					}
				}
				id := buf.begin("scan.export", worker, "flush")
				err = jw.Flush()
				buf.end(id)
				buf.end(worker)
				exported.Add(jw.Bytes())
				return err
			}()
		}(k)
	}
	wg.Wait()
	rep := workersResult{
		scanRep: scanRep{zones: len(targets), wall: time.Since(t0), cpu: cpuTime() - cpu0},
		net:     net, resolver: res, exported: exported.Load(),
	}
	for _, err := range errs {
		if err != nil {
			return rep, err
		}
	}
	rep.queries, _, _ = world.Net.Stats()
	rep.wrong = countWrong(world, targets, statuses)
	return rep, nil
}

// runScanTraced is the traced run of a scan workload: one RunStream
// repetition and one bare-workers repetition without spans as
// references, then the bare workers again with every layer call timed.
func runScanTraced(r *run, p scanParams) error {
	world, err := r.generate(p.scale)
	if err != nil {
		return err
	}

	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	gc0 := gcCPUSeconds()
	stream, err := streamRep(world, p, r.seed, filepath.Join(r.outDir, r.workload+".jsonl"))
	if err != nil {
		return err
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	zones := float64(stream.zones)
	r.add("runtime.allocs_per_op", float64(after.Mallocs-before.Mallocs)/zones)
	r.add("runtime.alloc_kb_per_op", float64(after.TotalAlloc-before.TotalAlloc)/1024/zones)
	r.add("runtime.gc_cpu_share", (gcCPUSeconds()-gc0)/stream.cpu.Seconds())

	bare, err := workersRep(r, world, p, nil)
	if err != nil {
		return err
	}
	traced, err := workersRep(r, world, p, r.tr)
	if err != nil {
		return err
	}
	net, res := traced.net, traced.resolver
	r.attempted = int64(stream.zones + bare.zones + traced.zones)
	r.failed = int64(stream.wrong + bare.wrong + traced.wrong)

	st := r.tr.stats()
	workerSeconds := float64(p.concurrency) * traced.wall.Seconds()
	exchanges := st.durs["transport.exchange"]
	waitS := st.busy["rate.wait"]
	zoneSelf := st.self["scan.zone"] - waitS
	r.add("scan.zone_count", float64(len(st.durs["scan.zone"])))
	r.add("scan.zone_self_s", zoneSelf)
	r.add("scan.zone_self_share", zoneSelf/workerSeconds)
	r.add("scan.zone_p50_us", percentile(st.durs["scan.zone"], 0.50)*1e6)
	r.add("scan.zone_p99_us", percentile(st.durs["scan.zone"], 0.99)*1e6)
	r.add("transport.exchange_count", float64(len(exchanges)))
	r.add("transport.exchange_busy_s", st.busy["transport.exchange"])
	r.add("transport.exchange_share", st.busy["transport.exchange"]/workerSeconds)
	r.add("transport.exchange_p50_us", median(exchanges)*1e6)
	r.add("transport.exchange_failed", float64(net.failed.Load()))
	r.add("transport.hot_server_share", hotServerShare(r.tr))
	r.add("rate.wait_count", float64(len(st.durs["rate.wait"])))
	r.add("rate.wait_s", waitS)
	r.add("rate.wait_share", waitS/workerSeconds)
	if probes := res.CacheHits() + res.CacheMisses(); probes > 0 {
		r.add("resolver.cache_hit_share", float64(res.CacheHits())/float64(probes))
	}
	r.add("resolver.coalesced", float64(res.Coalesced()))
	r.add("classify.us_per_zone", st.busy["classify.classify"]/zones*1e6)
	r.add("classify.share", st.busy["classify.classify"]/workerSeconds)
	r.add("report.add_us_per_zone", st.busy["report.add"]/zones*1e6)
	r.add("scan.export_us_per_zone", st.busy["scan.export"]/zones*1e6)
	r.add("scan.export_bytes_per_zone", float64(traced.exported)/zones)
	r.add("core.stream_gap_share", (stream.wall-bare.wall).Seconds()/stream.wall.Seconds())
	r.add("trace.overhead_share", (traced.wall-bare.wall).Seconds()/bare.wall.Seconds())
	var selfSum float64
	for _, name := range []string{"bench.worker", "scan.zone", "transport.exchange", "classify.classify", "report.add", "scan.export"} {
		selfSum += st.self[name]
	}
	r.add("trace.self_sum_share", selfSum/workerSeconds)

	// The hand-built scanner must send what core.NewScanner's sends.
	got, want := float64(len(exchanges))/zones, float64(stream.queries)/zones
	if math.Abs(got-want) > 0.01*want {
		return fmt.Errorf("verification failed: traced scanner sent %.3f queries per zone, RunStream %.3f", got, want)
	}

	unitCosts(r, net.captured, world.Now)
	if r.workload == "scan-default" {
		if err := cliGap(r, p, r.samples["ecosystem.generate_s"][0]+stream.wall.Seconds()); err != nil {
			return err
		}
	}
	return nil
}

// hotServerShare is the busiest server address's share of all
// exchanges: under a per-server rate limit it sets the wall clock.
func hotServerShare(tr *tracer) float64 {
	perServer := map[string]int{}
	total, hot := 0, 0
	tr.each(func(s *span) {
		if s.name != "transport.exchange" {
			return
		}
		total++
		perServer[s.op]++
		if perServer[s.op] > hot {
			hot = perServer[s.op]
		}
	})
	if total == 0 {
		return 0
	}
	return float64(hot) / float64(total)
}

// cliGap runs the built dnssec-scan once on the same seed and scale and
// compares its wall clock with generation plus the in-process scan: the
// cost of everything the binary does around the pipeline.
func cliGap(r *run, p scanParams, inProcess float64) error {
	id := r.tr.main().begin("cli.run", 0, "dnssec-scan")
	t0 := time.Now()
	_, err := runProcess(r.ctx, runTimeout, filepath.Join(r.binDir, "dnssec-scan"),
		"-scale", strconv.Itoa(p.scale), "-seed", strconv.FormatInt(r.seed, 10),
		"-concurrency", strconv.Itoa(p.concurrency),
		"-out", "none", "-dump", filepath.Join(r.outDir, "cli.jsonl"))
	wall := time.Since(t0).Seconds()
	r.tr.main().end(id)
	if err != nil {
		return err
	}
	r.add("cli.wall_s", wall)
	r.add("cli.gap_share", (wall-inProcess)/wall)
	return nil
}
