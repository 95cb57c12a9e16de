package core

// The scan command. cmd/dnssec-scan and its alias cmd/scanctl are both
// Main: every scan flag is registered here once, backed by Options where
// the flag is an option. With -shards N the command coordinates N copies
// of its own executable, each scanning one -shard i/N partition, and
// forwards them every flag the user set except the coordinator-owned
// ones; the run header's fingerprint comes from the same registration.

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dnssecboot/internal/classify"
	"dnssecboot/internal/dnswire"
	"dnssecboot/internal/ecosystem"
	"dnssecboot/internal/ingest"
	"dnssecboot/internal/obs"
	"dnssecboot/internal/report"
	"dnssecboot/internal/scan"
	"dnssecboot/internal/shard"
)

// coordinatorOwned names the flags a -shards coordinator keeps to
// itself: its supervision knobs, the outputs it merges (-dump, -csv-dir,
// -out), the per-shard rollup (-progress) and -pprof. Every other flag
// the user set reaches every worker verbatim.
var coordinatorOwned = map[string]bool{
	"shards": true, "run-dir": true, "max-restarts": true, "restart-backoff": true,
	"stall-timeout": true, "kill-shard": true, "kill-after-zones": true,
	"dump": true, "csv-dir": true, "out": true, "progress": true, "pprof": true,
}

// command is one invocation: the Options its flags set and the
// command-line-only values around them.
type command struct {
	fs   *flag.FlagSet
	opts Options
	// fingerprinted lists the flags that change the bytes a scan
	// produces.
	fingerprinted []string

	year                                      int
	zonefile, zoneOrigin, dump, out, csvDir   string
	metricsOut, traceOut, pprofAddr           string
	checkpoint, resume, shardSpec             string
	progress, zoneStrict                      bool
	shards, maxRestarts, killShard, killAfter int
	runDir                                    string
	backoff, stallTimeout                     time.Duration
}

// register defines every flag once. The flags registered before the
// fingerprint snapshot change what a scan observes: a run header records
// their values and a resume under other values is refused. Everything
// after it is scheduling or output only.
func (c *command) register(shards int) {
	fs, o := c.fs, &c.opts
	fs.Int64Var(&o.Seed, "seed", 1, "deterministic world/scan seed")
	fs.IntVar(&o.ScaleDivisor, "scale", 2000, "divide the paper's population counts by this")
	fs.IntVar(&c.year, "year", 0, "generate a historical epoch instead of the 2025 population (e.g. 2017)")
	fs.IntVar(&o.MaxZones, "max-zones", 0, "scan at most this many zones (0 = all)")
	fs.BoolVar(&o.SignalOnlyCandidates, "short-circuit", false, "registry short-circuit: probe signals only for candidates (Appendix D)")
	fs.BoolVar(&o.DisableSignalProbes, "no-signals", false, "skip RFC 9615 signal probes")
	fs.Float64Var(&o.QueriesPerSecondPerNS, "rate", 0, "queries/second per nameserver (0 = unlimited; the paper used 50); per worker with -shards")
	fs.Float64Var(&o.LossRate, "loss", 0, "inject this packet-loss probability on every simulated exchange (e.g. 0.02)")
	fs.IntVar(&o.RetryAttempts, "retries", 1, "query attempts per server for transient failures (1 = no retries)")
	fs.Int64Var(&o.ChaosSeed, "chaos-seed", 0, "seed for fault-injection and retry jitter (0 = use -seed)")
	fs.DurationVar(&o.CacheNegTTL, "cache-neg-ttl", time.Minute, "how long NXDOMAIN/lame results are served from the negative cache")
	fs.StringVar(&c.zonefile, "zonefile", "", "ingest scan targets from this zone dump (master-file/AXFR dump, plain or gzip) instead of the generator's target list; -seed/-scale still shape the simulated network the targets are scanned against")
	fs.StringVar(&c.zoneOrigin, "zonefile-origin", "", "apex of the -zonefile dump (default: autodetect from $ORIGIN or the first SOA)")
	fs.VisitAll(func(f *flag.Flag) { c.fingerprinted = append(c.fingerprinted, f.Name) })

	fs.StringVar(&c.dump, "dump", "", "stream raw observations as JSON lines to this file (with -shards: the merged export)")

	fs.IntVar(&o.Concurrency, "concurrency", runtime.NumCPU(), "parallel zone scans (with -shards N: per worker, default NumCPU/N)")
	fs.StringVar(&c.out, "out", "all", "artefact: "+report.ArtefactChoices("none"))
	fs.StringVar(&c.csvDir, "csv-dir", "", "also write table1/2/3 + figure1 as CSV files into this directory")
	fs.StringVar(&c.metricsOut, "metrics-out", "", "write a JSON metrics snapshot (counters, latency histograms) to this file after the scan")
	fs.StringVar(&c.traceOut, "trace-out", "", "write one JSON line per wire exchange (zone, server, question, rcode or error, duration) to this file")
	fs.BoolVar(&c.progress, "progress", false, "print live scan progress (zones/s, ETA, error rate) to stderr; with -shards a per-shard rollup")
	fs.StringVar(&c.pprofAddr, "pprof", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
	fs.StringVar(&c.checkpoint, "checkpoint", "", "write the run header a later -resume checks to this file (needs -dump, which records the progress)")
	fs.StringVar(&c.resume, "resume", "", "resume an interrupted scan from this run header and its -dump")
	fs.StringVar(&c.shardSpec, "shard", "", "scan only the i-th of N contiguous zone shards, as \"i/N\" (0-based); partitions are deterministic in the zone index")
	fs.BoolVar(&c.zoneStrict, "zonefile-strict", false, "abort -zonefile ingestion on the first malformed record instead of counting and skipping it")

	fs.IntVar(&c.shards, "shards", shards, "coordinate this many worker processes, one per contiguous zone partition (0 = scan in this process)")
	fs.StringVar(&c.runDir, "run-dir", "scanctl-run", "with -shards: directory for per-shard run headers, dumps and logs; re-running with it resumes unfinished shards")
	fs.IntVar(&c.maxRestarts, "max-restarts", 3, "with -shards: restarts allowed per shard before the run fails")
	fs.DurationVar(&c.backoff, "restart-backoff", 500*time.Millisecond, "with -shards: delay before the first restart, doubling per attempt")
	fs.DurationVar(&c.stallTimeout, "stall-timeout", 5*time.Minute, "with -shards: kill a worker whose dump has not grown for this long (0 = off); must exceed a worker's world generation")
	fs.IntVar(&c.killShard, "kill-shard", -1, "with -shards, fault injection: SIGKILL this shard's worker once mid-run (tests and shard-smoke)")
	fs.IntVar(&c.killAfter, "kill-after-zones", 1, "with -kill-shard: kill once the shard's dump holds this many records")
}

// fingerprint is the run header's record of the fingerprinted flags'
// values.
func (c *command) fingerprint() ([]byte, error) {
	fp := make(map[string]string, len(c.fingerprinted))
	for _, name := range c.fingerprinted {
		fp[name] = c.fs.Lookup(name).Value.String()
	}
	return json.Marshal(fp)
}

// forwarded is a worker's command line before its per-shard files: the
// flags the user set minus the coordinator-owned ones, -shards=0 so the
// copy scans, and NumCPU/N -concurrency unless the user chose one.
func (c *command) forwarded() []string {
	args, concurrency := []string{"-shards=0"}, false
	c.fs.Visit(func(f *flag.Flag) {
		concurrency = concurrency || f.Name == "concurrency"
		if !coordinatorOwned[f.Name] {
			args = append(args, "-"+f.Name+"="+f.Value.String())
		}
	})
	if !concurrency {
		args = append(args, "-concurrency="+strconv.Itoa(max(1, runtime.NumCPU()/c.shards)))
	}
	return args
}

// check refuses, before any world is generated, an invocation that
// cannot run.
func (c *command) check() error {
	if err := report.CheckArtefact(c.out, "none"); err != nil {
		return err
	}
	if c.zonefile != "" && c.year != 0 {
		return errors.New("-zonefile and -year are mutually exclusive: the target list comes from the dump, not the synthetic population")
	}
	if c.shards < 0 {
		return errors.New("-shards must not be negative")
	}
	if c.shards == 0 {
		if c.dump == "" && (c.checkpoint != "" || c.resume != "") {
			return errors.New("-checkpoint and -resume need -dump: the dump is the scan's record of progress")
		}
		return nil
	}
	for _, f := range []struct{ name, value string }{{"shard", c.shardSpec}, {"checkpoint", c.checkpoint}, {"resume", c.resume}} {
		if f.value != "" {
			return fmt.Errorf("-%s cannot be combined with -shards: the run directory holds each shard's files", f.name)
		}
	}
	for _, f := range []struct{ name, path string }{{"metrics-out", c.metricsOut}, {"trace-out", c.traceOut}} {
		if f.path != "" && !strings.Contains(f.path, "{shard}") {
			return fmt.Errorf("-%s %s would be written by every worker: put {shard} in the path", f.name, f.path)
		}
	}
	return nil
}

func fatal(prefix string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", prefix, err)
	os.Exit(1)
}

// Main runs the scan command on os.Args: a scan in this process, or with
// -shards N (default shards) the coordinator of N copies of this
// executable. serve runs the -pprof server; the mains pass it, so that
// net/http stays out of every other importer of core.
func Main(shards int, serve func(addr string) error) {
	c := &command{fs: flag.NewFlagSet(filepath.Base(os.Args[0]), flag.ExitOnError)}
	c.register(shards)
	_ = c.fs.Parse(os.Args[1:]) // ExitOnError: a bad flag exits 2
	if err := c.check(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if c.pprofAddr != "" {
		go func() {
			if err := serve(c.pprofAddr); err != nil {
				fmt.Fprintln(os.Stderr, "pprof:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "pprof: serving /debug/pprof and /debug/vars on %s\n", c.pprofAddr)
	}
	if c.shards > 0 {
		c.coordinate()
	} else {
		c.scan()
	}
}

// coordinate runs the scan as c.shards re-executed copies of this
// binary, supervised and merged by internal/shard.
func (c *command) coordinate() {
	self, err := os.Executable()
	if err != nil {
		fatal("coordinator", err)
	}
	var rollup *obs.ShardRollup
	if c.progress {
		rollup = obs.NewShardRollup(os.Stderr, c.shards)
	}
	// SIGINT/SIGTERM cancel the run context; workers are killed (their
	// dumps survive) and a re-run with the same -run-dir resumes them.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	start := time.Now()
	res, err := shard.Run(ctx, shard.Config{
		Shards:         c.shards,
		RunDir:         c.runDir,
		Worker:         shard.WorkerConfig{Bin: self, Args: c.forwarded()},
		MergedDump:     c.dump,
		MaxRestarts:    c.maxRestarts,
		Backoff:        c.backoff,
		StallTimeout:   c.stallTimeout,
		KillShard:      c.killShard,
		KillAfterZones: c.killAfter,
		Rollup:         rollup,
		Log:            os.Stderr,
	})
	if err != nil {
		fatal("coordinator", err)
	}
	fmt.Fprintf(os.Stderr, "coordinator: %d shards covered %d zones in %v (%d restarts)\n",
		c.shards, res.TotalZones, time.Since(start).Round(time.Millisecond), res.Restarts)
	if c.dump != "" {
		fmt.Fprintf(os.Stderr, "coordinator: wrote merged observations to %s\n", c.dump)
	}
	if c.out == "none" {
		return
	}
	// The tables are the fold of the shard dumps in shard order.
	agg := report.NewAggregate()
	for _, path := range res.Dumps {
		f, err := os.Open(path)
		if err == nil {
			_, _, err = agg.Fold(f, res.Now, nil)
			f.Close()
		}
		if err != nil {
			fatal("coordinator", err)
		}
	}
	c.emit(agg)
}

// emit writes a finished run's -csv-dir series and -out artefact. With
// -out none (a shard worker) there is nothing to render: the worker's
// contribution lives in its dump.
func (c *command) emit(r *report.Aggregate) {
	if c.out == "none" {
		return
	}
	if c.csvDir != "" {
		if err := r.WriteCSVDir(c.csvDir); err != nil {
			fatal("csv", err)
		}
		fmt.Fprintf(os.Stderr, "wrote CSV series to %s\n", c.csvDir)
	}
	if err := r.WriteArtefact(os.Stdout, c.out); err != nil {
		fatal("out", err)
	}
}

// scan is the in-process scan: generate (or ingest), resume, stream,
// export, report. With -shard i/N it covers one partition only, and
// the {shard} placeholder in its file flags expands to "i-of-N".
func (c *command) scan() {
	shardIdx, shardN, err := shard.Parse(c.shardSpec)
	if err != nil {
		fatal("shard", err)
	}
	for _, p := range []*string{&c.dump, &c.checkpoint, &c.resume, &c.metricsOut, &c.traceOut} {
		*p = shard.PathFor(*p, shardIdx, shardN)
	}
	if c.opts.LossRate > 0 && c.opts.RetryAttempts <= 1 {
		fmt.Fprintln(os.Stderr, "warning: -loss without -retries > 1 will misclassify zones on dropped packets")
	}

	opts := c.opts
	if c.metricsOut != "" {
		opts.Registry = obs.NewRegistry()
	}
	if c.traceOut != "" {
		f, err := os.Create(c.traceOut)
		if err != nil {
			fatal("trace", err)
		}
		defer f.Close()
		opts.Tracer = obs.NewTracer(f)
	}
	if c.progress {
		opts.ProgressWriter = os.Stderr
	}

	genStart := time.Now()
	gcfg := ecosystem.Config{Seed: opts.Seed, ScaleDivisor: opts.ScaleDivisor}
	if c.year != 0 {
		gcfg.Profiles = ecosystem.ProfilesForEra(ecosystem.EraForYear(c.year))
	}
	world, err := ecosystem.Generate(gcfg)
	if err != nil {
		fatal("generating world", err)
	}
	targets := world.Targets
	if c.zonefile != "" {
		ingStart := time.Now()
		res, err := ingest.File(context.Background(), c.zonefile, ingest.Config{
			Origin:   c.zoneOrigin,
			Strict:   c.zoneStrict,
			Registry: opts.Registry,
		})
		if err != nil {
			fatal("zonefile", err)
		}
		targets = res.Targets
		st := res.Stats
		fmt.Fprintf(os.Stderr, "ingested %s: %d records -> %d targets (origin %s, %d skipped) in %v\n",
			c.zonefile, st.Records, st.Targets, st.Origin, st.Records-st.Targets, time.Since(ingStart).Round(time.Millisecond))
		for _, e := range st.FirstErrors {
			fmt.Fprintf(os.Stderr, "zonefile: skipped %s\n", e)
		}
	}
	if opts.MaxZones > 0 && len(targets) > opts.MaxZones {
		targets = targets[:opts.MaxZones]
	}
	opts.World, opts.Targets = world, targets
	// The shard owns the contiguous index range [rng.Lo, rng.Hi);
	// workers derive identical boundaries from (len(targets), N) alone,
	// so the coordinator never has to communicate them.
	rng := shard.Partition(len(targets), shardN)[shardIdx]
	fmt.Fprintf(os.Stderr, "generated %d zones across %d operators in %v\n",
		len(world.Targets), len(world.Operators()), time.Since(genStart).Round(time.Millisecond))
	if shardN > 1 {
		fmt.Fprintf(os.Stderr, "shard %d/%d owns zones [%d, %d)\n", shardIdx, shardN, rng.Lo, rng.Hi)
	}

	cfgFP, err := c.fingerprint()
	if err != nil {
		fatal("config", err)
	}

	// SIGINT/SIGTERM drain the pipeline gracefully: stop dispatching,
	// finish in-flight zones, flush the export and exit 0. A second
	// signal aborts immediately. The handler is in place before the
	// run header exists, so a signal that sees the header drains.
	drain := make(chan struct{})
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "interrupt: draining in-flight zones (interrupt again to abort)")
		close(drain)
		<-sigs
		os.Exit(130)
	}()

	header := &scan.Checkpoint{
		Version:    scan.CheckpointVersion,
		TotalZones: len(targets),
		Shard:      shardIdx,
		Shards:     shardN,
		Now:        world.Now,
		Config:     cfgFP,
	}
	startIndex := rng.Lo
	agg := report.NewAggregate()
	var dumpFile *os.File
	if c.resume != "" {
		var cut error
		dumpFile, startIndex, cut, err = c.resumeDump(header, agg, targets, rng)
		if err != nil {
			fatal("resume", err)
		}
		if cut != nil {
			fmt.Fprintf(os.Stderr, "resume: %s: %v; cut the dump there\n", c.dump, cut)
		}
		fmt.Fprintf(os.Stderr, "resuming at zone %d/%d from %s\n", startIndex, len(targets), c.resume)
	} else if c.dump != "" {
		if dumpFile, err = os.Create(c.dump); err != nil {
			fatal("dump", err)
		}
		if c.checkpoint != "" {
			if err := scan.WriteCheckpoint(c.checkpoint, header); err != nil {
				fatal("checkpoint", err)
			}
		}
	}
	var writer *scan.JSONLWriter
	if dumpFile != nil {
		writer = scan.NewJSONLWriter(dumpFile)
	}

	study, err := RunStream(context.Background(), StreamOptions{
		Options:    opts,
		StartIndex: startIndex,
		EndIndex:   rng.Hi,
		Resume:     agg,
		Drain:      drain,
		Sink: func(_ int, zo *scan.ZoneObservation, _ *classify.Result) error {
			if writer != nil {
				return writer.Write(zo)
			}
			return nil
		},
	})
	if err != nil {
		fatal("scan", err)
	}
	signal.Stop(sigs)
	fmt.Fprintf(os.Stderr, "scanned %d zones in %v (%d/%d exported)\n",
		study.Scanned, study.Elapsed.Round(time.Millisecond), study.NextIndex, study.TotalZones)

	if writer != nil {
		if err := writer.Flush(); err != nil {
			fatal("dump", err)
		}
		if err := dumpFile.Close(); err != nil {
			fatal("dump", err)
		}
		fmt.Fprintf(os.Stderr, "wrote observations to %s\n", c.dump)
	}

	if opts.Tracer != nil {
		if err := opts.Tracer.Close(); err != nil {
			fatal("trace", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d exchanges to %s\n", opts.Tracer.Events(), c.traceOut)
	}
	if opts.Registry != nil {
		f, err := os.Create(c.metricsOut)
		if err != nil {
			fatal("metrics", err)
		}
		if err := opts.Registry.WriteJSON(f); err != nil {
			fatal("metrics", err)
		}
		if err := f.Close(); err != nil {
			fatal("metrics", err)
		}
		fmt.Fprintf(os.Stderr, "wrote metrics snapshot to %s\n", c.metricsOut)
	}

	if study.Drained {
		// The run stopped early on purpose; partial tables would be
		// misleading, so just explain how to pick the scan back up.
		cpPath := c.checkpoint
		if c.resume != "" {
			cpPath = c.resume
		}
		if cpPath != "" {
			fmt.Fprintf(os.Stderr, "interrupted at zone %d/%d; continue with: dnssec-scan -resume %s [same flags]\n",
				study.NextIndex, study.TotalZones, cpPath)
		} else {
			fmt.Fprintf(os.Stderr, "interrupted at zone %d/%d (no -checkpoint: the scan cannot be resumed)\n",
				study.NextIndex, study.TotalZones)
		}
		return
	}
	c.emit(study.Report)
}

// resumeDump checks the run header at c.resume against the one this run
// would write, folds the complete records of the dump into agg — each
// must be the next zone of the shard's range — and cuts whatever
// follows them: a torn or undecodable tail is scanned again, which
// writes the same bodies. It returns the dump, positioned for appending,
// the first zone still to scan, and why the dump was cut, if it was.
func (c *command) resumeDump(header *scan.Checkpoint, agg *report.Aggregate, targets []string, rng shard.Range) (dump *os.File, next int, cut, err error) {
	cp, err := scan.ReadCheckpoint(c.resume)
	if err != nil {
		return nil, 0, nil, err
	}
	if err := cp.Validate(header); err != nil {
		return nil, 0, nil, err
	}
	f, err := os.OpenFile(c.dump, os.O_RDWR, 0)
	if err != nil {
		return nil, 0, nil, err
	}
	records, offset, err := agg.Fold(f, header.Now, func(k int, res *classify.Result) error {
		if k >= rng.Len() {
			return fmt.Errorf("dump %s holds more than the %d records of zones [%d, %d)", c.dump, rng.Len(), rng.Lo, rng.Hi)
		}
		if want := dnswire.CanonicalName(targets[rng.Lo+k]); res.Zone != want {
			return fmt.Errorf("dump %s: record %d is zone %s, but zone %d is %s", c.dump, k, res.Zone, rng.Lo+k, want)
		}
		return nil
	})
	if errors.Is(err, report.ErrIncomplete) {
		cut, err = err, nil
	}
	if err == nil {
		err = f.Truncate(offset)
	}
	if err == nil {
		_, err = f.Seek(offset, io.SeekStart)
	}
	if err != nil {
		f.Close()
		return nil, 0, nil, err
	}
	return f, rng.Lo + records, cut, nil
}
