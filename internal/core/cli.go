package core

// The scan command. cmd/dnssec-scan and its alias cmd/scanctl are both
// Main: every scan flag is registered here once, backed by Options where
// the flag is an option. With -shards N the command coordinates N copies
// of its own executable, each scanning one -shard i/N partition, and
// forwards them every flag the user set except the coordinator-owned
// ones; the checkpoint fingerprint comes from the same registration.

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

	year, cpEvery                              int
	zonefile, zoneOrigin, dump, out, csvDir    string
	metricsOut, traceOut, traceZone, pprofAddr string
	checkpoint, resume, shardSpec              string
	progress, zoneStrict                       bool
	shards, maxRestarts, killShard, killAfter  int
	runDir                                     string
	backoff, stallTimeout                      time.Duration
}

// register defines every flag once. The flags registered before the
// fingerprint snapshot change what a scan observes: a checkpoint records
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
	fs.StringVar(&c.dump, "dump", "", "stream raw observations as JSON lines to this file (with -shards: the merged export)")
	fs.VisitAll(func(f *flag.Flag) { c.fingerprinted = append(c.fingerprinted, f.Name) })

	fs.IntVar(&o.Concurrency, "concurrency", runtime.NumCPU(), "parallel zone scans (with -shards N: per worker, default NumCPU/N)")
	fs.StringVar(&c.out, "out", "all", "artefact: "+report.ArtefactChoices("none"))
	fs.StringVar(&c.csvDir, "csv-dir", "", "also write table1/2/3 + figure1 as CSV files into this directory")
	fs.StringVar(&c.metricsOut, "metrics-out", "", "write a JSON metrics snapshot (counters, latency histograms) to this file after the scan")
	fs.StringVar(&c.traceOut, "trace-out", "", "write per-zone trace events as JSON lines to this file")
	fs.StringVar(&c.traceZone, "trace-zone", "", "restrict -trace-out to this zone's full decision trace")
	fs.BoolVar(&c.progress, "progress", false, "print live scan progress (zones/s, ETA, error rate) to stderr; with -shards a per-shard rollup")
	fs.StringVar(&c.pprofAddr, "pprof", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
	fs.StringVar(&c.checkpoint, "checkpoint", "", "periodically persist resumable scan state to this file")
	fs.IntVar(&c.cpEvery, "checkpoint-every", 256, "zones between checkpoints (with -checkpoint or -shards)")
	fs.StringVar(&c.resume, "resume", "", "resume an interrupted scan from this checkpoint file")
	fs.StringVar(&c.shardSpec, "shard", "", "scan only the i-th of N contiguous zone shards, as \"i/N\" (0-based); partitions are deterministic in the zone index")
	fs.BoolVar(&c.zoneStrict, "zonefile-strict", false, "abort -zonefile ingestion on the first malformed record instead of counting and skipping it")

	fs.IntVar(&c.shards, "shards", shards, "coordinate this many worker processes, one per contiguous zone partition (0 = scan in this process)")
	fs.StringVar(&c.runDir, "run-dir", "scanctl-run", "with -shards: directory for per-shard checkpoints, dumps and logs; re-running with it resumes unfinished shards")
	fs.IntVar(&c.maxRestarts, "max-restarts", 3, "with -shards: restarts allowed per shard before the run fails")
	fs.DurationVar(&c.backoff, "restart-backoff", 500*time.Millisecond, "with -shards: delay before the first restart, doubling per attempt")
	fs.DurationVar(&c.stallTimeout, "stall-timeout", 5*time.Minute, "with -shards: kill a worker whose checkpoint stalls this long (0 = off); must exceed the checkpoint cadence")
	fs.IntVar(&c.killShard, "kill-shard", -1, "with -shards, fault injection: SIGKILL this shard's worker once mid-run (tests and shard-smoke)")
	fs.IntVar(&c.killAfter, "kill-after-zones", 1, "with -kill-shard: kill once the shard's checkpoint covers this many zones")
}

// fingerprint is the checkpoint's record of the fingerprinted flags'
// values. -dump counts by presence: every shard dumps to its own file.
func (c *command) fingerprint() ([]byte, error) {
	fp := make(map[string]string, len(c.fingerprinted))
	for _, name := range c.fingerprinted {
		fp[name] = c.fs.Lookup(name).Value.String()
	}
	fp["dump"] = strconv.FormatBool(c.dump != "")
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
	if c.traceZone != "" && c.traceOut == "" {
		return errors.New("-trace-zone requires -trace-out")
	}
	if c.shards < 0 {
		return errors.New("-shards must not be negative")
	}
	if c.shards == 0 {
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
	// checkpoints survive) and a re-run with the same -run-dir resumes them.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	start := time.Now()
	res, err := shard.Run(ctx, shard.Config{
		Shards:         c.shards,
		RunDir:         c.runDir,
		Worker:         shard.WorkerConfig{Bin: self, Args: c.forwarded(), Dump: c.dump != ""},
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
	c.emit(res.Aggregate)
}

// emit writes a finished run's -csv-dir series and -out artefact. With
// -out none (a shard worker) there is nothing to render: the worker's
// contribution lives in its checkpoint and dump.
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

// scan is the in-process scan: generate (or ingest), stream, export,
// checkpoint, report. With -shard i/N it covers one partition only, and
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
	cpPath := c.checkpoint
	if cpPath == "" {
		// -resume alone keeps checkpointing to the same file.
		cpPath = c.resume
	}
	if cpPath != "" {
		// A kill inside WriteCheckpoint leaves its temporary behind.
		removed, err := scan.SweepCheckpointTemps(cpPath)
		if err != nil {
			fatal("checkpoint", err)
		}
		for _, name := range removed {
			fmt.Fprintf(os.Stderr, "removed orphaned checkpoint temporary %s\n", name)
		}
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
		opts.Tracer = obs.NewTracer(f, c.traceZone)
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

	// Resume: restore the accumulator, re-open the dump at the last
	// durable record, and continue from the checkpointed index.
	startIndex := rng.Lo
	agg := report.NewAggregate()
	var dumpFile *os.File
	var dumpBase int64
	if c.resume != "" {
		cp, err := scan.ReadCheckpoint(c.resume)
		if err != nil {
			fatal("resume", err)
		}
		if err := cp.Validate(opts.Seed, len(targets), shardIdx, shardN, cfgFP); err != nil {
			fatal("resume", err)
		}
		if len(cp.Aggregate) > 0 {
			if agg, err = report.UnmarshalState(cp.Aggregate); err != nil {
				fatal("resume", err)
			}
		}
		startIndex = cp.NextIndex
		if startIndex < rng.Lo || startIndex > rng.Hi {
			fatal("resume", fmt.Errorf("checkpoint index %d outside shard range [%d, %d]", startIndex, rng.Lo, rng.Hi))
		}
		if c.dump != "" {
			f, err := os.OpenFile(c.dump, os.O_RDWR, 0o644)
			if err != nil {
				fatal("resume", err)
			}
			// Records written after the last checkpoint are not covered
			// by it; truncate them away and re-scan those zones instead
			// of exporting duplicates. A dump shorter than the checkpoint
			// lost records it covers: Truncate would pad it with zeros.
			st, err := f.Stat()
			if err == nil && st.Size() < cp.DumpBytes {
				err = fmt.Errorf("dump %s is %d bytes, shorter than the checkpoint's dump_bytes %d", c.dump, st.Size(), cp.DumpBytes)
			}
			if err != nil {
				fatal("resume", err)
			}
			if err := f.Truncate(cp.DumpBytes); err != nil {
				fatal("resume", err)
			}
			if _, err := f.Seek(cp.DumpBytes, io.SeekStart); err != nil {
				fatal("resume", err)
			}
			dumpFile = f
			dumpBase = cp.DumpBytes
		}
		fmt.Fprintf(os.Stderr, "resuming at zone %d/%d from %s\n", startIndex, len(targets), c.resume)
	} else if c.dump != "" {
		f, err := os.Create(c.dump)
		if err != nil {
			fatal("dump", err)
		}
		dumpFile = f
	}

	var writer *scan.JSONLWriter
	if dumpFile != nil {
		writer = scan.NewJSONLWriter(dumpFile)
	}

	writeCheckpoint := func(next int) error {
		if writer != nil {
			if err := writer.Flush(); err != nil {
				return err
			}
		}
		state, err := agg.MarshalState()
		if err != nil {
			return err
		}
		cp := &scan.Checkpoint{
			Version:    scan.CheckpointVersion,
			Seed:       opts.Seed,
			ChaosSeed:  opts.ChaosSeed,
			TotalZones: len(targets),
			Shard:      shardIdx,
			Shards:     shardN,
			NextIndex:  next,
			Config:     cfgFP,
			Aggregate:  state,
		}
		if writer != nil {
			cp.DumpBytes = dumpBase + writer.Bytes()
		}
		return scan.WriteCheckpoint(cpPath, cp)
	}

	// SIGINT/SIGTERM drain the pipeline gracefully: stop dispatching,
	// finish in-flight zones, flush the export, take a final checkpoint
	// and exit 0. A second signal aborts immediately.
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

	study, err := RunStream(context.Background(), StreamOptions{
		Options:    opts,
		StartIndex: startIndex,
		EndIndex:   rng.Hi,
		Resume:     agg,
		Drain:      drain,
		Sink: func(i int, zo *scan.ZoneObservation, _ *classify.Result) error {
			if writer != nil {
				if err := writer.Write(zo); err != nil {
					return err
				}
			}
			if cpPath != "" && c.cpEvery > 0 && (i+1-startIndex)%c.cpEvery == 0 && i+1 < rng.Hi {
				return writeCheckpoint(i + 1)
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
	}
	if cpPath != "" {
		if err := writeCheckpoint(study.NextIndex); err != nil {
			fatal("checkpoint", err)
		}
		fmt.Fprintf(os.Stderr, "wrote checkpoint to %s\n", cpPath)
	}
	if dumpFile != nil {
		if err := dumpFile.Close(); err != nil {
			fatal("dump", err)
		}
		fmt.Fprintf(os.Stderr, "wrote observations to %s\n", c.dump)
	}

	if opts.Tracer != nil {
		if err := opts.Tracer.Close(); err != nil {
			fatal("trace", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d trace events to %s\n", opts.Tracer.Events(), c.traceOut)
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
