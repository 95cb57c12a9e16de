// Command dnssec-scan reproduces the paper's measurement: it generates
// the synthetic DNS ecosystem, runs the YoDNS-style scan over it, and
// prints the evaluation artefacts (the §4.1 headline, Tables 1–3,
// Figure 1, the §4.2 CDS findings and the Appendix-D query
// accounting).
//
// Usage:
//
//	dnssec-scan [-scale 2000] [-seed 1] [-concurrency 16] [-out table3]
//
// -scale divides the paper's population counts; -out selects one
// artefact (default: all).
//
// The scan streams: each zone's observation is classified, folded into
// the report tallies and (with -dump) appended to the JSONL export as
// soon as its turn in the target order arrives, so memory stays bounded
// by the concurrency window regardless of -scale. With -checkpoint the
// durable prefix is recorded periodically; an interrupted run (crash or
// SIGINT, which drains in-flight zones gracefully) continues with
// -resume from exactly where the export stopped.
//
// With -shard i/N the process scans only the i-th of N contiguous
// partitions of the zone space (deterministic in the zone index), which
// is how cmd/scanctl fans one scan out across worker processes; the
// {shard} placeholder in -dump/-checkpoint and friends expands to
// "i-of-N" so one template names per-shard files.
//
// With -zonefile the target list comes from a real zone dump (CZDS
// download / AXFR capture, plain or gzipped) reduced to registrable
// delegated domains by internal/ingest, instead of from the synthetic
// generator; -shard then partitions the ingested list. The -seed/-scale
// world still provides the simulated network the targets are resolved
// against (an ingested name that exists in the world classifies
// normally; unknown names observe NXDOMAIN).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof handlers on DefaultServeMux
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	_ "expvar" // registers /debug/vars on DefaultServeMux

	"dnssecboot/internal/classify"
	"dnssecboot/internal/core"
	"dnssecboot/internal/ecosystem"
	"dnssecboot/internal/ingest"
	"dnssecboot/internal/obs"
	"dnssecboot/internal/report"
	"dnssecboot/internal/scan"
	"dnssecboot/internal/shard"
)

// runConfig is the flag fingerprint embedded in checkpoints. A resume
// with a different fingerprint is refused: these flags change what the
// scan observes, so mixing them in one export would corrupt it.
// Concurrency is deliberately absent — it changes scheduling, never
// per-zone results.
type runConfig struct {
	Seed         int64   `json:"seed"`
	Scale        int     `json:"scale"`
	Year         int     `json:"year,omitempty"`
	MaxZones     int     `json:"max_zones,omitempty"`
	ShortCircuit bool    `json:"short_circuit,omitempty"`
	NoSignals    bool    `json:"no_signals,omitempty"`
	Rate         float64 `json:"rate,omitempty"`
	Loss         float64 `json:"loss,omitempty"`
	Retries      int     `json:"retries,omitempty"`
	ChaosSeed    int64   `json:"chaos_seed,omitempty"`
	CacheNegTTL  string  `json:"cache_neg_ttl,omitempty"`
	Dump         bool    `json:"dump,omitempty"`
	ZoneFile     string  `json:"zonefile,omitempty"`
	ZoneOrigin   string  `json:"zonefile_origin,omitempty"`
}

func fatal(prefix string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", prefix, err)
	os.Exit(1)
}

func main() {
	var (
		seed         = flag.Int64("seed", 1, "deterministic world/scan seed")
		scale        = flag.Int("scale", 2000, "divide the paper's population counts by this")
		concurrency  = flag.Int("concurrency", runtime.NumCPU(), "parallel zone scans")
		out          = flag.String("out", "all", "artefact: "+report.ArtefactChoices("none"))
		shortCircuit = flag.Bool("short-circuit", false, "registry short-circuit: probe signals only for candidates (Appendix D)")
		maxZones     = flag.Int("max-zones", 0, "scan at most this many zones (0 = all)")
		rate         = flag.Float64("rate", 0, "queries/second per nameserver (0 = unlimited; the paper used 50)")
		noSignals    = flag.Bool("no-signals", false, "skip RFC 9615 signal probes")
		dump         = flag.String("dump", "", "stream raw observations as JSON lines to this file")
		year         = flag.Int("year", 0, "generate a historical epoch instead of the 2025 population (e.g. 2017)")
		csvDir       = flag.String("csv-dir", "", "also write table1/2/3 + figure1 as CSV files into this directory")
		loss         = flag.Float64("loss", 0, "inject this packet-loss probability on every simulated exchange (e.g. 0.02)")
		retries      = flag.Int("retries", 1, "query attempts per server for transient failures (1 = no retries)")
		chaosSeed    = flag.Int64("chaos-seed", 0, "seed for fault-injection and retry jitter (0 = use -seed)")
		cacheNegTTL  = flag.Duration("cache-neg-ttl", time.Minute, "how long NXDOMAIN/lame results are served from the negative cache")
		metricsOut   = flag.String("metrics-out", "", "write a JSON metrics snapshot (counters, latency histograms) to this file after the scan")
		traceOut     = flag.String("trace-out", "", "write per-zone trace events as JSON lines to this file")
		traceZone    = flag.String("trace-zone", "", "restrict -trace-out to this zone's full decision trace")
		progress     = flag.Bool("progress", false, "print live scan progress (zones/s, ETA, error rate) to stderr")
		pprofAddr    = flag.String("pprof", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
		checkpoint   = flag.String("checkpoint", "", "periodically persist resumable scan state to this file")
		cpEvery      = flag.Int("checkpoint-every", 256, "zones between checkpoints (with -checkpoint)")
		resume       = flag.String("resume", "", "resume an interrupted scan from this checkpoint file")
		shardSpec    = flag.String("shard", "", "scan only the i-th of N contiguous zone shards, as \"i/N\" (0-based); partitions are deterministic in the zone index")
		zonefile     = flag.String("zonefile", "", "ingest scan targets from this zone dump (master-file/AXFR dump, plain or gzip) instead of the generator's target list; -seed/-scale still shape the simulated network the targets are scanned against")
		zoneOrigin   = flag.String("zonefile-origin", "", "apex of the -zonefile dump (default: autodetect from $ORIGIN or the first SOA)")
		zoneStrict   = flag.Bool("zonefile-strict", false, "abort -zonefile ingestion on the first malformed record instead of counting and skipping it")
	)
	flag.Parse()
	if err := report.CheckArtefact(*out, "none"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *zonefile != "" && *year != 0 {
		fmt.Fprintln(os.Stderr, "-zonefile and -year are mutually exclusive: the target list comes from the dump, not the synthetic population")
		os.Exit(2)
	}
	shardIdx, shardN, err := shard.Parse(*shardSpec)
	if err != nil {
		fatal("shard", err)
	}
	// Shard-aware file naming: one -dump/-checkpoint/... template can
	// serve every worker — the {shard} placeholder expands to "i-of-N".
	for _, p := range []*string{dump, checkpoint, resume, metricsOut, traceOut} {
		*p = shard.PathFor(*p, shardIdx, shardN)
	}
	if *loss > 0 && *retries <= 1 {
		fmt.Fprintln(os.Stderr, "warning: -loss without -retries > 1 will misclassify zones on dropped packets")
	}
	if *traceZone != "" && *traceOut == "" {
		fmt.Fprintln(os.Stderr, "-trace-zone requires -trace-out")
		os.Exit(2)
	}
	cpPath := *checkpoint
	if cpPath == "" {
		// -resume alone keeps checkpointing to the same file.
		cpPath = *resume
	}

	var registry *obs.Registry
	if *metricsOut != "" {
		registry = obs.NewRegistry()
	}
	var tracer *obs.Tracer
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal("trace", err)
		}
		defer f.Close()
		tracer = obs.NewTracer(f, *traceZone)
	}
	var progressW io.Writer
	if *progress {
		progressW = os.Stderr
	}
	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "pprof:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "pprof: serving /debug/pprof and /debug/vars on %s\n", *pprofAddr)
	}

	genStart := time.Now()
	gcfg := ecosystem.Config{Seed: *seed, ScaleDivisor: *scale}
	if *year != 0 {
		gcfg.Profiles = ecosystem.ProfilesForEra(ecosystem.EraForYear(*year))
	}
	world, err := ecosystem.Generate(gcfg)
	if err != nil {
		fatal("generating world", err)
	}
	targets := world.Targets
	if *zonefile != "" {
		ingStart := time.Now()
		res, err := ingest.File(context.Background(), *zonefile, ingest.Config{
			Origin:   *zoneOrigin,
			Strict:   *zoneStrict,
			Registry: registry,
		})
		if err != nil {
			fatal("zonefile", err)
		}
		targets = res.Targets
		st := res.Stats
		fmt.Fprintf(os.Stderr, "ingested %s: %d records -> %d targets (origin %s, %d skipped) in %v\n",
			*zonefile, st.Records, st.Targets, st.Origin, st.Records-st.Targets, time.Since(ingStart).Round(time.Millisecond))
		for _, e := range st.FirstErrors {
			fmt.Fprintf(os.Stderr, "zonefile: skipped %s\n", e)
		}
	}
	if *maxZones > 0 && len(targets) > *maxZones {
		targets = targets[:*maxZones]
	}
	// The shard owns the contiguous index range [rng.Lo, rng.Hi);
	// workers derive identical boundaries from (len(targets), N) alone,
	// so the coordinator never has to communicate them.
	rng := shard.Partition(len(targets), shardN)[shardIdx]
	fmt.Fprintf(os.Stderr, "generated %d zones across %d operators in %v\n",
		len(world.Targets), len(world.Operators()), time.Since(genStart).Round(time.Millisecond))
	if shardN > 1 {
		fmt.Fprintf(os.Stderr, "shard %d/%d owns zones [%d, %d)\n", shardIdx, shardN, rng.Lo, rng.Hi)
	}

	cfgFP, err := json.Marshal(runConfig{
		Seed:         *seed,
		Scale:        *scale,
		Year:         *year,
		MaxZones:     *maxZones,
		ShortCircuit: *shortCircuit,
		NoSignals:    *noSignals,
		Rate:         *rate,
		Loss:         *loss,
		Retries:      *retries,
		ChaosSeed:    *chaosSeed,
		CacheNegTTL:  cacheNegTTL.String(),
		Dump:         *dump != "",
		ZoneFile:     *zonefile,
		ZoneOrigin:   *zoneOrigin,
	})
	if err != nil {
		fatal("config", err)
	}

	// Resume: restore the accumulator, re-open the dump at the last
	// durable record, and continue from the checkpointed index.
	startIndex := rng.Lo
	agg := report.NewAggregate()
	var dumpFile *os.File
	var dumpBase int64
	if *resume != "" {
		cp, err := scan.ReadCheckpoint(*resume)
		if err != nil {
			fatal("resume", err)
		}
		if err := cp.Validate(*seed, len(targets), shardIdx, shardN); err != nil {
			fatal("resume", err)
		}
		// The checkpoint file is written indented, so compact the stored
		// fingerprint before comparing it to the freshly-marshalled one.
		var stored bytes.Buffer
		if err := json.Compact(&stored, cp.Config); err != nil {
			fatal("resume", fmt.Errorf("checkpoint config fingerprint: %w", err))
		}
		if !bytes.Equal(stored.Bytes(), cfgFP) {
			fatal("resume", fmt.Errorf("checkpoint was taken with different flags: %s", stored.Bytes()))
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
		if *dump != "" {
			f, err := os.OpenFile(*dump, os.O_RDWR, 0o644)
			if err != nil {
				fatal("resume", err)
			}
			// Records written after the last checkpoint are not covered
			// by it; truncate them away and re-scan those zones instead
			// of exporting duplicates.
			if err := f.Truncate(cp.DumpBytes); err != nil {
				fatal("resume", err)
			}
			if _, err := f.Seek(cp.DumpBytes, io.SeekStart); err != nil {
				fatal("resume", err)
			}
			dumpFile = f
			dumpBase = cp.DumpBytes
		}
		fmt.Fprintf(os.Stderr, "resuming at zone %d/%d from %s\n", startIndex, len(targets), *resume)
	} else if *dump != "" {
		f, err := os.Create(*dump)
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
			Seed:       *seed,
			ChaosSeed:  *chaosSeed,
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

	study, err := core.RunStream(context.Background(), core.StreamOptions{
		Options: core.Options{
			Seed:                  *seed,
			World:                 world,
			Targets:               targets,
			Concurrency:           *concurrency,
			SignalOnlyCandidates:  *shortCircuit,
			DisableSignalProbes:   *noSignals,
			MaxZones:              *maxZones,
			QueriesPerSecondPerNS: *rate,
			LossRate:              *loss,
			RetryAttempts:         *retries,
			ChaosSeed:             *chaosSeed,
			CacheNegTTL:           *cacheNegTTL,
			Registry:              registry,
			Tracer:                tracer,
			ProgressWriter:        progressW,
		},
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
			if cpPath != "" && *cpEvery > 0 && (i+1-startIndex)%*cpEvery == 0 && i+1 < rng.Hi {
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
		fmt.Fprintf(os.Stderr, "wrote observations to %s\n", *dump)
	}

	if tracer != nil {
		if err := tracer.Close(); err != nil {
			fatal("trace", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d trace events to %s\n", tracer.Events(), *traceOut)
	}
	if registry != nil {
		f, err := os.Create(*metricsOut)
		if err != nil {
			fatal("metrics", err)
		}
		if err := registry.WriteJSON(f); err != nil {
			fatal("metrics", err)
		}
		if err := f.Close(); err != nil {
			fatal("metrics", err)
		}
		fmt.Fprintf(os.Stderr, "wrote metrics snapshot to %s\n", *metricsOut)
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

	r := study.Report
	if *out == "none" {
		// A shard worker's partial tables would be misleading; its
		// contribution lives in the checkpoint state and the dump, which
		// the coordinator merges.
		return
	}
	if *csvDir != "" {
		if err := r.WriteCSVDir(*csvDir); err != nil {
			fatal("csv", err)
		}
		fmt.Fprintf(os.Stderr, "wrote CSV series to %s\n", *csvDir)
	}
	if err := r.WriteArtefact(os.Stdout, *out); err != nil {
		fatal("out", err)
	}
}
