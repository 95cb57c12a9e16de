// Command scanctl coordinates a sharded scan: it partitions the zone
// space into N contiguous shards, launches one `dnssec-scan -shard i/N`
// worker process per shard, restarts dead or wedged workers from their
// last durable checkpoint, and on completion merges the per-shard
// accumulator states and JSONL dumps into a single report and export:
// record bodies, headline and CSV series byte-identical to a
// single-process run over the same world (per-record cost and -out
// queries depend on the shard layout — each worker warms its own
// resolver cache).
//
// Usage:
//
//	scanctl -shards 4 -scale 2000 -run-dir run [-dump merged.jsonl] [-out all]
//
// The run directory holds shard-i-of-N.{ckpt,jsonl,log}; re-running
// scanctl with the same flags and run directory resumes unfinished
// shards from their checkpoints.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"dnssecboot/internal/obs"
	"dnssecboot/internal/report"
	"dnssecboot/internal/shard"
)

func fatal(prefix string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", prefix, err)
	os.Exit(1)
}

// findWorker locates the dnssec-scan binary: an explicit -worker path
// wins, then a sibling of the scanctl executable, then $PATH.
func findWorker(explicit string) (string, error) {
	if explicit != "" {
		return explicit, nil
	}
	if self, err := os.Executable(); err == nil {
		sibling := filepath.Join(filepath.Dir(self), "dnssec-scan")
		if _, err := os.Stat(sibling); err == nil {
			return sibling, nil
		}
	}
	if path, err := exec.LookPath("dnssec-scan"); err == nil {
		return path, nil
	}
	return "", fmt.Errorf("dnssec-scan binary not found next to scanctl or in PATH; point -worker at it")
}

func main() {
	var (
		shards       = flag.Int("shards", 4, "number of worker processes (contiguous zone partitions)")
		runDir       = flag.String("run-dir", "scanctl-run", "directory for per-shard checkpoints, dumps and logs")
		worker       = flag.String("worker", "", "path to the dnssec-scan binary (default: next to scanctl, then PATH)")
		maxRestarts  = flag.Int("max-restarts", 3, "restarts allowed per shard before the run fails")
		backoff      = flag.Duration("restart-backoff", 500*time.Millisecond, "delay before the first restart, doubling per attempt")
		stallTimeout = flag.Duration("stall-timeout", 5*time.Minute, "kill a worker whose checkpoint stalls this long (0 = off); must exceed the checkpoint cadence")
		killShard    = flag.Int("kill-shard", -1, "fault injection: SIGKILL this shard's worker once mid-run (tests and shard-smoke)")
		killAfter    = flag.Int("kill-after-zones", 1, "with -kill-shard: kill once the shard's checkpoint covers this many zones")
		progress     = flag.Bool("progress", false, "print a per-shard progress rollup to stderr")

		// World and scan flags, passed through to every worker.
		seed         = flag.Int64("seed", 1, "deterministic world/scan seed")
		scale        = flag.Int("scale", 2000, "divide the paper's population counts by this")
		year         = flag.Int("year", 0, "generate a historical epoch instead of the 2025 population")
		maxZones     = flag.Int("max-zones", 0, "scan at most this many zones (0 = all)")
		concurrency  = flag.Int("concurrency", 0, "parallel zone scans per worker (0 = NumCPU/shards)")
		shortCircuit = flag.Bool("short-circuit", false, "registry short-circuit: probe signals only for candidates")
		noSignals    = flag.Bool("no-signals", false, "skip RFC 9615 signal probes")
		rate         = flag.Float64("rate", 0, "queries/second per nameserver per worker (0 = unlimited)")
		loss         = flag.Float64("loss", 0, "inject this packet-loss probability on every simulated exchange")
		retries      = flag.Int("retries", 1, "query attempts per server for transient failures")
		chaosSeed    = flag.Int64("chaos-seed", 0, "seed for fault-injection and retry jitter (0 = use -seed)")
		cpEvery      = flag.Int("checkpoint-every", 256, "zones between worker checkpoints")

		// Merged outputs.
		dump   = flag.String("dump", "", "write the merged JSONL export (shard dumps concatenated in shard order) to this file")
		csvDir = flag.String("csv-dir", "", "also write table1/2/3 + figure1 as CSV files into this directory")
		out    = flag.String("out", "all", "artefact: "+report.ArtefactChoices("none"))
	)
	flag.Parse()
	if err := report.CheckArtefact(*out, "none"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *shards < 1 {
		fmt.Fprintln(os.Stderr, "-shards must be at least 1")
		os.Exit(2)
	}
	bin, err := findWorker(*worker)
	if err != nil {
		fatal("worker", err)
	}
	perWorker := *concurrency
	if perWorker <= 0 {
		if perWorker = runtime.NumCPU() / *shards; perWorker < 1 {
			perWorker = 1
		}
	}

	workerArgs := []string{
		"-seed", fmt.Sprint(*seed),
		"-scale", fmt.Sprint(*scale),
		"-concurrency", fmt.Sprint(perWorker),
		"-retries", fmt.Sprint(*retries),
		"-checkpoint-every", fmt.Sprint(*cpEvery),
	}
	if *year != 0 {
		workerArgs = append(workerArgs, "-year", fmt.Sprint(*year))
	}
	if *maxZones > 0 {
		workerArgs = append(workerArgs, "-max-zones", fmt.Sprint(*maxZones))
	}
	if *shortCircuit {
		workerArgs = append(workerArgs, "-short-circuit")
	}
	if *noSignals {
		workerArgs = append(workerArgs, "-no-signals")
	}
	if *rate != 0 {
		workerArgs = append(workerArgs, "-rate", fmt.Sprint(*rate))
	}
	if *loss != 0 {
		workerArgs = append(workerArgs, "-loss", fmt.Sprint(*loss))
	}
	if *chaosSeed != 0 {
		workerArgs = append(workerArgs, "-chaos-seed", fmt.Sprint(*chaosSeed))
	}

	var rollup *obs.ShardRollup
	if *progress {
		rollup = obs.NewShardRollup(os.Stderr, *shards)
	}

	// SIGINT/SIGTERM cancel the run context; workers are killed (their
	// checkpoints survive) and a re-run of scanctl resumes them.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	start := time.Now()
	res, err := shard.Run(ctx, shard.Config{
		Shards: *shards,
		RunDir: *runDir,
		Worker: shard.WorkerConfig{
			Bin:  bin,
			Args: workerArgs,
			Dump: *dump != "",
		},
		MergedDump:     *dump,
		MaxRestarts:    *maxRestarts,
		Backoff:        *backoff,
		StallTimeout:   *stallTimeout,
		KillShard:      *killShard,
		KillAfterZones: *killAfter,
		Rollup:         rollup,
		Log:            os.Stderr,
	})
	if err != nil {
		fatal("scanctl", err)
	}
	fmt.Fprintf(os.Stderr, "scanctl: %d shards covered %d zones in %v (%d restarts)\n",
		*shards, res.TotalZones, time.Since(start).Round(time.Millisecond), res.Restarts)
	if *dump != "" {
		fmt.Fprintf(os.Stderr, "scanctl: wrote merged observations to %s\n", *dump)
	}

	r := res.Aggregate
	if *out == "none" {
		return
	}
	if *csvDir != "" {
		if err := r.WriteCSVDir(*csvDir); err != nil {
			fatal("csv", err)
		}
		fmt.Fprintf(os.Stderr, "scanctl: wrote CSV series to %s\n", *csvDir)
	}
	if err := r.WriteArtefact(os.Stdout, *out); err != nil {
		fatal("out", err)
	}
}
