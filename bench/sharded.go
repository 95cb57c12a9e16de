package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"syscall"
	"time"

	"dnssecboot/internal/classify"
	"dnssecboot/internal/dnswire"
	"dnssecboot/internal/ecosystem"
	"dnssecboot/internal/scan"
)

// scan-sharded: the built scanctl coordinating two dnssec-scan worker
// processes, with its defaults, through its stable flags only. It is
// the reproducible, restartable path operators run: every worker
// regenerates the world and scans its partition, and the coordinator
// merges the shard dumps. World generation is inside the timed region
// because scanctl users pay it on every run.

// shardRep is what one scanctl run measured.
type shardRep struct {
	zones, wrong int
	queries      int64
	wall, cpu    time.Duration
	rssMB        float64
	restarts     int
	dumpBytes    int64
}

var restartsRE = regexp.MustCompile(`\((\d+) restarts\)`)

// runTimeout bounds one child process well inside the 180 s a run has.
const runTimeout = 150 * time.Second

// scanctlRep runs scanctl once into a fresh run directory and checks
// the merged dump against world, generated here at the same seed and
// scale.
func scanctlRep(r *run, world *ecosystem.Ecosystem, scale int) (shardRep, error) {
	var rep shardRep
	runDir := filepath.Join(r.outDir, "scanctl-run")
	if err := os.RemoveAll(runDir); err != nil {
		return rep, err
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return rep, err
	}
	merged := filepath.Join(runDir, "merged.jsonl")
	main := r.tr.main()
	id := main.begin("scanctl.run", 0, "shards=2")
	t0 := time.Now()
	c, err := runProcess(r.ctx, runTimeout, filepath.Join(r.binDir, "scanctl"),
		"-shards", "2", "-scale", strconv.Itoa(scale), "-seed", strconv.FormatInt(r.seed, 10),
		"-run-dir", runDir, "-dump", merged, "-out", "none")
	rep.wall = time.Since(t0)
	main.end(id)
	if err != nil {
		return rep, err
	}
	// The wait status carries the usage of the whole tree scanctl
	// waited for: CPU summed, resident set of its largest process.
	rep.cpu = c.state.UserTime() + c.state.SystemTime()
	rep.rssMB = float64(c.state.SysUsage().(*syscall.Rusage).Maxrss) / 1024
	if m := restartsRE.FindSubmatch(c.stderr.Bytes()); m != nil {
		rep.restarts, _ = strconv.Atoi(string(m[1]))
	}

	id = main.begin("bench.verify", 0, "merged.jsonl")
	defer main.end(id)
	f, err := os.Open(merged)
	if err != nil {
		return rep, err
	}
	defer f.Close()
	if fi, err := f.Stat(); err == nil {
		rep.dumpBytes = fi.Size()
	}
	classifier := classify.New(world.Now)
	err = scan.DecodeJSONL(f, func(o scan.ObservationJSON) error {
		if rep.zones >= len(world.Targets) || o.Zone != dnswire.CanonicalName(world.Targets[rep.zones]) {
			return fmt.Errorf("verification failed: record %d is %s, not the world's zone at that position", rep.zones, o.Zone)
		}
		zo, err := scan.FromJSON(o)
		if err != nil {
			return fmt.Errorf("verification failed: record %d (%s): %w", rep.zones, o.Zone, err)
		}
		if wrongStatus(world, o.Zone, classifier.Classify(zo).Status) {
			rep.wrong++
		}
		rep.queries += o.Queries
		rep.zones++
		return nil
	})
	if err != nil {
		return rep, err
	}
	if rep.zones != len(world.Targets) {
		return rep, fmt.Errorf("verification failed: merged dump holds %d zones, the world %d", rep.zones, len(world.Targets))
	}
	return rep, nil
}

func runSharded(r *run) error {
	scale := 20_000 // 14 470 zones
	if r.quick {
		scale = 200_000
	}
	// Set-up is the reference world the output is checked against; the
	// workers' own generation is part of every timed repetition.
	world, err := r.generate(scale)
	if err != nil {
		return err
	}

	if r.trace {
		rep, err := scanctlRep(r, world, scale)
		if err != nil {
			return err
		}
		r.attempted, r.failed = int64(rep.zones), int64(rep.wrong)
		r.add("shard.scanctl_wall_s", rep.wall.Seconds())
		r.add("shard.scanctl_cpu_s", rep.cpu.Seconds())
		r.add("shard.worker_restarts", float64(rep.restarts))
		r.add("shard.dump_mb", float64(rep.dumpBytes)/(1<<20))
		return nil
	}

	return r.repeat(func(timed bool) error {
		rep, err := scanctlRep(r, world, scale)
		if err != nil || !timed {
			return err
		}
		r.attempted += int64(rep.zones)
		r.failed += int64(rep.wrong)
		zones := float64(rep.zones)
		r.add("ops_per_s", zones/rep.wall.Seconds())
		r.add("cpu_us_per_op", float64(rep.cpu.Microseconds())/zones)
		r.add("queries_per_op", float64(rep.queries)/zones)
		r.add("peak_rss_mb", rep.rssMB)
		return nil
	})
}
