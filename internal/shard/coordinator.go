package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"time"

	"dnssecboot/internal/obs"
	"dnssecboot/internal/scan"
)

// WorkerConfig describes how to invoke one shard worker process.
type WorkerConfig struct {
	// Bin is the scan binary; the scan command passes its own
	// executable.
	Bin string
	// Args are the scan flags every shard shares (-seed, -scale,
	// -retries, ...). Run appends the per-shard pieces:
	// -shard i/N, -checkpoint, -dump, -out none and, on restart,
	// -resume.
	Args []string
}

// Config drives one coordinated sharded scan.
type Config struct {
	// Shards is the number of worker processes (contiguous partitions).
	Shards int
	// RunDir holds per-shard run headers, dumps and logs. Created if
	// absent; reusing a previous run's directory resumes its shards
	// from their dumps.
	RunDir string
	// Worker is the worker process template.
	Worker WorkerConfig
	// MergedDump, when non-empty, receives the shard dumps
	// concatenated in shard order — record bodies byte-identical to a
	// single-process export of the same world.
	MergedDump string
	// MaxRestarts bounds restarts per shard; a shard that dies more
	// often fails the whole run.
	MaxRestarts int
	// Backoff is the delay before the first restart, doubling per
	// subsequent attempt up to MaxBackoff (default 30s).
	Backoff    time.Duration
	MaxBackoff time.Duration
	// StallTimeout kills and restarts a worker whose dump stops
	// growing for this long (0 disables). It must comfortably exceed a
	// worker's world generation, or healthy shards get shot.
	StallTimeout time.Duration
	// KillShard, when >= 0, SIGKILLs that shard's worker once its dump
	// holds KillAfterZones complete records — fault injection for the
	// conformance battery and `make shard-smoke`.
	KillShard      int
	KillAfterZones int
	// Rollup receives per-shard progress; nil disables reporting.
	Rollup *obs.ShardRollup
	// Log receives coordinator diagnostics (restarts, kills); nil
	// discards them.
	Log io.Writer
}

// Result summarises a completed coordinated scan.
type Result struct {
	// Dumps are the shard dumps in shard order: folded one after the
	// other (report.Aggregate.Fold), they give the accumulator of a
	// single-process run over the whole zone list.
	Dumps []string
	// Now is the world clock every shard's header agreed on, the time
	// to fold the dumps at.
	Now time.Time
	// TotalZones is the world size every shard agreed on.
	TotalZones int
	// Restarts counts worker restarts across all shards.
	Restarts int
}

type coordinator struct {
	cfg Config

	mu       sync.Mutex
	procs    map[int]*os.Process // live worker processes, for the watcher
	states   []string            // obs.Shard* lifecycle per shard
	restarts int
}

// Run partitions the scan across cfg.Shards worker processes, supervises
// them to completion and checks their headers and dumps. On success the
// returned dumps hold, in order, the records a single-process run over
// the whole zone list would have written; with cfg.MergedDump their
// concatenation lands there too.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("shard: need at least 1 shard, got %d", cfg.Shards)
	}
	if cfg.Worker.Bin == "" {
		return nil, fmt.Errorf("shard: no worker binary configured")
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 500 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 30 * time.Second
	}
	if err := os.MkdirAll(cfg.RunDir, 0o755); err != nil {
		return nil, fmt.Errorf("shard: run dir: %w", err)
	}

	c := &coordinator{
		cfg:    cfg,
		procs:  make(map[int]*os.Process),
		states: make([]string, cfg.Shards),
	}
	for i := range c.states {
		c.states[i] = obs.ShardPending
	}

	// Supervise every shard; the first terminal failure cancels the
	// rest so the run fails fast instead of finishing doomed work.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	stop, watched := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(watched)
		c.watch(stop)
	}()
	errs := make([]error, cfg.Shards)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := c.superviseShard(runCtx, i); err != nil {
				errs[i] = err
				cancel()
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	<-watched
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res, err := c.merge()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	res.Restarts = c.restarts
	c.mu.Unlock()
	return res, nil
}

// file names shard i's file in the run directory: shard-i-of-N.ckpt
// (its run header), .jsonl (its dump) or .log (its worker's output,
// appended across restarts).
func (c *coordinator) file(i int, ext string) string {
	return filepath.Join(c.cfg.RunDir, fmt.Sprintf("shard-%d-of-%d.%s", i, c.cfg.Shards, ext))
}

func (c *coordinator) logf(format string, args ...any) {
	if c.cfg.Log != nil {
		fmt.Fprintf(c.cfg.Log, "coordinator: "+format+"\n", args...)
	}
}

func (c *coordinator) setState(i int, s string) {
	c.mu.Lock()
	c.states[i] = s
	c.mu.Unlock()
}

// superviseShard runs shard i's worker to completion, restarting it
// from its dump (exponential backoff, bounded budget) whenever it dies
// or wedges before finishing its range.
func (c *coordinator) superviseShard(ctx context.Context, i int) error {
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			delay := c.cfg.Backoff << (attempt - 1)
			if delay > c.cfg.MaxBackoff {
				delay = c.cfg.MaxBackoff
			}
			c.logf("shard %d/%d: restart %d/%d in %v", i, c.cfg.Shards, attempt, c.cfg.MaxRestarts, delay)
			c.setState(i, obs.ShardRestarting)
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(delay):
			}
			c.mu.Lock()
			c.restarts++
			c.mu.Unlock()
		}
		err := c.runWorkerOnce(ctx, i)
		if err == nil {
			done, derr := c.shardComplete(i)
			if derr != nil {
				err = derr
			} else if done {
				c.setState(i, obs.ShardDone)
				return nil
			} else {
				// A clean exit short of the range end (e.g. the worker
				// was SIGINT-drained) leaves a valid dump prefix; treat
				// it like a death and resume.
				err = fmt.Errorf("worker exited before completing its range")
			}
		}
		if ctx.Err() != nil {
			c.setState(i, obs.ShardFailed)
			return ctx.Err()
		}
		if attempt >= c.cfg.MaxRestarts {
			c.setState(i, obs.ShardFailed)
			return fmt.Errorf("shard %d/%d: giving up after %d attempts: %w", i, c.cfg.Shards, attempt+1, err)
		}
		c.logf("shard %d/%d: worker died: %v", i, c.cfg.Shards, err)
	}
}

// runWorkerOnce launches one worker process for shard i and waits for
// it. A run header left by a previous attempt is resumed; worker output
// is appended to the shard log.
func (c *coordinator) runWorkerOnce(ctx context.Context, i int) error {
	cpPath := c.file(i, "ckpt")
	args := append([]string{}, c.cfg.Worker.Args...)
	args = append(args,
		"-shard", fmt.Sprintf("%d/%d", i, c.cfg.Shards),
		"-checkpoint", cpPath,
		"-dump", c.file(i, "jsonl"),
		"-out", "none",
	)
	if _, err := os.Stat(cpPath); err == nil {
		args = append(args, "-resume", cpPath)
	}

	logFile, err := os.OpenFile(c.file(i, "log"),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("shard %d log: %w", i, err)
	}
	defer logFile.Close()

	cmd := exec.CommandContext(ctx, c.cfg.Worker.Bin, args...)
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	defer tieToCoordinator(cmd)()
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("shard %d: starting worker: %w", i, err)
	}
	c.mu.Lock()
	c.procs[i] = cmd.Process
	c.mu.Unlock()
	c.setState(i, obs.ShardRunning)

	err = cmd.Wait()
	c.mu.Lock()
	delete(c.procs, i)
	c.mu.Unlock()
	if err != nil {
		return fmt.Errorf("shard %d worker: %w", i, err)
	}
	return nil
}

// dumpWatch is what the watcher has read of one shard's dump since
// that shard's current worker started.
type dumpWatch struct {
	proc    *os.Process
	read    int64     // bytes counted
	records int       // the newlines among them: complete records
	grew    time.Time // when read last moved
	total   int       // the range length, from the write-once run header
}

// watch polls the shard dumps until stop is closed. A dump is the only
// progress signal that survives the process boundary: the stall
// watchdog kills a worker whose dump stops growing (a wedged shard —
// deadlock, livelock, unkillable query — looks exactly like a slow one
// from the outside), the injected kill fires on its record count, and
// the rollup shows it. A last poll after stop renders every shard's
// terminal position: short runs can finish between ticks.
func (c *coordinator) watch(stop <-chan struct{}) {
	watched := make([]dumpWatch, c.cfg.Shards)
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	var rendered time.Time
	for {
		select {
		case <-stop:
			c.poll(watched, time.Now())
			c.cfg.Rollup.Render()
			return
		case now := <-tick.C:
			c.poll(watched, now)
			if now.Sub(rendered) >= time.Second {
				c.cfg.Rollup.Render()
				rendered = now
			}
		}
	}
}

// poll counts what each shard's dump gained since the last poll and
// acts on it. The count starts over with each worker, since a resuming
// worker cuts a torn tail off its dump, and whenever the dump is found
// shorter than what was counted. The injected kill fires once: it
// clears cfg.KillShard, which only the watcher reads.
func (c *coordinator) poll(watched []dumpWatch, now time.Time) {
	for i := range watched {
		w := &watched[i]
		c.mu.Lock()
		proc, state := c.procs[i], c.states[i]
		c.mu.Unlock()
		if proc != w.proc {
			*w = dumpWatch{proc: proc, grew: now, total: w.total}
		}
		path := c.file(i, "jsonl")
		if st, err := os.Stat(path); err == nil && st.Size() != w.read {
			if st.Size() < w.read {
				w.read, w.records = 0, 0
			}
			if records, size, _, err := countRecords(path, w.read); err == nil {
				w.records += records
				w.read, w.grew = size, now
			}
		}
		if w.total == 0 {
			if cp, err := scan.ReadCheckpoint(c.file(i, "ckpt")); err == nil {
				w.total = Partition(cp.TotalZones, c.cfg.Shards)[i].Len()
			}
		}
		c.cfg.Rollup.Update(i, w.records, w.total, state)
		if proc == nil {
			continue
		}
		switch {
		case c.cfg.StallTimeout > 0 && now.Sub(w.grew) >= c.cfg.StallTimeout:
			c.logf("shard %d/%d: dump has not grown for %v, killing wedged worker", i, c.cfg.Shards, c.cfg.StallTimeout)
			_ = proc.Kill()
			w.grew = now
		case i == c.cfg.KillShard && w.records >= max(c.cfg.KillAfterZones, 1) && w.records < w.total:
			c.cfg.KillShard = -1
			c.logf("shard %d/%d: injecting kill at %d records", i, c.cfg.Shards, w.records)
			_ = proc.Kill()
		}
	}
}
