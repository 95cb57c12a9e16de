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
	"dnssecboot/internal/report"
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
	// Dump asks every worker for a per-shard JSONL export, merged into
	// Config.MergedDump afterwards.
	Dump bool
}

// Config drives one coordinated sharded scan.
type Config struct {
	// Shards is the number of worker processes (contiguous partitions).
	Shards int
	// RunDir holds per-shard checkpoints, dumps and logs. Created if
	// absent; reusing a previous run's directory resumes its shards
	// from their checkpoints.
	RunDir string
	// Worker is the worker process template.
	Worker WorkerConfig
	// MergedDump, when non-empty (requires Worker.Dump), receives the
	// shard dumps concatenated in shard order — record bodies
	// byte-identical to a single-process export of the same world.
	MergedDump string
	// MaxRestarts bounds restarts per shard; a shard that dies more
	// often fails the whole run.
	MaxRestarts int
	// Backoff is the delay before the first restart, doubling per
	// subsequent attempt up to MaxBackoff (default 30s).
	Backoff    time.Duration
	MaxBackoff time.Duration
	// StallTimeout kills and restarts a worker whose checkpoint stops
	// advancing for this long (0 disables). It must comfortably exceed
	// the worker's checkpoint cadence, or healthy shards get shot.
	StallTimeout time.Duration
	// KillShard, when >= 0, SIGKILLs that shard's worker once its
	// checkpoint covers KillAfterZones zones — fault injection for the
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
	// Aggregate is the merged accumulator across all shards.
	Aggregate *report.Aggregate
	// TotalZones is the world size every shard agreed on.
	TotalZones int
	// Restarts counts worker restarts across all shards.
	Restarts int
}

type coordinator struct {
	cfg Config

	mu       sync.Mutex
	procs    map[int]*os.Process // live worker processes, for fault injection
	states   []string            // obs.Shard* lifecycle per shard
	restarts int
	killed   bool // the injected kill fired
}

// Run partitions the scan across cfg.Shards worker processes, supervises
// them to completion and merges their final states. On success the
// returned aggregate renders the same report a single-process run over
// the whole zone list would have; with Worker.Dump the concatenated
// export lands in cfg.MergedDump.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("shard: need at least 1 shard, got %d", cfg.Shards)
	}
	if cfg.Worker.Bin == "" {
		return nil, fmt.Errorf("shard: no worker binary configured")
	}
	if cfg.MergedDump != "" && !cfg.Worker.Dump {
		return nil, fmt.Errorf("shard: MergedDump requires Worker.Dump")
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
	stop := make(chan struct{})
	if cfg.Rollup != nil {
		go c.reportLoop(stop)
	}
	if cfg.KillShard >= 0 && cfg.KillShard < cfg.Shards {
		go c.injectKill(stop)
	}
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
	if cfg.Rollup != nil {
		// Final rollup pass: short runs can finish between ticks, and
		// the last line should show every shard's terminal position.
		for i := 0; i < cfg.Shards; i++ {
			c.updateRollup(i)
		}
		cfg.Rollup.Render()
	}
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
// (its checkpoint), .jsonl (its export) or .log (its worker's output,
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
// from its checkpoint (exponential backoff, bounded budget) whenever it
// dies or wedges before finishing its range.
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
				// was SIGINT-drained) leaves a valid checkpoint; treat
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
// it. A checkpoint left by a previous attempt is resumed; worker output
// is appended to the shard log.
func (c *coordinator) runWorkerOnce(ctx context.Context, i int) error {
	cpPath := c.file(i, "ckpt")
	args := append([]string{}, c.cfg.Worker.Args...)
	args = append(args,
		"-shard", fmt.Sprintf("%d/%d", i, c.cfg.Shards),
		"-checkpoint", cpPath,
		"-out", "none",
	)
	if c.cfg.Worker.Dump {
		args = append(args, "-dump", c.file(i, "jsonl"))
	}
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

	stallStop := make(chan struct{})
	if c.cfg.StallTimeout > 0 {
		go c.watchStall(i, cpPath, cmd.Process, stallStop)
	}
	err = cmd.Wait()
	close(stallStop)
	c.mu.Lock()
	delete(c.procs, i)
	c.mu.Unlock()
	if err != nil {
		return fmt.Errorf("shard %d worker: %w", i, err)
	}
	return nil
}

// watchStall kills a worker whose checkpoint stops advancing: a wedged
// shard (deadlock, livelock, unkillable query) looks exactly like a
// slow one from the outside, and the checkpoint is the only progress
// signal that survives the process boundary.
func (c *coordinator) watchStall(i int, cpPath string, proc *os.Process, stop <-chan struct{}) {
	poll := c.cfg.StallTimeout / 4
	if poll < 100*time.Millisecond {
		poll = 100 * time.Millisecond
	}
	tick := time.NewTicker(poll)
	defer tick.Stop()
	lastIndex := -1
	lastChange := time.Now()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			next := -1
			if cp, err := scan.ReadCheckpoint(cpPath); err == nil {
				next = cp.NextIndex
			}
			if next != lastIndex {
				lastIndex = next
				lastChange = time.Now()
				continue
			}
			if time.Since(lastChange) >= c.cfg.StallTimeout {
				c.logf("shard %d/%d: no checkpoint progress for %v, killing wedged worker",
					i, c.cfg.Shards, c.cfg.StallTimeout)
				_ = proc.Kill()
				return
			}
		}
	}
}

// injectKill SIGKILLs cfg.KillShard's worker once its checkpoint shows
// KillAfterZones scanned zones — deterministic-enough fault injection
// for the restart-and-still-byte-identical regression.
func (c *coordinator) injectKill(stop <-chan struct{}) {
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	i := c.cfg.KillShard
	threshold := c.cfg.KillAfterZones
	if threshold < 1 {
		threshold = 1
	}
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			cp, err := scan.ReadCheckpoint(c.file(i, "ckpt"))
			if err != nil {
				continue
			}
			rng := Partition(cp.TotalZones, c.cfg.Shards)[i]
			if cp.NextIndex-rng.Lo < threshold || cp.NextIndex >= rng.Hi {
				continue
			}
			c.mu.Lock()
			proc := c.procs[i]
			alreadyKilled := c.killed
			if proc != nil && !alreadyKilled {
				c.killed = true
			}
			c.mu.Unlock()
			if proc != nil && !alreadyKilled {
				c.logf("shard %d/%d: injecting kill at checkpoint index %d", i, c.cfg.Shards, cp.NextIndex)
				_ = proc.Kill()
				return
			}
		}
	}
}

// reportLoop feeds the rollup from the shard checkpoints. Checkpoint
// writes are atomic renames, so a read never sees a torn file — at
// worst a slightly stale one.
func (c *coordinator) reportLoop(stop <-chan struct{}) {
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			for i := 0; i < c.cfg.Shards; i++ {
				c.updateRollup(i)
			}
			c.cfg.Rollup.Render()
		}
	}
}

func (c *coordinator) updateRollup(i int) {
	c.mu.Lock()
	state := c.states[i]
	c.mu.Unlock()
	cp, err := scan.ReadCheckpoint(c.file(i, "ckpt"))
	if err != nil {
		c.cfg.Rollup.Update(i, 0, 0, state)
		return
	}
	rng := Partition(cp.TotalZones, c.cfg.Shards)[i]
	c.cfg.Rollup.Update(i, cp.NextIndex-rng.Lo, rng.Len(), state)
}
