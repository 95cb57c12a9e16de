package shard

// The merge side of the coordinator, split from the process-management
// code: everything here must be a pure function of the shard
// checkpoints and dump bytes, because the cross-shard conformance
// battery asserts byte-equality of merged output against a single-shard
// run. The determinism analyzer covers this file (and partition.go);
// the coordinator proper keeps its wall-clock state — stall detection,
// progress ticks — out of scope.

import (
	"fmt"
	"io"
	"os"

	"dnssecboot/internal/report"
	"dnssecboot/internal/scan"
)

// shardComplete reports whether shard i's checkpoint covers its whole
// range.
func (c *coordinator) shardComplete(i int) (bool, error) {
	cp, err := scan.ReadCheckpoint(c.file(i, "ckpt"))
	if err != nil {
		return false, fmt.Errorf("shard %d: no final checkpoint: %w", i, err)
	}
	return cp.NextIndex >= Partition(cp.TotalZones, c.cfg.Shards)[i].Hi, nil
}

// merge validates the final shard checkpoints against each other and
// combines them: accumulator states through report.MergeShardStates,
// JSONL dumps by concatenation in shard order.
func (c *coordinator) merge() (*Result, error) {
	n := c.cfg.Shards
	cps := make([]*scan.Checkpoint, n)
	for i := 0; i < n; i++ {
		cp, err := scan.ReadCheckpoint(c.file(i, "ckpt"))
		if err != nil {
			return nil, fmt.Errorf("shard: merging: %w", err)
		}
		cps[i] = cp
	}
	ref := cps[0]
	states := make([]report.ShardState, n)
	for i, cp := range cps {
		if cp.TotalZones != ref.TotalZones || cp.Seed != ref.Seed {
			return nil, fmt.Errorf("shard: shard %d scanned world (seed %d, %d zones), shard 0 scanned (seed %d, %d zones)",
				i, cp.Seed, cp.TotalZones, ref.Seed, ref.TotalZones)
		}
		if cp.Shards != n || cp.Shard != i {
			return nil, fmt.Errorf("shard: checkpoint %d claims shard %d/%d, want %d/%d", i, cp.Shard, cp.Shards, i, n)
		}
		rng := Partition(cp.TotalZones, n)[i]
		if cp.NextIndex != rng.Hi {
			return nil, fmt.Errorf("shard: shard %d stopped at %d, range ends at %d", i, cp.NextIndex, rng.Hi)
		}
		states[i] = report.ShardState{Shard: i, Config: cp.Config, State: cp.Aggregate}
	}
	merged, err := report.MergeShardStates(states)
	if err != nil {
		return nil, err
	}
	if c.cfg.MergedDump != "" {
		if err := c.concatDumps(cps); err != nil {
			return nil, err
		}
	}
	return &Result{Aggregate: merged, TotalZones: ref.TotalZones}, nil
}

// concatDumps stitches the per-shard JSONL exports into one file in
// shard order. Each shard's file size must match its final checkpoint's
// DumpBytes — anything else means records past the durable prefix and a
// merge would not be trustworthy.
func (c *coordinator) concatDumps(cps []*scan.Checkpoint) error {
	out, err := os.Create(c.cfg.MergedDump)
	if err != nil {
		return fmt.Errorf("shard: merged dump: %w", err)
	}
	for i, cp := range cps {
		path := c.file(i, "jsonl")
		f, err := os.Open(path)
		if err != nil {
			out.Close()
			return fmt.Errorf("shard: merged dump: %w", err)
		}
		st, err := f.Stat()
		if err == nil && st.Size() != cp.DumpBytes {
			err = fmt.Errorf("shard: shard %d dump is %d bytes, checkpoint covers %d", i, st.Size(), cp.DumpBytes)
		}
		if err == nil {
			_, err = io.Copy(out, f)
		}
		f.Close()
		if err != nil {
			out.Close()
			return err
		}
	}
	if err := out.Close(); err != nil {
		return fmt.Errorf("shard: merged dump: %w", err)
	}
	return nil
}
