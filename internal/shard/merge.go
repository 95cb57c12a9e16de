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

// merge validates each final shard checkpoint against shard 0's seed,
// world size and config fingerprint and its own geometry — the check
// a resume applies, scan.Checkpoint.Validate — then folds the
// accumulator states together and concatenates the JSONL dumps in
// shard order.
func (c *coordinator) merge() (*Result, error) {
	n := c.cfg.Shards
	cps := make([]*scan.Checkpoint, n)
	merged := report.NewAggregate()
	for i := range cps {
		cp, err := scan.ReadCheckpoint(c.file(i, "ckpt"))
		if err != nil {
			return nil, fmt.Errorf("shard: merging: %w", err)
		}
		cps[i] = cp
		ref := cps[0]
		if err := cp.Validate(ref.Seed, ref.TotalZones, i, n, ref.Config); err != nil {
			return nil, fmt.Errorf("shard: merging shard %d: %w", i, err)
		}
		if hi := Partition(cp.TotalZones, n)[i].Hi; cp.NextIndex != hi {
			return nil, fmt.Errorf("shard: shard %d stopped at %d, range ends at %d", i, cp.NextIndex, hi)
		}
		agg, err := report.UnmarshalState(cp.Aggregate)
		if err != nil {
			return nil, fmt.Errorf("shard: shard %d state: %w", i, err)
		}
		merged.Merge(agg)
	}
	if c.cfg.MergedDump != "" {
		if err := c.concatDumps(cps); err != nil {
			return nil, err
		}
	}
	return &Result{Aggregate: merged, TotalZones: cps[0].TotalZones}, nil
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
