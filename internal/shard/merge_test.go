package shard

import (
	"encoding/json"
	"strings"
	"testing"

	"dnssecboot/internal/report"
	"dnssecboot/internal/scan"
)

// TestMergeValidatesEachShard: the merge holds every final checkpoint
// to the check a resume applies (scan.Checkpoint.Validate) against
// shard 0's seed, world size and flags and the shard's own i/N, then to
// covering its whole range with a readable state. Each refusal names
// what differed.
func TestMergeValidatesEachShard(t *testing.T) {
	const total = 10
	for _, tc := range []struct {
		name   string
		mutate func(cp *scan.Checkpoint)
		refuse string // "" = the merge succeeds
	}{
		{"pristine", func(*scan.Checkpoint) {}, ""},
		{"older checkpoint version", func(cp *scan.Checkpoint) { cp.Version = 3 }, "checkpoint is version 3"},
		{"other seed", func(cp *scan.Checkpoint) { cp.Seed = 2 }, "seed"},
		{"other world size", func(cp *scan.Checkpoint) { cp.TotalZones = total + 1 }, "zones"},
		{"other flags", func(cp *scan.Checkpoint) { cp.Config = json.RawMessage(`{"seed":"2"}`) }, "different flags"},
		{"other geometry", func(cp *scan.Checkpoint) { cp.Shard = 0 }, "shard 0/2"},
		{"stopped short", func(cp *scan.Checkpoint) { cp.NextIndex = total - 1 }, "stopped at 9"},
		{"other state version", func(cp *scan.Checkpoint) { cp.Aggregate = json.RawMessage(`{"state_version":2}`) }, "state version 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := &coordinator{cfg: Config{Shards: 2, RunDir: t.TempDir()}}
			for i, rng := range Partition(total, 2) {
				agg := report.NewAggregate()
				agg.Total = rng.Hi - rng.Lo
				state, err := agg.MarshalState()
				if err != nil {
					t.Fatal(err)
				}
				cp := &scan.Checkpoint{
					Version: scan.CheckpointVersion, Seed: 1, TotalZones: total,
					Shard: i, Shards: 2, NextIndex: rng.Hi,
					Config: json.RawMessage(`{"seed":"1"}`), Aggregate: state,
				}
				if i == 1 {
					tc.mutate(cp)
				}
				if err := scan.WriteCheckpoint(c.file(i, "ckpt"), cp); err != nil {
					t.Fatal(err)
				}
			}
			res, err := c.merge()
			switch {
			case tc.refuse == "" && err != nil:
				t.Fatalf("merge refused: %v", err)
			case tc.refuse == "" && res.Aggregate.Total != total:
				t.Errorf("merged %d zones, want %d", res.Aggregate.Total, total)
			case tc.refuse != "" && (err == nil || !strings.Contains(err.Error(), tc.refuse)):
				t.Errorf("merge error %v, want a refusal naming %q", err, tc.refuse)
			}
		})
	}
}
