package shard

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"dnssecboot/internal/scan"
)

// TestMergeValidatesEachShard: the merge holds every shard's header to
// the check a resume applies (scan.Checkpoint.Validate) against shard
// 0's world size, clock and flags and the shard's own i/N, then holds
// its dump to exactly one complete record per zone of its range. Each
// refusal names what differed.
func TestMergeValidatesEachShard(t *testing.T) {
	const total = 10
	now := time.Date(2025, 4, 15, 12, 0, 0, 0, time.UTC)
	for _, tc := range []struct {
		name   string
		mutate func(cp *scan.Checkpoint, dump *string)
		refuse string // "" = the merge succeeds
	}{
		{"pristine", func(*scan.Checkpoint, *string) {}, ""},
		{"older checkpoint version", func(cp *scan.Checkpoint, _ *string) { cp.Version = 4 }, "checkpoint is version 4"},
		{"other seed", func(cp *scan.Checkpoint, _ *string) { cp.Config = json.RawMessage(`{"seed":"2"}`) }, `different flags: {"seed":"2"}`},
		{"other world size", func(cp *scan.Checkpoint, _ *string) { cp.TotalZones = total + 1 }, "zones"},
		{"other world time", func(cp *scan.Checkpoint, _ *string) { cp.Now = now.Add(time.Hour) }, "world time"},
		{"other flags", func(cp *scan.Checkpoint, _ *string) { cp.Config = json.RawMessage(`{"seed":"1","rate":"9"}`) }, "different flags"},
		{"other geometry", func(cp *scan.Checkpoint, _ *string) { cp.Shard = 0 }, "shard 0/2"},
		{"stopped short", func(_ *scan.Checkpoint, dump *string) { *dump = strings.Repeat("{}\n", 4) }, "holds 4 records, its range 5 zones"},
		{"torn tail", func(_ *scan.Checkpoint, dump *string) { *dump += "{" }, "ends inside a record"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := &coordinator{cfg: Config{Shards: 2, RunDir: t.TempDir()}}
			for i, rng := range Partition(total, 2) {
				cp := &scan.Checkpoint{
					Version: scan.CheckpointVersion, TotalZones: total,
					Shard: i, Shards: 2, Now: now,
					Config: json.RawMessage(`{"seed":"1"}`),
				}
				dump := strings.Repeat("{}\n", rng.Len())
				if i == 1 {
					tc.mutate(cp, &dump)
				}
				if err := scan.WriteCheckpoint(c.file(i, "ckpt"), cp); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(c.file(i, "jsonl"), []byte(dump), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			res, err := c.merge()
			switch {
			case tc.refuse == "" && err != nil:
				t.Fatalf("merge refused: %v", err)
			case tc.refuse == "" && (len(res.Dumps) != 2 || !res.Now.Equal(now) || res.TotalZones != total):
				t.Errorf("merge result %+v, want both dumps, the headers' clock and %d zones", res, total)
			case tc.refuse != "" && (err == nil || !strings.Contains(err.Error(), tc.refuse)):
				t.Errorf("merge error %v, want a refusal naming %q", err, tc.refuse)
			}
		})
	}
}
