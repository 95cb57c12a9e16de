package scan

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Checkpoint/resume for streaming scans. The paper's campaign scanned
// 287.6M registrable domains over ten days; at that scale a crash must
// not discard completed work. The JSONL dump is the record of what a
// scan has done, so the checkpoint holds only what the dump cannot:
// the run's identity, written once when a fresh run starts. `dnssec-scan
// -resume` checks that header against the world it regenerates, folds
// the dump's complete records back into the report accumulator, cuts
// whatever follows them and continues at the next zone.

// CheckpointVersion is bumped on incompatible format changes. Version 2
// added shard identity. Version 3 marks dumps whose records end in a
// cost object, written by a scanner with one resolver regime. Version 4
// records the flag fingerprint as every fingerprinted flag's name and
// value. Version 5 is a write-once header: progress and tallies come
// from the dump, so a version-4 file's next_index, dump_bytes and
// aggregate state are refused by name with the rest.
const CheckpointVersion = 5

// Checkpoint is a scan's run header. The pipeline's flag fingerprint
// travels as opaque JSON so the scan package stays ignorant of flag
// parsing.
type Checkpoint struct {
	// Version guards against reading a header written by an
	// incompatible binary.
	Version int `json:"version"`
	// TotalZones is the length of the target list; a resume against a
	// world of a different size is refused.
	TotalZones int `json:"total_zones"`
	// Shard and Shards record the writing process's shard geometry:
	// its dump covers the Shard-th of Shards contiguous partitions of
	// the zone space (0-based). Shards zero or one both mean an
	// unsharded scan; a resume under different geometry is refused,
	// because the dump's records are only meaningful relative to the
	// shard's own range.
	Shard  int `json:"shard,omitempty"`
	Shards int `json:"shards,omitempty"`
	// Now is the world's clock, the validation time the dump's records
	// are classified at; a coordinator folds the shard dumps with it
	// without generating a world.
	Now time.Time `json:"now"`
	// Config is the pipeline's flag fingerprint, seeds included; a
	// resume or a shard merge with different flags is refused.
	Config json.RawMessage `json:"config,omitempty"`
}

// normalizeGeometry maps the two spellings of "unsharded" (Shards 0,
// the pre-shard wire form, and Shards 1) onto one canonical pair.
func normalizeGeometry(shard, shards int) (int, int) {
	if shards <= 1 {
		return 0, 1
	}
	return shard, shards
}

// Validate checks a loaded header against the one the run would write
// itself: the world a resume regenerated, or shard 0's header under
// another shard's geometry on merge. It is the one check a header
// passes. A dump written by shard i/N only makes sense inside that
// shard's range, so resuming it as a different shard — or as an
// unsharded scan — would silently skip or duplicate zones. The
// fingerprints are compared in compact form: headers store theirs
// indented.
func (c *Checkpoint) Validate(want *Checkpoint) error {
	if c.Version != CheckpointVersion {
		return fmt.Errorf("scan: checkpoint is version %d, this binary reads and writes version %d; start the run again in a fresh directory", c.Version, CheckpointVersion)
	}
	if c.TotalZones != want.TotalZones {
		return fmt.Errorf("scan: checkpoint covers %d zones but the regenerated world has %d", c.TotalZones, want.TotalZones)
	}
	cpShard, cpShards := normalizeGeometry(c.Shard, c.Shards)
	wantShard, wantShards := normalizeGeometry(want.Shard, want.Shards)
	if cpShard != wantShard || cpShards != wantShards {
		return fmt.Errorf("scan: checkpoint was written by shard %d/%d, cannot resume as shard %d/%d",
			cpShard, cpShards, wantShard, wantShards)
	}
	if !c.Now.Equal(want.Now) {
		return fmt.Errorf("scan: checkpoint was taken at world time %v, not %v", c.Now, want.Now)
	}
	var stored, config bytes.Buffer
	if err := json.Compact(&stored, c.Config); err != nil {
		return fmt.Errorf("scan: checkpoint config fingerprint: %w", err)
	}
	if err := json.Compact(&config, want.Config); err != nil || !bytes.Equal(stored.Bytes(), config.Bytes()) {
		return fmt.Errorf("scan: checkpoint was taken with different flags: %s", stored.Bytes())
	}
	return nil
}

// WriteCheckpoint persists a header atomically: the JSON is written to
// path+".tmp", synced, and renamed over path, so a reader never sees a
// partial header. A kill between the two leaves the temporary, which
// the next write to path replaces.
func WriteCheckpoint(path string, c *Checkpoint) error {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return fmt.Errorf("scan: encoding checkpoint: %w", err)
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("scan: checkpoint temp file: %w", err)
	}
	if _, err = f.Write(append(data, '\n')); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("scan: writing checkpoint: %w", err)
	}
	return nil
}

// ReadCheckpoint loads a header written by WriteCheckpoint.
func ReadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scan: reading checkpoint: %w", err)
	}
	var c Checkpoint
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("scan: parsing checkpoint %s: %w", path, err)
	}
	return &c, nil
}
