package scan

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// Checkpoint/resume for streaming scans. The paper's campaign scanned
// 287.6M registrable domains over ten days; at that scale a crash must
// not discard completed work. The streaming sink periodically persists
// a Checkpoint describing the contiguously-exported prefix; `dnssec-scan
// -resume` re-derives the same deterministic world from the recorded
// seeds, truncates the JSONL dump back to the last durable record, and
// continues the scan from NextIndex.

// CheckpointVersion is bumped on incompatible format changes. Version 2
// added shard identity and the versioned aggregate-state envelope
// (report.StateVersion). Version 3 marks dumps whose records end in a
// cost object, written by a scanner with one resolver regime: a
// version-2 run directory may hold records of the deleted cache-less
// walk, whose parent_zone differs under second-level registries, so it
// is refused rather than continued into a mixed dump. Version 4 records
// the flag fingerprint as every fingerprinted flag's name and value, as
// registered once for the scan command; a version-3 fingerprint could
// never match it, so such a run is refused by name too.
const CheckpointVersion = 4

// Checkpoint records the durable state of an interrupted streaming
// scan. The pipeline-level pieces (CLI flag fingerprint, report
// accumulator state) travel as opaque JSON so the scan package stays
// ignorant of classification and flag parsing.
type Checkpoint struct {
	// Version guards against reading a checkpoint written by an
	// incompatible binary.
	Version int `json:"version"`
	// Seed and ChaosSeed pin the deterministic world and fault pattern
	// the interrupted scan was using.
	Seed      int64 `json:"seed"`
	ChaosSeed int64 `json:"chaos_seed,omitempty"`
	// TotalZones is the length of the target list; a resume against a
	// world of a different size is refused.
	TotalZones int `json:"total_zones"`
	// Shard and Shards record the writing process's shard geometry:
	// this checkpoint covers the Shard-th of Shards contiguous
	// partitions of the zone space (0-based). Shards zero or one both
	// mean an unsharded scan; a resume under different geometry is
	// refused, because the dump prefix and NextIndex are only
	// meaningful relative to the shard's own range.
	Shard  int `json:"shard,omitempty"`
	Shards int `json:"shards,omitempty"`
	// NextIndex is the first zone index NOT yet exported: the JSONL
	// dump holds exactly the records for zones [shard start, NextIndex).
	NextIndex int `json:"next_index"`
	// DumpBytes is the byte length of the dump file at the moment this
	// checkpoint was written (after a flush). On resume the dump is
	// truncated back to this offset, discarding records that were
	// written after the last checkpoint and would otherwise duplicate.
	DumpBytes int64 `json:"dump_bytes,omitempty"`
	// Config is the pipeline's opaque flag fingerprint; a resume or a
	// shard merge with different flags is refused.
	Config json.RawMessage `json:"config,omitempty"`
	// Aggregate is the streaming report accumulator state (see
	// report.Aggregate.MarshalState), so Tables 1–3 resume without
	// re-reading the exported observations.
	Aggregate json.RawMessage `json:"aggregate,omitempty"`
}

// normalizeGeometry maps the two spellings of "unsharded" (Shards 0,
// the pre-shard wire form, and Shards 1) onto one canonical pair.
func normalizeGeometry(shard, shards int) (int, int) {
	if shards <= 1 {
		return 0, 1
	}
	return shard, shards
}

// Validate checks a loaded checkpoint against the world a resume
// reconstructed (or a merge expects), the shard geometry it is running
// under and the config fingerprint it must share. It is the one check a
// checkpoint passes, on resume and on merge. A checkpoint written by
// shard i/N describes a dump prefix and NextIndex that only make sense
// inside that shard's range, so resuming it as a different shard — or
// as an unsharded scan — would silently skip or duplicate zones. The
// fingerprints are compared in compact form: checkpoints store theirs
// indented.
func (c *Checkpoint) Validate(seed int64, totalZones, shard, shards int, config json.RawMessage) error {
	if c.Version != CheckpointVersion {
		return fmt.Errorf("scan: checkpoint is version %d, this binary reads and writes version %d; start the run again in a fresh directory", c.Version, CheckpointVersion)
	}
	if c.Seed != seed {
		return fmt.Errorf("scan: checkpoint was taken with seed %d, not %d", c.Seed, seed)
	}
	if c.TotalZones != totalZones {
		return fmt.Errorf("scan: checkpoint covers %d zones but the regenerated world has %d", c.TotalZones, totalZones)
	}
	cpShard, cpShards := normalizeGeometry(c.Shard, c.Shards)
	wantShard, wantShards := normalizeGeometry(shard, shards)
	if cpShard != wantShard || cpShards != wantShards {
		return fmt.Errorf("scan: checkpoint was written by shard %d/%d, cannot resume as shard %d/%d",
			cpShard, cpShards, wantShard, wantShards)
	}
	if c.NextIndex < 0 || c.NextIndex > c.TotalZones {
		return fmt.Errorf("scan: checkpoint next_index %d outside [0, %d]", c.NextIndex, c.TotalZones)
	}
	var stored, want bytes.Buffer
	if err := json.Compact(&stored, c.Config); err != nil {
		return fmt.Errorf("scan: checkpoint config fingerprint: %w", err)
	}
	if err := json.Compact(&want, config); err != nil || !bytes.Equal(stored.Bytes(), want.Bytes()) {
		return fmt.Errorf("scan: checkpoint was taken with different flags: %s", stored.Bytes())
	}
	return nil
}

// WriteCheckpoint atomically persists a checkpoint: the JSON is written
// to a temporary file in the same directory, synced, and renamed over
// path, so a crash mid-write never corrupts the previous checkpoint.
// A kill between the two leaves the temporary behind; see
// SweepCheckpointTemps.
func WriteCheckpoint(path string, c *Checkpoint) error {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return fmt.Errorf("scan: encoding checkpoint: %w", err)
	}
	data = append(data, '\n')
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("scan: checkpoint temp file: %w", err)
	}
	tmpName := tmp.Name()
	if _, err = tmp.Write(data); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("scan: writing checkpoint: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("scan: committing checkpoint: %w", err)
	}
	return nil
}

// SweepCheckpointTemps removes the temporaries an interrupted
// WriteCheckpoint(path) can leave: the siblings of path named
// filepath.Base(path)+".tmp" and anything after it. Nothing else in the
// directory is touched. It returns the names removed.
func SweepCheckpointTemps(path string) ([]string, error) {
	dir, prefix := filepath.Dir(path), filepath.Base(path)+".tmp"
	entries, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("scan: sweeping checkpoint temporaries: %w", err)
	}
	var removed []string
	for _, e := range entries {
		if e.Type().IsRegular() && strings.HasPrefix(e.Name(), prefix) {
			name := filepath.Join(dir, e.Name())
			if err := os.Remove(name); err != nil {
				return removed, fmt.Errorf("scan: sweeping checkpoint temporaries: %w", err)
			}
			removed = append(removed, name)
		}
	}
	return removed, nil
}

// ReadCheckpoint loads a checkpoint written by WriteCheckpoint.
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
