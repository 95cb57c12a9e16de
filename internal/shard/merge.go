package shard

// The merge side of the coordinator, split from the process-management
// code: everything here must be a pure function of the shard headers
// and dump bytes, because the cross-shard conformance battery asserts
// byte-equality of merged output against a single-shard run. The
// determinism analyzer covers this file (and partition.go); the
// coordinator proper keeps its wall-clock state — stall detection,
// progress ticks — out of scope.

import (
	"bytes"
	"fmt"
	"io"
	"os"

	"dnssecboot/internal/scan"
)

// countRecords counts the newlines — the complete records — of the dump
// at path from byte from to its end. It also returns the dump's size
// and, when from is 0, whether the dump is empty or ends in a newline.
func countRecords(path string, from int64) (records int, size int64, whole bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, false, err
	}
	defer f.Close()
	if _, err := f.Seek(from, io.SeekStart); err != nil {
		return 0, 0, false, err
	}
	buf := make([]byte, 64<<10)
	last := byte('\n')
	for size = from; ; {
		n, err := f.Read(buf)
		records += bytes.Count(buf[:n], []byte{'\n'})
		size += int64(n)
		if n > 0 {
			last = buf[n-1]
		}
		if err == io.EOF {
			return records, size, last == '\n', nil
		}
		if err != nil {
			return records, size, false, err
		}
	}
}

// shardComplete reports whether shard i's dump holds a record for every
// zone of its range.
func (c *coordinator) shardComplete(i int) (bool, error) {
	cp, err := scan.ReadCheckpoint(c.file(i, "ckpt"))
	if err != nil {
		return false, fmt.Errorf("shard %d: no run header: %w", i, err)
	}
	records, _, _, err := countRecords(c.file(i, "jsonl"), 0)
	if err != nil {
		return false, fmt.Errorf("shard %d: %w", i, err)
	}
	return records == Partition(cp.TotalZones, c.cfg.Shards)[i].Len(), nil
}

// merge validates each shard's header against shard 0's fingerprint,
// world size and clock and its own geometry — the check a resume
// applies, scan.Checkpoint.Validate — and each dump against its range:
// exactly one complete record per zone. With cfg.MergedDump it then
// concatenates the dumps in shard order.
func (c *coordinator) merge() (*Result, error) {
	n := c.cfg.Shards
	var ref *scan.Checkpoint
	dumps := make([]string, n)
	for i := range dumps {
		cp, err := scan.ReadCheckpoint(c.file(i, "ckpt"))
		if err != nil {
			return nil, fmt.Errorf("shard: merging: %w", err)
		}
		if ref == nil {
			ref = cp
		}
		want := *ref
		want.Shard, want.Shards = i, n
		if err := cp.Validate(&want); err != nil {
			return nil, fmt.Errorf("shard: merging shard %d: %w", i, err)
		}
		dumps[i] = c.file(i, "jsonl")
		records, _, whole, err := countRecords(dumps[i], 0)
		if err != nil {
			return nil, fmt.Errorf("shard: merging: %w", err)
		}
		if !whole {
			return nil, fmt.Errorf("shard: shard %d's dump ends inside a record", i)
		}
		if zones := Partition(cp.TotalZones, n)[i].Len(); records != zones {
			return nil, fmt.Errorf("shard: shard %d's dump holds %d records, its range %d zones", i, records, zones)
		}
	}
	if c.cfg.MergedDump != "" {
		if err := concatDumps(c.cfg.MergedDump, dumps); err != nil {
			return nil, err
		}
	}
	return &Result{Dumps: dumps, Now: ref.Now, TotalZones: ref.TotalZones}, nil
}

// concatDumps stitches the shard dumps into one file at path, in shard
// order.
func concatDumps(path string, dumps []string) error {
	out, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("shard: merged dump: %w", err)
	}
	for _, dump := range dumps {
		f, err := os.Open(dump)
		if err == nil {
			_, err = io.Copy(out, f)
			f.Close()
		}
		if err != nil {
			out.Close()
			return fmt.Errorf("shard: merged dump: %w", err)
		}
	}
	if err := out.Close(); err != nil {
		return fmt.Errorf("shard: merged dump: %w", err)
	}
	return nil
}
