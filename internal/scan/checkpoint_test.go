package scan

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// fingerprint is the config a scan would compute afresh: compact, as
// json.Marshal writes it.
var fingerprint = json.RawMessage(`{"scale":"2000","seed":"1"}`)

// worldNow is the clock of the world the headers below describe.
var worldNow = time.Date(2025, 4, 15, 12, 0, 0, 0, time.UTC)

func validCheckpoint() *Checkpoint {
	return &Checkpoint{
		Version:    CheckpointVersion,
		TotalZones: 2033,
		Shard:      1,
		Shards:     4,
		Now:        worldNow,
		// Headers store the fingerprint indented; Validate compares
		// compact forms.
		Config: json.RawMessage("{\n  \"scale\": \"2000\",\n  \"seed\": \"1\"\n}"),
	}
}

// header is the header a run of the given geometry would write over the
// world validCheckpoint describes.
func header(shard, shards int) *Checkpoint {
	return &Checkpoint{Version: CheckpointVersion, TotalZones: 2033, Shard: shard, Shards: shards, Now: worldNow, Config: fingerprint}
}

// TestValidateRefusesShardGeometry is the regression for the checkpoint
// fingerprint covering only seed+totalZones: a checkpoint written by
// shard i/N describes a dump prefix relative to that shard's range, so
// resuming it under any other geometry must be refused — before the
// fix, `-shard 0/2` checkpoints resumed cleanly as `-shard 0/4` and
// silently scanned the wrong half of the world.
func TestValidateRefusesShardGeometry(t *testing.T) {
	cases := []struct {
		name          string
		cpShard, cpN  int
		shard, shards int
		wantOK        bool
	}{
		{"same geometry", 1, 4, 1, 4, true},
		{"different shard count", 0, 2, 0, 4, false},
		{"different shard index", 1, 4, 2, 4, false},
		{"sharded resumed unsharded", 0, 2, 0, 1, false},
		{"unsharded resumed sharded", 0, 1, 0, 2, false},
		{"legacy zero equals one-of-one", 0, 0, 0, 1, true},
		{"one-of-one equals legacy zero", 0, 1, 0, 0, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cp := validCheckpoint()
			cp.Shard, cp.Shards = c.cpShard, c.cpN
			err := cp.Validate(header(c.shard, c.shards))
			if c.wantOK && err != nil {
				t.Errorf("Validate refused matching geometry: %v", err)
			}
			if !c.wantOK {
				if err == nil {
					t.Fatalf("Validate accepted checkpoint from shard %d/%d under geometry %d/%d",
						c.cpShard, c.cpN, c.shard, c.shards)
				}
				if !strings.Contains(err.Error(), "shard") {
					t.Errorf("refusal does not name the shard mismatch: %v", err)
				}
			}
		})
	}
}

func TestValidateRefusals(t *testing.T) {
	for name, mutate := range map[string]func(*Checkpoint){
		"version":        func(c *Checkpoint) { c.Version = CheckpointVersion - 1 },
		"total zones":    func(c *Checkpoint) { c.TotalZones = 99 },
		"world time":     func(c *Checkpoint) { c.Now = c.Now.Add(time.Hour) },
		"other seed":     func(c *Checkpoint) { c.Config = json.RawMessage(`{"scale":"2000","seed":"2"}`) },
		"no fingerprint": func(c *Checkpoint) { c.Config = nil },
	} {
		cp := validCheckpoint()
		mutate(cp)
		if err := cp.Validate(header(1, 4)); err == nil {
			t.Errorf("%s: Validate accepted a corrupt checkpoint", name)
		}
	}
	if err := validCheckpoint().Validate(header(1, 4)); err != nil {
		t.Fatalf("Validate refused a pristine checkpoint: %v", err)
	}
}

// TestWriteCheckpointKeepsOldFileOnWriteError is the regression for a
// shadowed err in WriteCheckpoint: a short write or a failed Sync went
// unnoticed, and the truncated temp file was renamed over the last good
// checkpoint. The test binary re-runs itself as a child with a 64-byte
// file-size limit (SIGXFSZ ignored, so the write fails with EFBIG
// instead of killing it) and writes over an existing checkpoint: the
// write must fail, the old file stay byte-identical, no temp file stay
// behind.
func TestWriteCheckpointKeepsOldFileOnWriteError(t *testing.T) {
	if path := os.Getenv("SCAN_CHECKPOINT_CHILD"); path != "" {
		signal.Ignore(syscall.SIGXFSZ)
		var old syscall.Rlimit
		if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
			t.Fatalf("getrlimit: %v", err)
		}
		if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &syscall.Rlimit{Cur: 64, Max: old.Max}); err != nil {
			t.Fatalf("setrlimit: %v", err)
		}
		cp := validCheckpoint()
		cp.TotalZones = 900
		err := WriteCheckpoint(path, cp)
		// Lift the limit again: the test binary itself may still write
		// files (a -cover run's counters).
		if lerr := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); lerr != nil {
			t.Fatalf("restoring the file-size limit: %v", lerr)
		}
		if err == nil {
			t.Error("WriteCheckpoint past the file-size limit returned nil")
		} else {
			t.Logf("WriteCheckpoint: %v", err)
		}
		return
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "scan.ckpt")
	if err := WriteCheckpoint(path, validCheckpoint()); err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestWriteCheckpointKeepsOldFileOnWriteError$", "-test.v")
	cmd.Env = append(os.Environ(), "SCAN_CHECKPOINT_CHILD="+path)
	out, err := cmd.CombinedOutput()
	if err != nil || !strings.Contains(string(out), "file too large") {
		t.Errorf("child: %v, want a \"file too large\" write error; output:\n%s", err, out)
	}
	if now, err := os.ReadFile(path); err != nil || !bytes.Equal(now, old) {
		t.Errorf("the last good checkpoint changed (%v):\n%s\nwas:\n%s", err, now, old)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*.tmp*")); len(left) > 0 {
		t.Errorf("temp files left behind: %v", left)
	}
}

// TestCheckpointShardRoundTrip pins that shard identity survives the
// write/read cycle — without it the coordinator could not verify which
// partition a checkpoint belongs to.
func TestCheckpointShardRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard.ckpt")
	want := validCheckpoint()
	if err := WriteCheckpoint(path, want); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	got, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatalf("ReadCheckpoint: %v", err)
	}
	if got.Shard != want.Shard || got.Shards != want.Shards {
		t.Errorf("shard identity changed in flight: got %d/%d, want %d/%d",
			got.Shard, got.Shards, want.Shard, want.Shards)
	}
	if err := got.Validate(header(1, 4)); err != nil {
		t.Errorf("round-tripped checkpoint fails validation: %v", err)
	}
}
