package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dnssecboot/internal/classify"
	"dnssecboot/internal/ecosystem"
	"dnssecboot/internal/report"
	"dnssecboot/internal/scan"
	"dnssecboot/internal/shard"
)

// TestResumeFromDump is the in-process torn-dump battery: an 8-record
// dump cut at every byte offset goes through the resume path's fold and
// cut. The records kept must be exactly the complete records before the
// cut, the dump must end after the last of them, and the scan must
// continue at the zone after it. A dump whose records decode but belong
// to other zones than the range's — swapped, or more than the range —
// is refused, naming the zone found and the zone expected.
func TestResumeFromDump(t *testing.T) {
	world, err := ecosystem.Generate(ecosystem.Config{Seed: 1, ScaleDivisor: 500_000})
	if err != nil {
		t.Fatal(err)
	}
	targets := world.Targets[:8]
	var dump bytes.Buffer
	jw := scan.NewJSONLWriter(&dump)
	_, err = RunStream(context.Background(), StreamOptions{
		Options: Options{Seed: 1, World: world, Targets: targets},
		Sink:    func(_ int, zo *scan.ZoneObservation, _ *classify.Result) error { return jw.Write(zo) },
	})
	if err == nil {
		err = jw.Flush()
	}
	if err != nil {
		t.Fatal(err)
	}
	data := dump.Bytes()
	dir := t.TempDir()
	c := &command{resume: filepath.Join(dir, "scan.ckpt")}
	header := &scan.Checkpoint{Version: scan.CheckpointVersion, TotalZones: len(targets), Now: world.Now, Config: json.RawMessage(`{}`)}
	if err := scan.WriteCheckpoint(c.resume, header); err != nil {
		t.Fatal(err)
	}

	rng := shard.Range{Lo: 0, Hi: len(targets)}
	for at := 0; at <= len(data); at++ {
		// A file per cut: rewriting one file in place thousands of
		// times is slow on filesystems that flush a truncated file's
		// data on close.
		c.dump = filepath.Join(dir, fmt.Sprintf("cut-%d.jsonl", at))
		if err := os.WriteFile(c.dump, data[:at], 0o644); err != nil {
			t.Fatal(err)
		}
		agg := report.NewAggregate()
		f, next, cut, err := c.resumeDump(header, agg, targets, rng)
		if err != nil {
			t.Fatalf("dump cut at byte %d: %v", at, err)
		}
		f.Close()
		kept := bytes.Count(data[:at], []byte{'\n'})
		end := bytes.LastIndexByte(data[:at], '\n') + 1
		left, err := os.ReadFile(c.dump)
		if err != nil {
			t.Fatal(err)
		}
		if next != kept || agg.Total != kept || !bytes.Equal(left, data[:end]) || (cut != nil) != (end < at) {
			t.Fatalf("dump cut at byte %d: resumed at zone %d with %d records folded, %d bytes kept (cut: %v); want %d records and %d bytes",
				at, next, agg.Total, len(left), cut, kept, end)
		}
		os.Remove(c.dump)
	}

	lines := bytes.SplitAfter(data, []byte{'\n'})
	swapped := bytes.Join([][]byte{lines[1], lines[0]}, nil)
	for _, tc := range []struct {
		name   string
		dump   []byte
		rng    shard.Range
		refuse []string
	}{
		{"swapped records", swapped, shard.Range{Lo: 0, Hi: len(targets)},
			[]string{"record 0 is zone " + strings.ToLower(targets[1]), "zone 0 is " + strings.ToLower(targets[0])}},
		{"more records than the range", data, shard.Range{Lo: 0, Hi: 4}, []string{"holds more than the 4 records"}},
	} {
		c.dump = filepath.Join(dir, tc.name+".jsonl")
		if err := os.WriteFile(c.dump, tc.dump, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, _, err := c.resumeDump(header, report.NewAggregate(), targets, tc.rng)
		for _, want := range tc.refuse {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: resume error %v, want one naming %q", tc.name, err, want)
			}
		}
	}
}
