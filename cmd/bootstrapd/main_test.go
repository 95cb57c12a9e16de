package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestGoldenOutput pins bootstrapd's report over the seed-1 world at
// scale 500000: both headlines, the registry's tally and every
// aggregated rejection reason. The run is deterministic (the same bytes
// under GOMAXPROCS=1). After an intended change, regenerate the golden
// with
//
//	go run ./cmd/bootstrapd -scale 500000 -seed 1 > cmd/bootstrapd/testdata/scale500000_seed1.txt
func TestGoldenOutput(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "bootstrapd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building bootstrapd: %v\n%s", err, out)
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, "-scale", "500000", "-seed", "1")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("bootstrapd: %v\n%s", err, stderr.Bytes())
	}
	want, err := os.ReadFile("testdata/scale500000_seed1.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("output differs from testdata/scale500000_seed1.txt:\n%s", stdout.Bytes())
	}
}
