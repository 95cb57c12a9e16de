package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The command-line contract of scanctl, its worker dnssec-scan and the
// offline reanalyze: which invocations are refused, with which exit
// code, saying what. The binaries are built once, in TestMain.

var binDir string

func TestMain(m *testing.M) {
	os.Exit(func() int {
		dir, err := os.MkdirTemp("", "scanctl-cli-bin")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer os.RemoveAll(dir)
		build := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), ".", "../dnssec-scan", "../reanalyze")
		if out, err := build.CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "building scanctl, dnssec-scan and reanalyze: %v\n%s", err, out)
			return 1
		}
		binDir = dir
		return m.Run()
	}())
}

func TestFlagsAndExitCodes(t *testing.T) {
	dir := t.TempDir()
	// A checkpoint as the previous format version wrote it.
	oldCheckpoint := filepath.Join(dir, "v2.ckpt")
	if err := os.WriteFile(oldCheckpoint, []byte(`{"version":2,"seed":1,"total_zones":700,"next_index":16}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A small dump for reanalyze to read.
	dump := filepath.Join(dir, "obs.jsonl")
	if out, err := exec.Command(filepath.Join(binDir, "dnssec-scan"), "-scale", "500000", "-dump", dump, "-out", "none").CombinedOutput(); err != nil {
		t.Fatalf("writing the dump: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		name   string
		bin    string
		args   []string
		exit   int
		stderr string // substring the diagnostics must contain
		absent string // substring the diagnostics must not contain
		stdout string // substring the output must contain
	}{
		{"deleted -stateless is an unknown flag", "dnssec-scan", []string{"-stateless"}, 2, "flag provided but not defined: -stateless", "", ""},
		{"deleted -cache is an unknown flag", "dnssec-scan", []string{"-cache=false"}, 2, "flag provided but not defined: -cache", "", ""},
		{"scanctl passes no -stateless either", "scanctl", []string{"-stateless"}, 2, "flag provided but not defined: -stateless", "", ""},
		{"zero shards refused", "scanctl", []string{"-shards", "0"}, 2, "-shards must be at least 1", "", ""},
		{"one shard runs and merges", "scanctl",
			[]string{"-shards", "1", "-scale", "500000", "-run-dir", filepath.Join(dir, "run"), "-out", "headline"}, 0, "1 shards covered", "", ""},
		{"version-2 checkpoint refused by name", "dnssec-scan",
			[]string{"-scale", "500000", "-resume", oldCheckpoint, "-out", "none"}, 1, "checkpoint is version 2", "", ""},
		// A mistyped -out is refused before the world is generated, not
		// after the scan has run and written its dump.
		{"dnssec-scan refuses a mistyped artefact before scanning", "dnssec-scan",
			[]string{"-scale", "500000", "-out", "tabel3"}, 2, `unknown artefact "tabel3"`, "generated", ""},
		{"scanctl refuses a mistyped artefact before scanning", "scanctl",
			[]string{"-shards", "1", "-scale", "500000", "-run-dir", filepath.Join(dir, "typo"), "-out", "tabel3"}, 2, `unknown artefact "tabel3"`, "covered", ""},
		{"reanalyze refuses a mistyped artefact before reading", "reanalyze",
			[]string{"-in", filepath.Join(dir, "absent.jsonl"), "-out", "tabel3"}, 2, `unknown artefact "tabel3"`, "", ""},
		{"reanalyze -out body", "reanalyze", []string{"-in", dump, "-out", "body"}, 0, "", "", `{"zone":`},
		{"reanalyze -out headline", "reanalyze", []string{"-in", dump, "-out", "headline"}, 0, "classified 700 observations", "", "resolved 700 zones"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(filepath.Join(binDir, tc.bin), tc.args...)
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			exit := 0
			if ee, ok := err.(*exec.ExitError); ok {
				exit = ee.ExitCode()
			} else if err != nil {
				t.Fatalf("running %s: %v", tc.bin, err)
			}
			if exit != tc.exit {
				t.Errorf("exit code %d, want %d\n%s", exit, tc.exit, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr does not contain %q:\n%s", tc.stderr, stderr.String())
			}
			if tc.absent != "" && strings.Contains(stderr.String(), tc.absent) {
				t.Errorf("stderr contains %q:\n%s", tc.absent, stderr.String())
			}
			if !strings.Contains(stdout.String(), tc.stdout) {
				t.Errorf("stdout does not contain %q:\n%.300s", tc.stdout, stdout.String())
			}
		})
	}
}
