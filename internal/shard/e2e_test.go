// End-to-end conformance battery for the sharded orchestration: real
// dnssec-scan worker processes driven by the coordinator, with the
// merged JSONL dump's record bodies (scan.Body), the CSV series and the
// rendered headline compared byte-for-byte against a default
// single-process run of the same world — the headline guarantee of
// `dnssec-scan -shards N`, including under an injected mid-run worker
// kill and restart from the worker's dump. Per-record cost is not compared: every
// worker, and every restarted worker, warms its own resolver cache.
package shard

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"dnssecboot/internal/obs"
	"dnssecboot/internal/report"
	"dnssecboot/internal/scan"
)

var (
	buildOnce sync.Once
	buildDir  string
	buildErr  error
)

// workerBinary builds cmd/dnssec-scan once per test run and returns its
// path. The coordinator is mostly exercised through the library (Run);
// TestWorkersDieWithCoordinator runs the binary as coordinator too.
func workerBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		goTool, err := exec.LookPath("go")
		if err != nil {
			buildErr = fmt.Errorf("go toolchain not in PATH: %w", err)
			return
		}
		buildDir, err = os.MkdirTemp("", "shard-e2e-bin")
		if err != nil {
			buildErr = err
			return
		}
		cmd := exec.Command(goTool, "build", "-o", buildDir+string(os.PathSeparator), "../../cmd/dnssec-scan")
		out, err := cmd.CombinedOutput()
		if err != nil {
			buildErr = fmt.Errorf("building dnssec-scan: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatalf("worker binary: %v", buildErr)
	}
	return filepath.Join(buildDir, "dnssec-scan")
}

func TestMain(m *testing.M) {
	code := m.Run()
	if buildDir != "" {
		os.RemoveAll(buildDir)
	}
	os.Exit(code)
}

// reference runs a default single-process scan of the given scale, plus
// any extra flags, and returns its dump bytes, headline text, and CSV
// artefacts.
func reference(t *testing.T, bin string, scale int, extra ...string) (dump []byte, headline string, csv map[string][]byte) {
	t.Helper()
	dir := t.TempDir()
	csvDir := filepath.Join(dir, "csv")
	if err := os.MkdirAll(csvDir, 0o755); err != nil {
		t.Fatal(err)
	}
	dumpPath := filepath.Join(dir, "ref.jsonl")
	cmd := exec.Command(bin, append([]string{
		"-scale", fmt.Sprint(scale),
		"-dump", dumpPath, "-csv-dir", csvDir, "-out", "headline"}, extra...)...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("reference run: %v\n%s", err, stderr.String())
	}
	dumpBytes, err := os.ReadFile(dumpPath)
	if err != nil {
		t.Fatalf("reference dump: %v", err)
	}
	csv = make(map[string][]byte)
	for _, artefact := range []string{"table1", "table2", "table3", "figure1"} {
		b, err := os.ReadFile(filepath.Join(csvDir, artefact+".csv"))
		if err != nil {
			t.Fatalf("reference %s: %v", artefact, err)
		}
		csv[artefact] = b
	}
	return dumpBytes, stdout.String(), csv
}

// bodies reduces a JSONL export to its record bodies.
func bodies(t *testing.T, dump []byte) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := scan.Bodies(&out, bytes.NewReader(dump)); err != nil {
		t.Fatalf("reducing dump to bodies: %v", err)
	}
	return out.Bytes()
}

// shardedRun drives the coordinator over real worker processes and
// returns the merged dump and the fold of the shard dumps.
func shardedRun(t *testing.T, bin string, scale, shards int, mutate func(*Config)) ([]byte, *report.Aggregate, *Result) {
	t.Helper()
	dir := t.TempDir()
	mergedPath := filepath.Join(dir, "merged.jsonl")
	cfg := Config{
		Shards: shards,
		RunDir: filepath.Join(dir, "run"),
		Worker: WorkerConfig{
			Bin: bin,
			Args: []string{
				"-seed", "1", "-scale", fmt.Sprint(scale),
				"-concurrency", "4",
			},
		},
		MergedDump:  mergedPath,
		MaxRestarts: 3,
		Backoff:     50 * time.Millisecond,
		KillShard:   -1,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	res, err := Run(ctx, cfg)
	if err != nil {
		logs, _ := filepath.Glob(filepath.Join(cfg.RunDir, "*.log"))
		var tails strings.Builder
		for _, l := range logs {
			b, _ := os.ReadFile(l)
			fmt.Fprintf(&tails, "--- %s ---\n%s\n", filepath.Base(l), b)
		}
		t.Fatalf("coordinated run (%d shards): %v\n%s", shards, err, tails.String())
	}
	merged, err := os.ReadFile(mergedPath)
	if err != nil {
		t.Fatalf("merged dump: %v", err)
	}
	agg := report.NewAggregate()
	for _, dump := range res.Dumps {
		data, err := os.ReadFile(dump)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := agg.Fold(bytes.NewReader(data), res.Now, nil); err != nil {
			t.Fatalf("folding %s: %v", dump, err)
		}
	}
	return merged, agg, res
}

// assertConformance checks the sharded outputs byte-for-byte against
// the single-process reference, the dumps body for body.
func assertConformance(t *testing.T, label string, refDump, gotDump []byte, refHeadline string, refCSV map[string][]byte, agg *report.Aggregate) {
	t.Helper()
	if got, want := bodies(t, gotDump), bodies(t, refDump); !bytes.Equal(got, want) {
		t.Errorf("%s: merged dump's bodies differ from the single-process export's (got %d bytes, want %d)",
			label, len(got), len(want))
	}
	if got := agg.Headline() + "\n"; got != refHeadline {
		t.Errorf("%s: headline differs:\n got: %q\nwant: %q", label, got, refHeadline)
	}
	for artefact, want := range refCSV {
		var got bytes.Buffer
		if err := agg.WriteCSV(&got, artefact); err != nil {
			t.Fatalf("%s: WriteCSV(%s): %v", label, artefact, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: %s CSV differs from single-process output", label, artefact)
		}
	}
}

// TestCoordinatedConformance is the headline guarantee at three shard
// counts and two world scales: a coordinated multi-process run's
// bodies, headline and CSVs are byte-identical to a default
// single-process run of the same world. The 1-shard rows also pin that
// a lone worker's header carries the 0/1 geometry the merge demands
// (scanctl -shards 1 used to fail on it). The zonefile row partitions
// the targets ingested from the golden uk. dump instead of the
// generator's list; its headline must also match the ingest fixture.
func TestCoordinatedConformance(t *testing.T) {
	bin := workerBinary(t)
	zonefile, err := filepath.Abs("../ingest/testdata/golden/uk_dump.zone.gz")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		scale, shards int
		zonefile      bool
	}{
		{500_000, 1, false},
		{500_000, 2, false},
		{500_000, 4, false},
		{150_000, 1, false},
		{150_000, 2, false},
		{150_000, 4, false},
		{500_000, 2, true},
	} {
		name := fmt.Sprintf("scale=%d/shards=%d", tc.scale, tc.shards)
		var extra []string
		if tc.zonefile {
			name, extra = "zonefile/"+name, []string{"-zonefile", zonefile}
		}
		t.Run(name, func(t *testing.T) {
			refDump, refHeadline, refCSV := reference(t, bin, tc.scale, extra...)
			if tc.zonefile {
				want, err := os.ReadFile("../ingest/testdata/golden/headline.txt")
				if err != nil {
					t.Fatal(err)
				}
				if refHeadline != string(want) {
					t.Errorf("-zonefile headline differs from the ingest fixture:\n got: %q\nwant: %q", refHeadline, want)
				}
			}
			gotDump, agg, res := shardedRun(t, bin, tc.scale, tc.shards, func(cfg *Config) {
				cfg.Worker.Args = append(cfg.Worker.Args, extra...)
			})
			assertConformance(t, "conformance", refDump, gotDump, refHeadline, refCSV, agg)
			if res.Restarts != 0 {
				t.Errorf("healthy run needed %d restarts", res.Restarts)
			}
		})
	}
}

// TestCoordinatedKillRestartConformance is the shard-failure
// regression: one worker is SIGKILLed mid-run, the coordinator restarts
// it from its dump, and the merged output is still
// body-for-body identical — the multi-process extension of the
// drain-prefix/resume equality tests in internal/scan.
func TestCoordinatedKillRestartConformance(t *testing.T) {
	bin := workerBinary(t)
	const scale, shards = 500_000, 4
	refDump, refHeadline, refCSV := reference(t, bin, scale)
	gotDump, agg, res := shardedRun(t, bin, scale, shards, func(cfg *Config) {
		// A rate limit holds each worker to about a second, so the
		// dump grows past 32 records well before the worker is done; it
		// moves no body byte on the simulated network.
		cfg.Worker.Args = append(cfg.Worker.Args, "-rate", "100")
		cfg.KillShard = 1
		cfg.KillAfterZones = 32
	})
	if res.Restarts < 1 {
		t.Fatal("injected kill did not cause a restart; the regression did not exercise the resume path")
	}
	assertConformance(t, "kill+restart", refDump, gotDump, refHeadline, refCSV, agg)
}

// TestCoordinatorGivesUpAfterBudget pins the bounded-restart contract:
// a worker that always dies must fail the run after MaxRestarts+1
// attempts, not spin forever.
func TestCoordinatorGivesUpAfterBudget(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Shards:      2,
		RunDir:      filepath.Join(dir, "run"),
		Worker:      WorkerConfig{Bin: "/bin/false"},
		MaxRestarts: 2,
		Backoff:     time.Millisecond,
		KillShard:   -1,
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_, err := Run(ctx, cfg)
	if err == nil {
		t.Fatal("coordinator succeeded with a worker that always fails")
	}
	if !strings.Contains(err.Error(), "giving up") {
		t.Errorf("error does not mention the exhausted budget: %v", err)
	}
}

// TestCoordinatorRollup checks the per-shard progress rollup sees real
// totals, counted from the shard dumps.
func TestCoordinatorRollup(t *testing.T) {
	bin := workerBinary(t)
	var buf bytes.Buffer
	rollup := obs.NewShardRollup(&buf, 2)
	_, _, _ = shardedRun(t, bin, 500_000, 2, func(cfg *Config) {
		cfg.Rollup = rollup
	})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var done, total int
	if _, err := fmt.Sscanf(lines[len(lines)-1], "shards: 0 running, 2 done · %d/%d zones", &done, &total); err != nil || total == 0 || done != total {
		t.Errorf("last rollup line %q after a completed run: want 2 done and equal nonzero totals (%v)", lines[len(lines)-1], err)
	}
}

// TestWorkersDieWithCoordinator is the orphan regression: SIGKILL a
// `dnssec-scan -shards 2` coordinator while its workers have seconds of
// work left, and no worker may outlive it by 2 s (the kernel sends each
// SIGTERM, and a worker drains and flushes its dump through its handler). A
// re-run over the same run directory must still merge bodies identical
// to a single-process run.
func TestWorkersDieWithCoordinator(t *testing.T) {
	if testing.Short() {
		t.Skip("three scans of a 29 k-zone world")
	}
	bin := workerBinary(t)
	const scale = 10_000
	dir := t.TempDir()
	runDir, merged := filepath.Join(dir, "run"), filepath.Join(dir, "merged.jsonl")
	args := []string{"-shards", "2", "-scale", fmt.Sprint(scale), "-concurrency", "1",
		"-run-dir", runDir, "-dump", merged, "-out", "none"}
	// A worker, unlike its coordinator, names a file in the run directory.
	marker := filepath.Join(runDir, "shard-")

	coord := exec.Command(bin, args...)
	var stderr bytes.Buffer
	coord.Stderr = &stderr
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- coord.Wait() }()
	for len(liveProcesses(t, marker)) < 2 {
		select {
		case err := <-exited:
			t.Fatalf("the coordinator ended (%v) before both workers were seen\n%s", err, stderr.String())
		case <-time.After(10 * time.Millisecond):
		}
	}
	if err := coord.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-exited
	deadline := time.Now().Add(2 * time.Second)
	left := liveProcesses(t, marker)
	for len(left) > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		left = liveProcesses(t, marker)
	}
	if len(left) > 0 {
		t.Errorf("2 s after the coordinator was killed, workers %v still run", left)
		for _, pid := range left {
			_ = syscall.Kill(pid, syscall.SIGKILL)
		}
	}

	if out, err := exec.Command(bin, args...).CombinedOutput(); err != nil {
		t.Fatalf("re-run over the same run directory: %v\n%s", err, out)
	}
	got, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	refDump, _, _ := reference(t, bin, scale)
	if !bytes.Equal(bodies(t, got), bodies(t, refDump)) {
		t.Error("re-run after the coordinator's death: merged bodies differ from the single-process export's")
	}
}

// liveProcesses returns the pids whose command line contains marker. A
// zombie has an empty command line, so only running processes count.
func liveProcesses(t *testing.T, marker string) []int {
	t.Helper()
	entries, err := os.ReadDir("/proc")
	if err != nil {
		t.Fatal(err)
	}
	var pids []int
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		argv, _ := os.ReadFile(filepath.Join("/proc", e.Name(), "cmdline"))
		if bytes.Contains(argv, []byte(marker)) {
			pids = append(pids, pid)
		}
	}
	return pids
}
