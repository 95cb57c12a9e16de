package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// benchmarkJSON is the part of BENCHMARK.json the tests compare with.
type benchmarkJSON struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDeclaredNames holds the harness's metric and workload lists equal
// to BENCHMARK.json, names and units, in order.
func TestDeclaredNames(t *testing.T) {
	b := readBenchmarkJSON(t)
	check := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: harness declares %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: harness %s (%s), BENCHMARK.json %s (%s)", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, b.EndToEnd)
	check("per_layer", perLayer, b.PerLayer)
	if len(b.Workloads) != len(workloadOrder) {
		t.Fatalf("harness runs %d workloads, BENCHMARK.json names %d", len(workloadOrder), len(b.Workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadOrder[i] {
			t.Errorf("workload %d: harness %s, BENCHMARK.json %s", i, workloadOrder[i], w.Name)
		}
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
}

func TestPercentile(t *testing.T) {
	vs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.25, 1.75}} {
		if got := percentile(vs, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", vs, c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestCalibrationKernel(t *testing.T) {
	if s := calibrationKernel(1); s <= 0 {
		t.Errorf("calibration kernel took %v s", s)
	}
}

// TestQuickSet runs the whole set through the one command at tiny
// scale: every run must print exactly the declared metrics, verify its
// outputs, and leave a trace whose spans reconcile.
func TestQuickSet(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binaries and runs every workload")
	}
	outDir := absOut(t)
	before := processes(t)
	cmd := exec.Command("bash", filepath.Join("bench", "run.sh"), "-quick", "-seconds", "1")
	cmd.Dir = ".."
	out, err := cmd.CombinedOutput()
	left := startedSince(t, before, outDir)
	if err != nil {
		t.Fatalf("bench/run.sh -quick: %v\n%s", err, out)
	}
	if len(left) > 0 {
		t.Errorf("bench/run.sh -quick left processes running:\n%s", describe(left))
	}
	data, err := os.ReadFile(filepath.Join("out", "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	var res suiteResult
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Sets) != 1 || len(res.Sets[0]) != 2*len(workloadOrder) {
		t.Fatalf("result.json holds %d sets, the first of %d runs; want 1 of %d", len(res.Sets), len(res.Sets[0]), 2*len(workloadOrder))
	}
	for _, d := range res.Sets[0] {
		defs := endToEnd
		if d.Trace {
			defs = perLayer
		}
		var want, got []string
		for _, def := range defs {
			want = append(want, def.name)
		}
		for name, m := range d.Result.Metrics {
			got = append(got, name)
			if !d.Trace && m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want positive", d.Workload, name, m.Value)
			}
		}
		sort.Strings(want)
		sort.Strings(got)
		if len(got) != len(want) {
			t.Fatalf("%s trace=%v: printed %d metrics, declared %d", d.Workload, d.Trace, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s trace=%v: printed metric %s, declared %s", d.Workload, d.Trace, got[i], want[i])
			}
		}
		if !d.Result.Correct || d.Result.Failed != 0 || d.Result.Attempted < 1 {
			t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", d.Workload, d.Trace, d.Result.Correct, d.Result.Attempted, d.Result.Failed)
		}
		if d.Workload == "scan-default" && d.Trace {
			// Self times over the workers' span trees add up to the
			// worker-seconds of the traced repetition.
			if s := d.Result.Metrics["trace.self_sum_share"].Value; s < 0.9 || s > 1.1 {
				t.Errorf("scan-default: self times sum to %.3f of workers x traced wall, want within 10 %%", s)
			}
			if w := d.Result.Metrics["rate.wait_count"].Value; w != 0 {
				t.Errorf("scan-default: %v rate-limit waits, want none", w)
			}
		}
	}
	checkTraceParents(t, filepath.Join("out", "trace-scan-default.jsonl"))
}

// checkTraceParents reads a scan trace back: every exchange must name
// a scan.zone span as its parent.
func checkTraceParents(t *testing.T, path string) {
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type line struct {
		Name   string `json:"name"`
		ID     uint64 `json:"id"`
		Parent uint64 `json:"parent"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	zones := map[uint64]bool{}
	var exchanges []line
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("%s: %v in %q", path, err, sc.Text())
		}
		if l.End < l.Start {
			t.Fatalf("%s: span %d (%s) ends before it starts", path, l.ID, l.Name)
		}
		switch l.Name {
		case "scan.zone":
			zones[l.ID] = true
		case "transport.exchange":
			exchanges = append(exchanges, l)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(zones) == 0 || len(exchanges) == 0 {
		t.Fatalf("%s: %d scan.zone and %d transport.exchange spans", path, len(zones), len(exchanges))
	}
	for _, e := range exchanges {
		if !zones[e.Parent] {
			t.Fatalf("%s: exchange %d has parent %d, which is no scan.zone span", path, e.ID, e.Parent)
		}
	}
}

// processes reads /proc: every process's executable, working directory
// and arguments, as one line by pid. The tests below use it to hold the
// command to "nothing it starts outlives it", which the benchmark's
// driver checks before it measures anything.
func processes(t *testing.T) map[int]string {
	t.Helper()
	entries, err := os.ReadDir("/proc")
	if err != nil {
		t.Fatal(err)
	}
	procs := map[int]string{}
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		// A process may end while it is read, and a zombie has none of
		// the three: whatever is missing stays empty.
		dir := filepath.Join("/proc", e.Name())
		exe, _ := os.Readlink(filepath.Join(dir, "exe"))
		cwd, _ := os.Readlink(filepath.Join(dir, "cwd"))
		argv, _ := os.ReadFile(filepath.Join(dir, "cmdline"))
		procs[pid] = "exe=" + exe + " cwd=" + cwd + " argv=" + string(bytes.ReplaceAll(argv, []byte{0}, []byte{' '}))
	}
	return procs
}

// startedSince returns the processes that are not in before and either
// name dir (as executable, working directory or argument) or are the Go
// toolchain's telemetry process.
func startedSince(t *testing.T, before map[int]string, dir string) map[int]string {
	t.Helper()
	started := map[int]string{}
	for pid, desc := range processes(t) {
		if _, old := before[pid]; !old && (strings.Contains(desc, dir) || strings.Contains(desc, "telemetry")) {
			started[pid] = desc
		}
	}
	return started
}

func describe(procs map[int]string) string {
	var b strings.Builder
	for pid, desc := range procs {
		b.WriteString("  " + strconv.Itoa(pid) + " " + desc + "\n")
	}
	return b.String()
}

// absOut is bench/out as /proc shows it.
func absOut(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if wd, err = filepath.EvalSymlinks(wd); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(wd, "out")
}

// writeFile writes a file and the directories above it.
func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// copyBenchmark copies what the benchmark consists of, BENCHMARK.json
// and bench/ without out/, from the repository into dir.
func copyBenchmark(t *testing.T, dir string) {
	t.Helper()
	copyFile := func(from, to string) error {
		data, err := os.ReadFile(from)
		if err == nil {
			writeFile(t, to, data)
		}
		return err
	}
	if err := copyFile(filepath.Join("..", "BENCHMARK.json"), filepath.Join(dir, "BENCHMARK.json")); err != nil {
		t.Fatal(err)
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case path == "out":
			return filepath.SkipDir
		case d.Type().IsRegular():
			return copyFile(path, filepath.Join(dir, "bench", path))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNoProgramFailsFastAndLeavesNothing runs the command where the
// driver first runs it: in a copy that holds the benchmark but not the
// program. It must fail at once, print no result, and have no process
// left the moment it returns (the toolchain's telemetry process, which a
// first go command in a fresh configuration directory starts, lives a
// second or more). The same holds when the program is there and does
// not build.
func TestNoProgramFailsFastAndLeavesNothing(t *testing.T) {
	for _, c := range []struct {
		name  string
		files map[string]string // the program, as far as the copy has one
	}{
		{"no program", nil},
		{"program does not build", map[string]string{
			"go.mod":              "module dnssecboot\n\ngo 1.22\n",
			"cmd/scanctl/main.go": "package main\n\nfunc main() {\n",
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir, err := filepath.EvalSymlinks(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			copyBenchmark(t, dir)
			for name, content := range c.files {
				writeFile(t, filepath.Join(dir, name), []byte(content))
			}
			// Standard output goes to a file: a pipe would make Run wait for
			// every process that inherited it, and so hide what is looked for.
			stdout, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
			if err != nil {
				t.Fatal(err)
			}
			defer stdout.Close()
			before := processes(t)
			cmd := exec.Command("bash", "bench/run.sh", "--workload", "scan-default", "--seed", "1", "--seconds", "1", "--trace", "0")
			cmd.Dir, cmd.Stdout = dir, stdout
			t0 := time.Now()
			err = cmd.Run()
			left := startedSince(t, before, dir)
			if elapsed := time.Since(t0); err == nil || elapsed > 5*time.Second {
				t.Errorf("the command ended with %v after %v, want a failure within 5 s", err, elapsed)
			}
			if len(left) > 0 {
				t.Errorf("the command left processes running:\n%s", describe(left))
			}
			if printed, err := os.ReadFile(stdout.Name()); err != nil || bytes.Contains(printed, []byte(`"metrics"`)) {
				t.Errorf("the command printed a result (%v):\n%s", err, printed)
			}
			if _, err := os.Stat(filepath.Join(dir, "bench", "out", "config", "go", "telemetry", "local", "upload.token")); err == nil {
				t.Errorf("the toolchain took its telemetry token in bench/out/config: telemetry is not off there")
			}
		})
	}
}

// TestInterruptedHarnessLeavesNothing sends the harness SIGTERM while a
// child of it runs: it must exit non-zero, and the child with everything
// the child started must be gone well before it would have ended by
// itself. scan-sharded runs at full scale, where scanctl and its two
// dnssec-scan workers have seconds of work left when the signal comes;
// the full set's first child measures for a minute.
func TestInterruptedHarnessLeavesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binaries and sets up scan-sharded")
	}
	outDir := absOut(t)
	for _, c := range []struct {
		name    string
		args    []string
		waitFor string // in the arguments of the process to wait for
	}{
		// A dnssec-scan worker is told where its shard's files go.
		{"scan-sharded", []string{"--workload", "scan-sharded", "--seed", "1", "--seconds", "12", "--trace", "0"},
			filepath.Join(outDir, "scanctl-run", "shard-")},
		{"full set", []string{"-quick", "-seconds", "60"},
			filepath.Join(outDir, "bin", "bench") + " -workload scan-default"},
	} {
		t.Run(c.name, func(t *testing.T) {
			before := processes(t)
			// run.sh replaces itself with the harness, so the harness has
			// the command's pid.
			cmd := exec.Command("bash", append([]string{filepath.Join("bench", "run.sh")}, c.args...)...)
			// Standard error is passed on as it is, not through a pipe that
			// Wait would wait on for as long as a surviving child held it.
			cmd.Dir, cmd.Stderr = "..", os.Stderr
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			exited := make(chan error, 1)
			go func() { exited <- cmd.Wait() }()
			for seen := false; !seen; time.Sleep(10 * time.Millisecond) {
				select {
				case err := <-exited:
					t.Fatalf("the harness ended (%v) before its child was seen", err)
				default:
				}
				for pid, desc := range processes(t) {
					_, old := before[pid]
					seen = seen || !old && strings.Contains(desc, c.waitFor)
				}
			}
			if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(2 * time.Second)
			select {
			case err := <-exited:
				if err == nil {
					t.Errorf("the interrupted harness exited with success")
				}
			case <-time.After(time.Until(deadline)):
				t.Errorf("the harness still runs 2 s after SIGTERM")
				cmd.Process.Kill()
				<-exited
			}
			left := startedSince(t, before, outDir)
			for len(left) > 0 && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
				left = startedSince(t, before, outDir)
			}
			if len(left) > 0 {
				t.Errorf("2 s after SIGTERM to the harness these still run:\n%s", describe(left))
				for pid := range left {
					syscall.Kill(pid, syscall.SIGKILL)
				}
			}
		})
	}
}
