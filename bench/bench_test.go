package main

import (
	"bufio"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
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
	cmd := exec.Command("bash", filepath.Join("bench", "run.sh"), "-quick", "-seconds", "1")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("bench/run.sh -quick: %v\n%s", err, out)
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
