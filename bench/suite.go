package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// The full set: every workload once untraced and once traced, each in
// its own child process (a clean heap and resident set per run), with a
// table of every metric and a result.json beside the traces.

type suiteConfig struct {
	ctx         context.Context
	exe, outDir string
	seed        int64
	seconds     float64
	quick       bool
	twice       bool
}

// manifest is the part of BENCHMARK.json the runner needs.
type manifest struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// suiteResult is result.json.
type suiteResult struct {
	Env  map[string]string `json:"env"`
	Seed int64             `json:"seed"`
	Sets [][]detail        `json:"sets"`
}

func runSuite(c suiteConfig) error {
	var mf manifest
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("the full set runs from the repository root: %w", err)
	}
	if err := json.Unmarshal(data, &mf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	out := suiteResult{Env: environment(c.ctx), Seed: c.seed}
	sets := 1
	if c.twice {
		sets = 2
	}
	for s := 0; s < sets; s++ {
		var set []detail
		// Only the first set is traced: the second exists to compare
		// end-to-end metrics.
		modes := []bool{false, true}
		if s > 0 {
			modes = modes[:1]
		}
		for _, w := range workloadOrder {
			for _, trace := range modes {
				d, err := runChild(c, w, trace)
				if err != nil {
					return err
				}
				set = append(set, d)
			}
		}
		fmt.Printf("\n== set %d, seed %d ==\n", s+1, c.seed)
		printSet(set)
		out.Sets = append(out.Sets, set)
	}
	if err := writeJSON(filepath.Join(c.outDir, "result.json"), out); err != nil {
		return err
	}
	if c.twice {
		return compareSets(mf, out.Sets[0], out.Sets[1])
	}
	return nil
}

// runChild measures one workload in a child process and reads back the
// detail file it leaves.
func runChild(c suiteConfig, workload string, trace bool) (detail, error) {
	var d detail
	t := "0"
	if trace {
		t = "1"
	}
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(c.seed, 10),
		"-seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64), "-trace", t}
	if c.quick {
		args = append(args, "-quick")
	}
	fmt.Fprintf(os.Stderr, "bench: %s trace=%s ...\n", workload, t)
	// A run ends within its measuring time plus one scanner process's limit.
	limit := time.Duration(c.seconds*float64(time.Second)) + runTimeout
	if _, err := runProcess(c.ctx, limit, c.exe, args...); err != nil {
		return d, fmt.Errorf("%s trace=%s: %w", workload, t, err)
	}
	data, err := os.ReadFile(detailPath(c.outDir, workload, trace))
	if err != nil {
		return d, err
	}
	return d, json.Unmarshal(data, &d)
}

func printSet(set []detail) {
	for _, d := range set {
		defs, mode := endToEnd, "end to end, tracing off"
		if d.Trace {
			defs, mode = perLayer, "per layer, traced run"
		}
		fmt.Printf("\n%s (%s): attempted %d, failed %d\n", d.Workload, mode, d.Result.Attempted, d.Result.Failed)
		fmt.Printf("  %-30s %-6s %14s %14s %14s %5s\n", "metric", "unit", "median", "q1", "q3", "reps")
		for _, def := range defs {
			reps := d.Reps[def.name]
			if d.Trace && len(reps) == 0 {
				continue // a layer this workload does not exercise
			}
			q1, med, q3 := quartiles(reps)
			fmt.Printf("  %-30s %-6s %14.6g %14.6g %14.6g %5d\n", def.name, def.unit, med, q1, q3, len(reps))
		}
	}
}

// compareSets fails when an end-to-end metric of the second set
// differs from the first by more than its bound.
func compareSets(mf manifest, a, b []detail) error {
	first := map[string]detail{}
	for _, d := range a {
		if !d.Trace {
			first[d.Workload] = d
		}
	}
	fmt.Printf("\n== repeatability: set 2 against set 1 ==\n")
	fmt.Printf("  %-18s %-16s %14s %14s %8s %6s\n", "workload", "metric", "set 1", "set 2", "change", "bound")
	bad := 0
	for _, d := range b {
		for _, m := range mf.EndToEnd {
			v1, v2 := first[d.Workload].Result.Metrics[m.Name].Value, d.Result.Metrics[m.Name].Value
			change := (v2 - v1) / v1
			mark := ""
			if math.Abs(change) > m.Bound {
				mark = "  OUTSIDE"
				bad++
			}
			fmt.Printf("  %-18s %-16s %14.6g %14.6g %+7.2f%% %5.0f%%%s\n", d.Workload, m.Name, v1, v2, 100*change, 100*m.Bound, mark)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d end-to-end metrics moved by more than their bound between two sets of the same commit", bad)
	}
	return nil
}

// environment records what makes two result files comparable.
func environment(ctx context.Context) map[string]string {
	env := map[string]string{
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"p":          strconv.Itoa(loadGenerators()),
		"go":         runtime.Version(),
		"cpu_model":  "unknown",
		"git_head":   "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				env["cpu_model"] = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if c, err := runProcess(ctx, shortTimeout, "git", "rev-parse", "HEAD"); err == nil {
		env["git_head"] = strings.TrimSpace(c.stdout.String())
	}
	return env
}
