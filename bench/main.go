// Command bench is the repository benchmark: four workloads over the
// scanner and the serving path, end-to-end metrics measured with
// tracing off, and per-layer metrics from one traced repetition whose
// spans are recorded here, around the calls into each layer. README.md
// in this directory explains the workloads, metrics and bounds.
//
// With -workload it measures one workload and prints one JSON result
// as its last line (the contract BENCHMARK.json's command is run
// under); without it runs the whole set, each run in a child process.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
)

// metricDef names one reported metric. The two lists below are the
// benchmark's vocabulary; bench_test.go holds them equal to
// BENCHMARK.json.
type metricDef struct{ name, unit string }

// endToEnd metrics are measured with tracing off and reported by every
// workload. An "op" is a zone scanned and classified (scan-*) or a
// verified DNS response (serve).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"cpu_us_per_op", "us"},
	{"peak_rss_mb", "MB"},
	{"queries_per_op", "1"},
}

// perLayer metrics come from the traced run. A workload reports 0 for
// a layer it does not exercise.
var perLayer = []metricDef{
	{"ecosystem.generate_s", "s"},
	{"ecosystem.zones", "count"},
	{"scan.zone_count", "count"},
	{"scan.zone_self_s", "s"},
	{"scan.zone_self_share", "ratio"},
	{"scan.zone_p50_us", "us"},
	{"scan.zone_p99_us", "us"},
	{"transport.exchange_count", "count"},
	{"transport.exchange_busy_s", "s"},
	{"transport.exchange_share", "ratio"},
	{"transport.exchange_p50_us", "us"},
	{"transport.exchange_failed", "count"},
	{"transport.hot_server_share", "ratio"},
	{"rate.wait_count", "count"},
	{"rate.wait_s", "s"},
	{"rate.wait_share", "ratio"},
	{"resolver.cache_hit_share", "ratio"},
	{"resolver.coalesced", "count"},
	{"classify.us_per_zone", "us"},
	{"classify.share", "ratio"},
	{"report.add_us_per_zone", "us"},
	{"scan.export_us_per_zone", "us"},
	{"scan.export_bytes_per_zone", "B"},
	{"core.stream_gap_share", "ratio"},
	{"trace.overhead_share", "ratio"},
	{"trace.self_sum_share", "ratio"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_kb_per_op", "kB"},
	{"runtime.gc_cpu_share", "ratio"},
	{"dnswire.pack_ns", "ns"},
	{"dnswire.unpack_ns", "ns"},
	{"dnssec.verify_us", "us"},
	{"cli.wall_s", "s"},
	{"cli.gap_share", "ratio"},
	{"shard.scanctl_wall_s", "s"},
	{"shard.scanctl_cpu_s", "s"},
	{"shard.worker_restarts", "count"},
	{"shard.dump_mb", "MB"},
	{"zone.sign_s", "s"},
	{"server.query_count", "count"},
	{"server.handle_count", "count"},
	{"server.cache_hit_share", "ratio"},
	{"server.handle_us_p50", "us"},
	{"server.handle_busy_s", "s"},
	{"server.cached_handle_busy_s", "s"},
	{"server.handler_share", "ratio"},
	{"server.socket_share", "ratio"},
	{"server.udp_dropped", "count"},
	{"client.timeouts", "count"},
	{"client.p50_us", "us"},
	{"client.p99_us", "us"},
	{"client.samples", "count"},
}

// workloads maps each workload name to its implementation.
var workloads = map[string]func(*run) error{
	"scan-default":     runScan,
	"scan-sharded":     runSharded,
	"scan-ratelimited": runScan,
	"serve":            runServe,
}

// workloadOrder is the order the full set runs and prints in.
var workloadOrder = []string{"scan-default", "scan-sharded", "scan-ratelimited", "serve"}

// run is one measurement of one workload: its arguments, where it may
// write, and what it has measured so far.
type run struct {
	// ctx ends when the harness is told to stop; its children run under it.
	ctx      context.Context
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool

	// p is the number of load-generating goroutines or connections.
	p int
	// exe is this binary (the calibration kernel runs as its child);
	// binDir holds it and the built scanctl and dnssec-scan; outDir
	// (bench/out) takes every file a run writes.
	exe, outDir, binDir string
	// waitBound marks a workload that mostly waits: neither its wall
	// clock nor the CPU cost of its wake-ups follows the speed of a busy
	// machine, so its repetitions are reported as measured.
	waitBound bool

	// samples holds one value per timed repetition for each metric; the
	// reported value is their median.
	samples map[string][]float64
	// attempted and failed count operations over the timed repetitions.
	attempted, failed int64
	// tr is the span recorder of a traced run, nil otherwise.
	tr *tracer
}

// add records one repetition's value of a metric.
func (r *run) add(name string, v float64) {
	r.samples[name] = append(r.samples[name], v)
}

// setup runs one set-up and records its time, scaled to the reference
// machine, as a sample of setup_s.
func (r *run) setup(fn func() error) error {
	seconds, speed, err := r.calibrated(fn)
	if err != nil {
		return err
	}
	r.add("raw.setup_s", seconds)
	r.add("setup_s", seconds*speed)
	return nil
}

// repeat runs rep once as a discarded warm-up and then for the run's
// measuring time, never starting a repetition once less than half of
// the previous one's length remains. Each timed repetition adds one
// sample per metric, as measured; repeat then scales the CPU-bound
// ones to the machine speed calibrated around the repetition and keeps
// the measured value under "raw.".
func (r *run) repeat(rep func(timed bool) error) error {
	if err := rep(false); err != nil {
		return err
	}
	measured := 0.0
	for {
		seconds, speed, err := r.calibrated(func() error { return rep(true) })
		if err != nil {
			return err
		}
		r.add("machine_speed", speed)
		if !r.waitBound {
			r.scaleLast("cpu_us_per_op", speed)
			r.scaleLast("ops_per_s", 1/speed)
		}
		measured += seconds
		if measured+seconds/2 >= r.seconds {
			return nil
		}
	}
}

func (r *run) scaleLast(name string, factor float64) {
	vs := r.samples[name]
	r.add("raw."+name, vs[len(vs)-1])
	vs[len(vs)-1] *= factor
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// detail is what a run leaves in bench/out for the full-set runner:
// the result plus every repetition's value.
type detail struct {
	Workload string               `json:"workload"`
	Seed     int64                `json:"seed"`
	Trace    bool                 `json:"trace"`
	Result   result               `json:"result"`
	Reps     map[string][]float64 `json:"reps"`
}

// finish turns the samples into the result for the metric list that
// matches the run's mode.
func (r *run) finish() (result, error) {
	defs := endToEnd
	if r.trace {
		defs = perLayer
	}
	res := result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		vs, ok := r.samples[d.name]
		if !ok && !r.trace {
			return res, fmt.Errorf("workload %s did not measure %s", r.workload, d.name)
		}
		res.Metrics[d.name] = metricValue{Value: median(vs), Unit: d.unit}
	}
	return res, nil
}

// detailPath is where a run's detail file goes.
func detailPath(outDir, workload string, trace bool) string {
	mode := "e2e"
	if trace {
		mode = "trace"
	}
	return filepath.Join(outDir, fmt.Sprintf("run-%s-%s.json", workload, mode))
}

// runOne measures one workload and prints its result line.
func runOne(r *run) error {
	fn, ok := workloads[r.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (have %v)", r.workload, workloadOrder)
	}
	if r.trace {
		r.tr = newTracer()
	}
	root := r.tr.main().begin("bench.run", 0, r.workload)
	if err := fn(r); err != nil {
		return fmt.Errorf("%s: %w", r.workload, err)
	}
	r.tr.main().end(root)
	if r.trace {
		path := filepath.Join(r.outDir, "trace-"+r.workload+".jsonl")
		if err := r.tr.writeFile(path); err != nil {
			return err
		}
	}
	res, err := r.finish()
	if err != nil {
		return err
	}
	names := make([]string, 0, len(r.samples))
	for name := range r.samples {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		q1, med, q3 := quartiles(r.samples[name])
		fmt.Printf("%-18s %-28s median %-14.6g q1 %-14.6g q3 %-14.6g reps %d\n",
			r.workload, name, med, q1, q3, len(r.samples[name]))
	}
	d := detail{Workload: r.workload, Seed: r.seed, Trace: r.trace, Result: res, Reps: r.samples}
	if err := writeJSON(detailPath(r.outDir, r.workload, r.trace), d); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed verification", r.workload, res.Failed, res.Attempted)
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	var (
		workload = flag.String("workload", "", "measure this one workload and print its result line (default: run the full set)")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Float64("seconds", 12, "measuring time of one run")
		trace    = flag.Int("trace", 0, "1 = the traced run that yields the per-layer metrics")
		quick    = flag.Bool("quick", false, "tiny inputs: a smoke run, not a measurement")
		twice    = flag.Bool("twice", false, "full set only: run it twice and fail if an end-to-end metric moves by more than its bound")
		kernel   = flag.Int("calibrate", 0, "run the calibration kernel on this many goroutines and print its seconds (what a run's child does)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *kernel > 0 {
		fmt.Println(calibrationKernel(*kernel))
		return
	}
	// SIGINT, SIGTERM and SIGHUP end the context, which kills the process
	// group of the child that is running; the harness then exits without
	// waiting for in-process work, which does not watch the context.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		<-ctx.Done()
		stop() // a second signal ends the harness as if it handled none
		running.Lock()
		fatal(errors.New("interrupted"))
	}()
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	binDir := filepath.Dir(exe)
	outDir := filepath.Dir(binDir)
	if *workload == "" {
		if err := runSuite(suiteConfig{ctx: ctx, exe: exe, outDir: outDir, seed: *seed, seconds: *seconds, quick: *quick, twice: *twice}); err != nil {
			fatal(err)
		}
		return
	}
	r := &run{
		ctx: ctx, workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0, quick: *quick,
		p: loadGenerators(), exe: exe, outDir: outDir, binDir: binDir, samples: make(map[string][]float64),
	}
	if err := runOne(r); err != nil {
		fatal(err)
	}
}

// loadGenerators is P: how many goroutines or connections generate
// load.
func loadGenerators() int { return min(runtime.NumCPU(), 4) }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
