package main

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The machines this benchmark runs on are shared, and their speed
// drifts by tens of percent over minutes: more than any bound a change
// is judged by, and too slowly for repetitions inside one run to
// average out. So every timed region is bracketed by a calibration
// kernel, and CPU-bound times are reported scaled to the speed the
// kernel ran at: what the region would have taken on a machine that
// runs the kernel at the reference speed. The kernel is a fixed amount
// of work of three kinds, hashing (arithmetic), a dependent walk
// through 64 MB (memory latency) and sorting (branches), on as many
// goroutines as the workload uses. It calls nothing from this
// repository, so no change to the program can move it, and it runs in
// a child process, so it adds nothing to the measured process's heap,
// resident set or CPU time.

// referenceSeconds is how long the kernel takes on the quiet 2-core
// reference machine; machine speed 1 means exactly this.
const referenceSeconds = 0.33

// The kernel's three parts. Sorting takes about three fifths of its
// time and the other two a fifth each: measured beside the workloads
// for an hour, sorting followed their speed most closely, and the mix
// followed it better than any part alone.
const (
	calHashes = 75_000
	calSteps  = 720_000
	calSorts  = 95_000
	calWords  = 16 << 20 // uint32 entries of the walked table
)

// calibrationKernel runs the kernel on n goroutines and returns the
// seconds it took.
func calibrationKernel(n int) float64 {
	// table[i] = a*i + c mod 2^24 with a = 1 mod 4 and c odd is a
	// permutation with a single cycle, and filling it is one pass.
	table := make([]uint32, calWords)
	for i := range table {
		table[i] = (uint32(i)*1664525 + 1013904223) % calWords
	}
	outs := make([]uint64, n)
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 1024)
			var sum [sha256.Size]byte
			for i := 0; i < calHashes; i++ {
				buf[0], buf[1] = byte(i), sum[0]
				sum = sha256.Sum256(buf)
			}
			pos := uint32(g * 7919)
			for i := 0; i < calSteps; i++ {
				pos = table[pos]
			}
			ints := make([]int, 64)
			x := uint64(g + 1)
			for i := 0; i < calSorts; i++ {
				for j := range ints {
					x = x*6364136223846793005 + 1442695040888963407
					ints[j] = int(x >> 40)
				}
				sort.Ints(ints)
			}
			outs[g] = uint64(sum[0]) + uint64(pos) + uint64(ints[0])
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(t0).Seconds()
	if outs[0] == 1<<63 { // keeps the results, and so the work, alive
		fmt.Println(outs)
	}
	return elapsed
}

// machineSpeed runs the kernel in a child process and returns the
// machine's present speed relative to the reference machine. A quick
// run, which measures nothing, skips it.
func (r *run) machineSpeed() (float64, error) {
	if r.quick {
		return 1, nil
	}
	c, err := runProcess(r.ctx, shortTimeout, r.exe, "-calibrate", strconv.Itoa(r.p))
	if err != nil {
		return 0, fmt.Errorf("calibration: %w", err)
	}
	seconds, err := strconv.ParseFloat(strings.TrimSpace(c.stdout.String()), 64)
	if err != nil || seconds <= 0 {
		return 0, fmt.Errorf("calibration printed %q", c.stdout.String())
	}
	return referenceSeconds / seconds, nil
}

// calibrated runs fn between two calibrations and returns the seconds
// it took and the machine speed over that time.
func (r *run) calibrated(fn func() error) (seconds, speed float64, err error) {
	before, err := r.machineSpeed()
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	if err := fn(); err != nil {
		return 0, 0, err
	}
	seconds = time.Since(t0).Seconds()
	after, err := r.machineSpeed()
	if err != nil {
		return 0, 0, err
	}
	return seconds, (before + after) / 2, nil
}
