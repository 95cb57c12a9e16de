// Package determ exercises the nondeterminism analyzer. The test
// harness registers this package as deterministic scope; each `want`
// comment is a regexp the finding on that line must match, and lines
// without one must stay clean.
package determ

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"
)

// Anchor draws the wall clock and process-global randomness: both are
// banned in deterministic scope.
func Anchor() (time.Time, int) {
	now := time.Now()  // want `time\.Now\(\) in a deterministic package`
	n := rand.Intn(10) // want `global rand\.Intn\(\) draws from process-global state`
	return now, n
}

// Seeded randomness is the sanctioned alternative and must not fire.
func Seeded(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(10)
}

// Keys collects map keys in iteration order and returns them unsorted.
func Keys(m map[string]int) []string {
	var out []string
	for k := range m { // want `body appends to "out", which outlives the loop`
		out = append(out, k)
	}
	return out
}

// SortedKeys collects then sorts: the canonical fix, never flagged.
func SortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Dump writes rows to a stream in map iteration order.
func Dump(m map[string]int) {
	for k, v := range m { // want `body writes to an output stream via fmt\.Fprintf`
		fmt.Fprintf(os.Stdout, "%s=%d\n", k, v)
	}
}

// Shuffle consumes RNG state per iteration: flagged even though the
// generator is seeded, because map order decides which key receives
// which draw.
func Shuffle(m map[string]int, rng *rand.Rand) map[string]int {
	out := make(map[string]int, len(m))
	for k := range m { // want `body consumes RNG state via \(\*rand\.Rand\)\.Intn`
		out[k] = rng.Intn(10)
	}
	return out
}

// Allowed carries a well-formed pragma, so the escaping append on the
// line below it is suppressed.
func Allowed(m map[string]int) []string {
	var out []string
	//lint:allow nondeterminism callers treat the result as a set
	for k := range m {
		out = append(out, k)
	}
	return out
}

// BadPragma has no reason: the pragma itself is reported and the
// finding it sits above still fires.
func BadPragma(m map[string]int) []string {
	var out []string
	// want+1 `allow pragma for "nondeterminism" has no reason`
	//lint:allow nondeterminism
	for k := range m { // want `body appends to "out", which outlives the loop`
		out = append(out, k)
	}
	return out
}
