// Package shard partitions the zone space across cooperating scan
// processes and coordinates their lifecycle. The paper's campaign
// covered 287.6 M zones — far beyond one process — so the scan is split
// into N contiguous index ranges, each owned by one `dnssec-scan
// -shard i/N` worker; the coordinator (`dnssec-scan -shards N`, which
// re-executes itself for every worker) launches the workers, restarts
// dead or wedged ones from their dumps, and checks and concatenates the
// per-shard JSONL dumps into output whose record bodies, headline and
// tables are byte-identical to a single-process run's.
package shard

import (
	"fmt"
	"strconv"
	"strings"
)

// Range is a half-open interval [Lo, Hi) of zone indices.
type Range struct {
	Lo, Hi int
}

// Len returns the number of zones in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// Partition splits [0, total) into shards contiguous ranges whose sizes
// differ by at most one, larger ranges first. The split is a pure
// function of (total, shards): every worker and the coordinator derive
// identical boundaries independently, which is what makes per-shard
// dumps and their concatenation meaningful across processes.
func Partition(total, shards int) []Range {
	if shards < 1 {
		shards = 1
	}
	ranges := make([]Range, shards)
	base := total / shards
	extra := total % shards
	lo := 0
	for i := range ranges {
		size := base
		if i < extra {
			size++
		}
		ranges[i] = Range{Lo: lo, Hi: lo + size}
		lo += size
	}
	return ranges
}

// Parse reads the -shard flag form "i/N" (0-based shard i of N) and
// validates 0 <= i < N. The empty string means unsharded (0/1).
func Parse(s string) (shard, shards int, err error) {
	if s == "" {
		return 0, 1, nil
	}
	idx, n, ok := strings.Cut(s, "/")
	if !ok {
		return 0, 0, fmt.Errorf("shard: %q is not of the form i/N", s)
	}
	shard, err = strconv.Atoi(idx)
	if err != nil {
		return 0, 0, fmt.Errorf("shard: bad index in %q: %w", s, err)
	}
	shards, err = strconv.Atoi(n)
	if err != nil {
		return 0, 0, fmt.Errorf("shard: bad count in %q: %w", s, err)
	}
	if shards < 1 || shard < 0 || shard >= shards {
		return 0, 0, fmt.Errorf("shard: index %d outside [0, %d)", shard, shards)
	}
	return shard, shards, nil
}

// PathFor expands the {shard} placeholder in a file path to the
// canonical "i-of-N" form, so one -dump/-checkpoint template yields a
// distinct file per worker. Paths without the placeholder pass through
// unchanged.
func PathFor(path string, shard, shards int) string {
	return strings.ReplaceAll(path, "{shard}", fmt.Sprintf("%d-of-%d", shard, shards))
}
