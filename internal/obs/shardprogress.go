package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// ShardRollup aggregates the progress of a sharded scan's worker
// processes into one periodic status line. The coordinator learns each
// shard's position by polling its dump, so updates arrive
// per shard and out of band; the rollup keeps the latest view and
// renders totals plus a compact per-shard breakdown. A nil *ShardRollup
// is a no-op, mirroring Progress, so the coordinator reports
// unconditionally.
type ShardRollup struct {
	w     io.Writer
	mu    sync.Mutex
	rows  []shardRow
	start time.Time
	now   func() time.Time
}

// shardRow is the last-known state of one shard.
type shardRow struct {
	done, total int
	state       string
}

// Shard lifecycle states as reported by the coordinator.
const (
	ShardPending    = "pending"
	ShardRunning    = "running"
	ShardRestarting = "restarting"
	ShardDone       = "done"
	ShardFailed     = "failed"
)

// NewShardRollup tracks shards workers writing to w.
func NewShardRollup(w io.Writer, shards int) *ShardRollup {
	r := &ShardRollup{w: w, rows: make([]shardRow, shards), now: time.Now}
	for i := range r.rows {
		r.rows[i].state = ShardPending
	}
	r.start = r.now()
	return r
}

// Update records shard's latest position. No-op on nil or out-of-range
// shard indices (a stray shard index must not panic the rollup).
func (r *ShardRollup) Update(shard, done, total int, state string) {
	if r == nil || shard < 0 || shard >= len(r.rows) {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rows[shard] = shardRow{done: done, total: total, state: state}
}

// Render writes one rollup line: aggregate zones, throughput, and each
// shard's position and state. No-op on nil.
func (r *ShardRollup) Render() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var done, total, running, finished int
	parts := make([]string, 0, len(r.rows))
	for i, row := range r.rows {
		done += row.done
		total += row.total
		switch row.state {
		case ShardRunning, ShardRestarting:
			running++
		case ShardDone:
			finished++
		}
		parts = append(parts, fmt.Sprintf("s%d %d/%d %s", i, row.done, row.total, row.state))
	}
	elapsed := r.now().Sub(r.start).Seconds()
	if elapsed <= 0 {
		elapsed = 1e-9
	}
	fmt.Fprintf(r.w, "shards: %d running, %d done · %d/%d zones (%.1f/s) · %s\n",
		running, finished, done, total, float64(done)/elapsed, strings.Join(parts, " · "))
}
