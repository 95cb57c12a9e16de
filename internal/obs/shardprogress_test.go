package obs

import (
	"strings"
	"testing"
	"time"
)

func TestShardRollupRender(t *testing.T) {
	var buf strings.Builder
	r := NewShardRollup(&buf, 3)
	// Deterministic clock so the zones/s figure is assertable.
	base := time.Unix(1000, 0)
	r.start = base
	r.now = func() time.Time { return base.Add(10 * time.Second) }

	r.Update(0, 500, 500, ShardDone)
	r.Update(1, 250, 500, ShardRunning)
	r.Update(2, 100, 500, ShardRestarting)
	r.Render()

	line := buf.String()
	for _, want := range []string{
		"shards: 2 running, 1 done",
		"850/1500 zones",
		"(85.0/s)",
		"s0 500/500 done",
		"s1 250/500 running",
		"s2 100/500 restarting",
	} {
		if !strings.Contains(line, want) {
			t.Errorf("rollup line missing %q:\n%s", want, line)
		}
	}
}

func TestShardRollupNilAndBounds(t *testing.T) {
	var r *ShardRollup
	r.Update(0, 1, 2, ShardRunning) // no-op, must not panic
	r.Render()

	var buf strings.Builder
	live := NewShardRollup(&buf, 2)
	live.Update(-1, 9, 9, ShardDone) // out of range: ignored
	live.Update(7, 9, 9, ShardDone)
	live.Render()
	if !strings.Contains(buf.String(), " 0/0 zones") {
		t.Errorf("out-of-range updates counted: %s", buf.String())
	}
	if !strings.Contains(buf.String(), "s0 0/0 pending") {
		t.Errorf("fresh shards should render pending: %s", buf.String())
	}
}
