// Package conc exercises the concurrency analyzer. The test harness
// registers this package as a hot path, enabling the ctx-threading rule
// on top of the everywhere-on atomic-mix rule.
package conc

import (
	"context"
	"sync/atomic"
)

// Counter mixes atomic and plain access to the same field.
type Counter struct {
	hits int64
}

// Inc sanctions hits as an atomically accessed field.
func (c *Counter) Inc() {
	atomic.AddInt64(&c.hits, 1)
}

// Snapshot reads the field without sync/atomic: a data race.
func (c *Counter) Snapshot() int64 {
	return c.hits // want `c\.hits is accessed via sync/atomic elsewhere`
}

// Detach replaces the caller's ctx with a fresh background context.
func Detach(ctx context.Context) error {
	_ = ctx
	sub := context.Background() // want `context\.Background\(\) below a ctx parameter detaches cancellation`
	return sub.Err()
}

// Dropped receives a deadline and never looks at it.
func Dropped(ctx context.Context, n int) int { // want `ctx parameter "ctx" is never used`
	return n + 1
}

// Threaded forwards ctx to its callee: clean.
func Threaded(ctx context.Context) error {
	return work(ctx)
}

func work(ctx context.Context) error { return ctx.Err() }

// Spawn captures the loop variable inside the goroutine closure: clean,
// since Go 1.22 gives each iteration its own variable.
func Spawn(items []int, out chan<- int) {
	for _, it := range items {
		go func() {
			out <- it
		}()
	}
}
