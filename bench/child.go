package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// Every process the harness starts goes through runProcess, so that
// none hangs a run or outlives the harness: each has a deadline and a
// process group of its own (a child's children share it), killed whole
// when the deadline passes or the harness is interrupted, and the kernel
// sends each SIGTERM if the harness dies without having done so: not
// SIGKILL, since scanctl and a harness of the full set stop their own
// children when asked. Linux only, as is reading /proc for the metrics.

// shortTimeout bounds the calibration kernel and git.
const shortTimeout = 30 * time.Second

// running is held for reading while a child runs, and for writing by main's
// signal handler: once every child is killed and reaped, and none can start.
var running sync.RWMutex

// child is a process that has ended: what it printed and how it ended.
type child struct {
	stdout, stderr bytes.Buffer
	state          *os.ProcessState
}

// runProcess runs a command to its end. An error names the command and
// carries the last lines of its standard error.
func runProcess(ctx context.Context, limit time.Duration, name string, args ...string) (*child, error) {
	running.RLock()
	defer running.RUnlock()
	ctx, cancel := context.WithTimeout(ctx, limit)
	defer cancel()
	var c child
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Stdout, cmd.Stderr = &c.stdout, &c.stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGTERM}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	// The kernel's signal goes out when the thread that started the
	// child ends, not the process: keep that thread until the child ends.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	err := cmd.Run()
	c.state = cmd.ProcessState
	if ctx.Err() != nil {
		err = fmt.Errorf("killed (limit %v): %w", limit, ctx.Err())
	}
	if err != nil {
		lines := bytes.Split(bytes.TrimSpace(c.stderr.Bytes()), []byte("\n"))
		err = fmt.Errorf("%s: %w\n%s", name, err, bytes.Join(lines[max(0, len(lines)-10):], []byte("\n")))
	}
	return &c, err
}
