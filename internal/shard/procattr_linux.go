package shard

import (
	"os/exec"
	"runtime"
	"syscall"
)

// tieToCoordinator makes the worker cmd get SIGTERM when its
// coordinator dies, even by SIGKILL; the worker then drains and
// flushes its dump through its own handler. The kernel ties the signal to
// the thread that started the worker, so the calling goroutine keeps its
// thread until it calls the returned release, after Wait returns.
func tieToCoordinator(cmd *exec.Cmd) (release func()) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	runtime.LockOSThread()
	return runtime.UnlockOSThread
}
