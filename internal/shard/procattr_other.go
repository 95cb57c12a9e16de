//go:build !linux

package shard

import "os/exec"

// tieToCoordinator sets nothing: these platforms have no parent-death
// signal, so a coordinator killed outright (SIGKILL, a crash) leaves
// its workers running until they finish their shards. A coordinator
// that exits through its own shutdown still stops them.
func tieToCoordinator(*exec.Cmd) (release func()) { return func() {} }
