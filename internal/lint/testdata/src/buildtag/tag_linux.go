// Package buildtag declares Sentinel once per platform, in files the go
// tool picks by build constraint. The loader must lint only the file
// this platform compiles: both files together do not type-check, and
// the finding in the other file must not appear.
package buildtag

import "errors"

// ErrLinux is the sentinel this platform returns.
var ErrLinux = errors.New("buildtag: linux")

// Sentinel returns this platform's sentinel error.
func Sentinel() error { return ErrLinux }

// IsSentinel matches only the unwrapped value.
func IsSentinel(err error) bool {
	return err == ErrLinux // want `sentinel error ErrLinux compared with ==`
}
