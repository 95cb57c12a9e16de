//go:build !linux

package buildtag

import "errors"

// ErrOther is the sentinel every other platform returns.
var ErrOther = errors.New("buildtag: other")

// Sentinel returns this platform's sentinel error.
func Sentinel() error { return ErrOther }

// IsSentinel matches only the unwrapped value; no finding is expected,
// because on Linux this file is not compiled.
func IsSentinel(err error) bool {
	return err == ErrOther
}
