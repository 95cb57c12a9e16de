// Command scanctl is dnssec-scan with -shards defaulting to 4: the same
// flags, checks and outputs, coordinating re-executed copies of scanctl
// itself. It is kept as an alias because the benchmark drives the built
// scanctl; `scanctl -shards 0` is an in-process scan.
//
// Usage:
//
//	scanctl -shards 4 -scale 2000 -run-dir run [-dump merged.jsonl] [-out all]
package main

import (
	_ "expvar" // registers /debug/vars on DefaultServeMux
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof handlers on DefaultServeMux

	"dnssecboot/internal/core"
)

func main() {
	core.Main(4, func(addr string) error { return http.ListenAndServe(addr, nil) })
}
