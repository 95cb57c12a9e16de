// Command dnssec-scan reproduces the paper's measurement: it generates
// the synthetic DNS ecosystem, runs the YoDNS-style scan over it, and
// prints the evaluation artefacts (the §4.1 headline, Tables 1–3,
// Figure 1, the §4.2 CDS findings and the Appendix-D query
// accounting).
//
// Usage:
//
//	dnssec-scan [-scale 2000] [-seed 1] [-concurrency 16] [-out table3]
//	dnssec-scan -shards 4 -run-dir run [scan flags] [-dump merged.jsonl]
//
// -scale divides the paper's population counts; -out selects one
// artefact (default: all).
//
// The scan streams: each zone's observation is classified, folded into
// the report tallies and (with -dump) appended to the JSONL export as
// soon as its turn in the target order arrives, so memory stays bounded
// by the concurrency window regardless of -scale. The dump is the
// scan's record of progress: with -checkpoint (which needs -dump) the
// run's identity is written once at the start, and an interrupted run
// (crash or SIGINT, which drains in-flight zones gracefully) continues
// with -resume after the dump's last complete record.
//
// With -shards N the command coordinates N copies of itself, each
// started with -shard i/N to scan one contiguous partition of the zone
// space; it restarts dead or wedged copies from their dumps in -run-dir
// and merges their outputs byte-identically to a single-process
// run (README "Sharded scans": which flags reach the copies).
//
// With -zonefile the target list comes from a real zone dump (CZDS
// download / AXFR capture, plain or gzipped) reduced to registrable
// delegated domains by internal/ingest, instead of from the synthetic
// generator; -shard then partitions the ingested list. The -seed/-scale
// world still provides the simulated network the targets are resolved
// against (an ingested name that exists in the world classifies
// normally; unknown names observe NXDOMAIN).
package main

import (
	_ "expvar" // registers /debug/vars on DefaultServeMux
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof handlers on DefaultServeMux

	"dnssecboot/internal/core"
)

func main() {
	core.Main(0, func(addr string) error { return http.ListenAndServe(addr, nil) })
}
