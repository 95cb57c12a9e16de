// Command dnsd is the long-running authoritative DNS daemon: it serves
// loaded zones over real UDP and TCP with a bounded worker model, a
// TTL-honouring response cache for repeated query shapes, periodic
// metrics snapshots, and graceful drain on SIGTERM/SIGINT (stop
// accepting, answer everything in flight, flush metrics, exit 0).
//
// Usage:
//
//	dnsd -listen 127.0.0.1:5353 example.com.db
//	dnsd -listen 127.0.0.1:0 -addr-file /run/dnsd.addr -sign \
//	     -metrics-out metrics.json -metrics-every 10s zone1.db zone2.db
//	dnsd -listen 127.0.0.1:5353 -cache-entries 0 -legacy zone1.db   # FORMERR on CDS
//
// Zone origins derive from filenames (<origin>.db / <origin>.zone);
// -sign generates keys and signs every loaded zone in memory so DO
// queries are answered with RRSIGs without a separate zonesign step.
// -legacy, -refuse-any, -servfail-rate and -drop-rate reproduce the
// server quirks the paper observed in the wild. They act behind the
// response cache, which never stores a quirk's outcome but does answer
// repeats without consulting the server: pass -cache-entries 0 when
// every query should meet the quirk.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"dnssecboot/internal/obs"
	"dnssecboot/internal/server"
	"dnssecboot/internal/transport"
	"dnssecboot/internal/zone"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("dnsd", flag.ExitOnError)
	var (
		listen       = fs.String("listen", "127.0.0.1:5353", "UDP/TCP listen address (port 0 picks a free port)")
		addrFile     = fs.String("addr-file", "", "write the bound address to this file once listening")
		workers      = fs.Int("workers", 0, "UDP worker goroutines (0 = 4×GOMAXPROCS)")
		backlog      = fs.Int("udp-backlog", 0, "UDP packet queue depth (0 = 1024)")
		idleTimeout  = fs.Duration("idle-timeout", 2*time.Minute, "TCP idle read deadline")
		cacheEntries = fs.Int("cache-entries", 4096, "response cache capacity (0 disables the cache)")
		sign         = fs.Bool("sign", false, "generate keys and DNSSEC-sign loaded zones in memory")
		metricsOut   = fs.String("metrics-out", "", "write periodic JSON metrics snapshots to this file")
		metricsEvery = fs.Duration("metrics-every", 10*time.Second, "metrics snapshot interval")
		drainTimeout = fs.Duration("drain-timeout", 10*time.Second, "graceful drain budget on shutdown")
		legacy       = fs.Bool("legacy", false, "FORMERR on post-2003 query types (pre-RFC 3597 behaviour)")
		refuseANY    = fs.Bool("refuse-any", false, "answer ANY with RFC 8482 HINFO")
		servfailRate = fs.Float64("servfail-rate", 0, "probability that a cache miss is answered SERVFAIL")
		dropRate     = fs.Float64("drop-rate", 0, "probability that a cache miss is silently dropped")
		seed         = fs.Int64("seed", 1, "seed for the -servfail-rate/-drop-rate dice")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "dnsd: at least one zone file required")
		return 2
	}

	srv := server.New(*seed)
	srv.Behavior = server.Behavior{
		LegacyUnknownTypes: *legacy,
		RefuseANY:          *refuseANY,
		ServfailRate:       *servfailRate,
		DropRate:           *dropRate,
	}
	for _, path := range fs.Args() {
		z, err := loadZone(path, *sign)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dnsd:", err)
			return 1
		}
		srv.AddZone(z)
		fmt.Fprintf(os.Stderr, "dnsd: loaded %s (%d records, signed=%v)\n", z.Origin, z.Size(), z.IsSigned())
	}

	reg := obs.NewRegistry()
	var handler transport.Handler = srv
	if *cacheEntries > 0 {
		handler = &server.CachedHandler{Inner: srv, Cache: server.NewCache(*cacheEntries, reg)}
	}
	l, err := server.ListenConfig(*listen, handler, server.Config{
		UDPWorkers:  *workers,
		UDPBacklog:  *backlog,
		IdleTimeout: *idleTimeout,
		Metrics:     reg,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dnsd:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "dnsd: listening on %s (udp+tcp)\n", l.Addr())
	if *addrFile != "" {
		if err := writeFileAtomic(*addrFile, []byte(l.Addr().String())); err != nil {
			fmt.Fprintln(os.Stderr, "dnsd:", err)
			_ = l.Close()
			return 1
		}
	}

	start := time.Now()
	stopSnapshots := make(chan struct{})
	snapshotsDone := make(chan struct{})
	go func() {
		defer close(snapshotsDone)
		if *metricsOut == "" {
			return
		}
		ticker := time.NewTicker(*metricsEvery)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				writeSnapshot(*metricsOut, reg, start)
			case <-stopSnapshots:
				return
			}
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	fmt.Fprintf(os.Stderr, "dnsd: %s, draining (budget %s)\n", got, *drainTimeout)

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := l.Shutdown(ctx)
	close(stopSnapshots)
	<-snapshotsDone
	if *metricsOut != "" {
		writeSnapshot(*metricsOut, reg, start) // final snapshot after drain
	}
	if drainErr != nil {
		fmt.Fprintf(os.Stderr, "dnsd: drain incomplete: %v\n", drainErr)
		return 1
	}
	fmt.Fprintln(os.Stderr, "dnsd: drained cleanly")
	return 0
}

func loadZone(path string, sign bool) (*zone.Zone, error) {
	origin, err := zone.OriginFromFilename(path)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	z, err := zone.Parse(f, origin)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if sign && !z.IsSigned() {
		cfg := zone.SignConfig{}
		if err := z.GenerateKeys(cfg, nil); err != nil {
			return nil, fmt.Errorf("%s: generate keys: %w", path, err)
		}
		if err := z.Sign(cfg); err != nil {
			return nil, fmt.Errorf("%s: sign: %w", path, err)
		}
	}
	return z, nil
}

// writeSnapshot writes the registry plus an uptime gauge atomically
// (temp file + rename), so a reader never observes a torn snapshot.
func writeSnapshot(path string, reg *obs.Registry, start time.Time) {
	reg.Gauge("dnsd.uptime_seconds").Set(int64(time.Since(start) / time.Second))
	tmp, err := os.CreateTemp(filepath.Dir(path), "dnsd-metrics-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "dnsd: metrics snapshot:", err)
		return
	}
	werr := reg.WriteJSON(tmp)
	cerr := tmp.Close()
	if werr == nil && cerr == nil {
		werr = os.Rename(tmp.Name(), path)
	}
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		fmt.Fprintln(os.Stderr, "dnsd: metrics snapshot:", werr, cerr)
	}
}

func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
