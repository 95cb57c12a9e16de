package scan_test

import (
	"bytes"
	"context"
	"net/netip"
	"sync/atomic"
	"testing"

	"dnssecboot/internal/dnswire"
	"dnssecboot/internal/ecosystem"
	"dnssecboot/internal/resolver"
	"dnssecboot/internal/scan"
	"dnssecboot/internal/transport"
)

// burstNet is a network on which, while on, every DNSKEY fetch times
// out except the scanned zone's own: the signer chain's keys are
// unreachable for the length of the burst, everything else answers.
type burstNet struct {
	inner transport.Exchanger
	on    atomic.Bool
	spare string
}

func (n *burstNet) Exchange(ctx context.Context, server netip.AddrPort, q *dnswire.Message) (*dnswire.Message, error) {
	if n.on.Load() && q.Question[0].Type == dnswire.TypeDNSKEY && dnswire.CanonicalName(q.Question[0].Name) != n.spare {
		return nil, transport.ErrTimeout
	}
	return n.inner.Exchange(ctx, server, q)
}

// scannerOn builds the scanner core.NewScanner builds, on net instead
// of world.Net and without retries, so one timeout is one gave-up fetch.
func scannerOn(world *ecosystem.Ecosystem, net transport.Exchanger) *scan.Scanner {
	return scan.New(scan.Config{
		Resolver:         &resolver.Resolver{Net: net, Roots: world.Roots},
		Now:              world.Now,
		SampleSuffixes:   world.CloudflareSuffixes,
		FullScanFraction: 0.05,
		ProbeSignals:     true,
		TrustAnchor:      world.TrustAnchor,
		Seed:             1,
	})
}

func allSecure(zo *scan.ZoneObservation) bool {
	for _, so := range zo.Signals {
		if !so.Secure {
			return false
		}
	}
	return len(zo.Signals) > 0
}

func bodyOf(t *testing.T, zo *scan.ZoneObservation) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := scan.WriteJSONL(&buf, []*scan.ZoneObservation{zo}); err != nil {
		t.Fatal(err)
	}
	return scan.Body(buf.Bytes())
}

// TestValidatorForgetsTransientFailures: a gave-up DNSKEY fetch for a
// signer zone while one zone is scanned must not decide the signals of
// the zones scanned after it. Pre-fix Validator.ZoneKeys memoised every
// error for the life of the scan, so one timeout burst marked every
// later signal under the same operator insecure — the one way scan
// history could reach a record body.
func TestValidatorForgetsTransientFailures(t *testing.T) {
	world, err := ecosystem.Generate(ecosystem.Config{Seed: 1, ScaleDivisor: 500_000})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Two zones with secure signals under the same nameserver host, and
	// so under the same signer zone.
	var first, second string
	byHost := map[string]string{}
	healthy := scannerOn(world, world.Net)
	for _, z := range world.Targets {
		zo := healthy.ScanZone(ctx, z)
		if !allSecure(zo) {
			continue
		}
		if prev, ok := byHost[zo.ParentNS[0]]; ok {
			first, second = prev, zo.Zone
			break
		}
		byHost[zo.ParentNS[0]] = zo.Zone
	}
	if second == "" {
		t.Fatal("world has no two zones with secure signals under one nameserver host")
	}

	net := &burstNet{inner: world.Net, spare: first}
	s := scannerOn(world, net)
	net.on.Store(true)
	burst := s.ScanZone(ctx, first)
	net.on.Store(false)
	if allSecure(burst) || burst.Signals[0].ValidationErr == "" {
		t.Fatalf("the burst did not reach %s's signal validation: %+v", first, burst.Signals)
	}

	after := s.ScanZone(ctx, second)
	if !allSecure(after) {
		t.Errorf("%s scanned after the burst: signals not secure (%q) — the transient failure was memoised",
			second, after.Signals[0].ValidationErr)
	}
	cold := scannerOn(world, world.Net).ScanZone(ctx, second)
	if got, want := bodyOf(t, after), bodyOf(t, cold); !bytes.Equal(got, want) {
		t.Errorf("body after the burst differs from a cold scanner's (%d vs %d bytes)", len(got), len(want))
	}
}
