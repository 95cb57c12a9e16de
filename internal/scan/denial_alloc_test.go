//go:build !race

package scan

import (
	"testing"
	"time"

	"dnssecboot/internal/dnswire"
	"dnssecboot/internal/resolver"
)

// TestDeniedAllocFree pins a validated-denial hit, which answers most
// signal probes, at zero allocations: the signers are tried as slices of
// the name, and the NSEC that covers the probe also covers the wildcard
// at its closest encloser, so the wildcard is neither built nor looked
// up.
func TestDeniedAllocFree(t *testing.T) {
	now := time.Date(2025, 4, 15, 12, 0, 0, 0, time.UTC)
	cache := resolver.NewCache(0)
	cache.SetClock(func() time.Time { return now })
	v := &Validator{R: &resolver.Resolver{Cache: cache}}
	const signer = "_signal.ns1.op.net."
	v.denials.add(signer, storedNSEC{expires: now.Add(time.Minute), rr: dnswire.RR{Name: signer, Class: dnswire.ClassIN, TTL: 300,
		Data: &dnswire.NSEC{NextDomain: "_dsboot.b.com." + signer, Types: []dnswire.Type{dnswire.TypeNS, dnswire.TypeSOA, dnswire.TypeRRSIG, dnswire.TypeNSEC}}}})
	const probe = "_dsboot.a.com." + signer
	d, ok := v.denied(probe)
	if !ok || d.Cover.Name != signer || d.Wildcard.Name != signer {
		t.Fatalf("denied(%s) = %v, %v; want the apex NSEC as cover and wildcard proof", probe, d, ok)
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, ok := v.denied(probe); !ok {
			t.Fatal("probe no longer denied")
		}
	})
	if avg > 0 {
		t.Errorf("a denial hit allocates %.2f/op, want 0", avg)
	}
}
