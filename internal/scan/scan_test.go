package scan

import (
	"net/netip"
	"strings"
	"testing"

	"dnssecboot/internal/dnswire"
)

func TestOutcomeStringsAndFailed(t *testing.T) {
	cases := []struct {
		o      Outcome
		s      string
		failed bool
	}{
		{OutcomeOK, "ok", false},
		{OutcomeNoData, "nodata", false},
		{OutcomeNXDomain, "nxdomain", false},
		{OutcomeError, "error", true},
		{OutcomeTimeout, "timeout", true},
		{OutcomeUnreachable, "unreachable", true},
	}
	for _, c := range cases {
		if c.o.String() != c.s {
			t.Errorf("String(%d) = %s", c.o, c.o.String())
		}
		if c.o.Failed() != c.failed {
			t.Errorf("Failed(%s) = %v", c.s, c.o.Failed())
		}
	}
}

func TestSamplePairs(t *testing.T) {
	v4a := netip.MustParseAddr("104.16.1.1")
	v4b := netip.MustParseAddr("104.16.1.2")
	v6a := netip.MustParseAddr("2001:db8::1")
	v6b := netip.MustParseAddr("2001:db8::2")
	pairs := []hostAddr{
		{"asa.ns.cloudflare.com.", v4a},
		{"asa.ns.cloudflare.com.", v4b},
		{"asa.ns.cloudflare.com.", v6a},
		{"elliot.ns.cloudflare.com.", v4b},
		{"elliot.ns.cloudflare.com.", v6b},
	}
	got := samplePairs(pairs)
	if len(got) != 2 {
		t.Fatalf("sampled %d pairs, want 2", len(got))
	}
	if !got[0].addr.Is4() || !got[1].addr.Is6() {
		t.Errorf("sample = %v", got)
	}
	// v4-only pools keep one address.
	got4 := samplePairs(pairs[:2])
	if len(got4) != 1 {
		t.Errorf("v4-only sample = %v", got4)
	}
	// Empty filter result falls back to the input.
	if got := samplePairs(nil); got != nil {
		t.Errorf("nil input = %v", got)
	}
}

func TestIntermediateNames(t *testing.T) {
	owner := "_dsboot.example.co.uk._signal.ns1.example.net."
	apex := "_signal.ns1.example.net."
	got := intermediateNames(owner, apex)
	want := []string{
		"example.co.uk._signal.ns1.example.net.",
		"co.uk._signal.ns1.example.net.",
		"uk._signal.ns1.example.net.",
	}
	if len(got) != len(want) {
		t.Fatalf("intermediateNames = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("name %d = %s, want %s", i, got[i], want[i])
		}
	}
	// Adjacent owner/apex yields nothing.
	if got := intermediateNames("_dsboot._signal.ns1.x.", "_signal.ns1.x."); len(got) != 0 {
		t.Errorf("adjacent = %v", got)
	}
}

func TestNSSetsDiffer(t *testing.T) {
	obs := &ZoneObservation{
		ParentNS: []string{"asa.ns.cloudflare.com.", "elliot.ns.cloudflare.com."},
		ChildNS:  []string{"ASA.ns.cloudflare.com.", "elliot.ns.cloudflare.com."},
	}
	if obs.NSSetsDiffer() {
		t.Error("case-insensitive equal sets reported different")
	}
	obs.ChildNS = []string{"asa.ns.cloudflare.com.", "kara.ns.cloudflare.com."}
	if !obs.NSSetsDiffer() {
		t.Error("different sets not detected")
	}
	obs.ChildNS = nil
	if obs.NSSetsDiffer() {
		t.Error("missing child view reported as differing")
	}
}

func TestAllNSHostsUnion(t *testing.T) {
	obs := &ZoneObservation{
		ParentNS: []string{"ns1.a.", "ns2.a."},
		ChildNS:  []string{"NS2.a.", "ns3.a."},
	}
	got := obs.AllNSHosts()
	if len(got) != 3 {
		t.Fatalf("union = %v", got)
	}
}

func TestSampledDecision(t *testing.T) {
	s := New(Config{
		Resolver:         nil,
		SampleSuffixes:   []string{"ns.cloudflare.com."},
		FullScanFraction: 0.05,
		Seed:             1,
	})
	cf := []string{"asa.ns.cloudflare.com.", "elliot.ns.cloudflare.com."}
	mixed := []string{"asa.ns.cloudflare.com.", "ns1.other.net."}
	if s.sampled("x.com.", mixed) {
		t.Error("mixed NS set sampled")
	}
	if s.sampled("x.com.", nil) {
		t.Error("empty NS set sampled")
	}
	// Across many zones, roughly 95 % should be sampled.
	sampledCount := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if s.sampled(zoneName(i), cf) {
			sampledCount++
		}
	}
	frac := float64(sampledCount) / n
	if frac < 0.90 || frac > 0.99 {
		t.Errorf("sampled fraction = %.3f, want ≈0.95", frac)
	}
	// Deterministic per zone.
	if s.sampled("fixed.com.", cf) != s.sampled("fixed.com.", cf) {
		t.Error("sampling decision not deterministic")
	}
}

func zoneName(i int) string {
	return "zone" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+(i/676)%26)) + ".com."
}

func TestCombinedCDS(t *testing.T) {
	ns := &NSObservation{
		CDS:     []dnswire.RR{{Name: "x.", Class: dnswire.ClassIN, Data: &dnswire.CDS{}}},
		CDNSKEY: []dnswire.RR{{Name: "x.", Class: dnswire.ClassIN, Data: &dnswire.CDNSKEY{}}},
	}
	if got := ns.CombinedCDS(); len(got) != 2 {
		t.Errorf("combined = %d records", len(got))
	}
	empty := &NSObservation{}
	if got := empty.CombinedCDS(); len(got) != 0 {
		t.Errorf("empty combined = %d", len(got))
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	obs := []*ZoneObservation{
		{
			Zone:       "a.com.",
			ParentZone: "com.",
			ParentNS:   []string{"ns1.op.net."},
			ChainValid: true,
			Cost:       Cost{Queries: 13},
			PerNS: []NSObservation{{
				Host:       "ns1.op.net.",
				Addr:       netip.MustParseAddr("10.0.0.1"),
				CDSOutcome: OutcomeOK,
				CDS: []dnswire.RR{{Name: "a.com.", Class: dnswire.ClassIN, TTL: 300,
					Data: &dnswire.CDS{DS: dnswire.DS{KeyTag: 1, Algorithm: 13, DigestType: 2, Digest: []byte{0xAA}}}}},
			}},
			Signals: []SignalObservation{{
				NSHost: "ns1.op.net.", Owner: "_dsboot.a.com._signal.ns1.op.net.",
				Outcome: OutcomeOK, Secure: true,
			}},
		},
		{Zone: "b.com.", ResolveErr: "no reachable nameserver addresses"},
	}
	var buf strings.Builder
	if err := WriteJSONL(&buf, obs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("read %d objects", len(got))
	}
	if got[0].Zone != "a.com." || !got[0].ChainValid || got[0].Queries != 13 {
		t.Errorf("first object = %+v", got[0])
	}
	if len(got[0].PerNS) != 1 || got[0].PerNS[0].CDSOutcome != "ok" || len(got[0].PerNS[0].CDS) != 1 {
		t.Errorf("per-NS = %+v", got[0].PerNS)
	}
	if len(got[0].Signals) != 1 || !got[0].Signals[0].Secure {
		t.Errorf("signals = %+v", got[0].Signals)
	}
	if got[1].ResolveErr == "" {
		t.Error("resolve error lost")
	}
}
