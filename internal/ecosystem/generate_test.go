package ecosystem

import (
	"context"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"dnssecboot/internal/dnswire"
	"dnssecboot/internal/resolver"
	"dnssecboot/internal/scan"
)

// smallWorld generates a heavily scaled-down ecosystem for tests.
func smallWorld(t *testing.T) *Ecosystem {
	t.Helper()
	eco, err := Generate(Config{Seed: 1, ScaleDivisor: 500_000})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return eco
}

func newScanner(eco *Ecosystem, probeSignals bool) *scan.Scanner {
	r := &resolver.Resolver{Net: eco.Net, Roots: eco.Roots}
	return scan.New(scan.Config{
		Resolver:         r,
		Now:              eco.Now,
		SampleSuffixes:   eco.CloudflareSuffixes,
		FullScanFraction: 0.05,
		ProbeSignals:     probeSignals,
		TrustAnchor:      eco.TrustAnchor,
		Seed:             1,
	})
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(Config{Seed: 7, ScaleDivisor: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Config{Seed: 7, ScaleDivisor: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Targets) != len(b.Targets) {
		t.Fatalf("target counts differ: %d vs %d", len(a.Targets), len(b.Targets))
	}
	for i := range a.Targets {
		if a.Targets[i] != b.Targets[i] {
			t.Fatalf("target %d differs: %s vs %s", i, a.Targets[i], b.Targets[i])
		}
	}
}

func TestGenerateHasEveryPhenomenon(t *testing.T) {
	eco := smallWorld(t)
	counts := map[State]int{}
	cds := map[CDSMode]int{}
	anomalies := map[SignalAnomaly]int{}
	signal := 0
	for _, tr := range eco.Truth {
		counts[tr.Spec.State]++
		cds[tr.Spec.CDS]++
		anomalies[tr.Spec.SignalAnomaly]++
		if tr.Spec.Signal {
			signal++
		}
	}
	for _, st := range []State{StateUnsigned, StateSecured, StateInvalid, StateIsland} {
		if counts[st] == 0 {
			t.Errorf("no zones in state %s", st)
		}
	}
	for _, m := range []CDSMode{CDSMatch, CDSDelete, CDSOrphan, CDSBadSig} {
		if cds[m] == 0 {
			t.Errorf("no zones with CDS mode %s", m)
		}
	}
	for _, a := range []SignalAnomaly{SigMissingOneNS, SigNSMismatch, SigZoneCut, SigBadSig, SigExpiredSig} {
		if anomalies[a] == 0 {
			t.Errorf("no zones with signal anomaly %s", a)
		}
	}
	if signal == 0 {
		t.Error("no zones with signal records")
	}
	if counts[StateUnsigned] <= counts[StateSecured] {
		t.Errorf("unsigned (%d) should dominate secured (%d)", counts[StateUnsigned], counts[StateSecured])
	}
}

func TestScanSecuredZone(t *testing.T) {
	eco := smallWorld(t)
	s := newScanner(eco, false)
	var target string
	for z, tr := range eco.Truth {
		if tr.Operator == "GoDaddy" && tr.Spec.State == StateSecured {
			target = z
			break
		}
	}
	if target == "" {
		t.Fatal("no GoDaddy secured zone generated")
	}
	obs := s.ScanZone(context.Background(), target)
	if obs.ResolveErr != "" {
		t.Fatalf("resolve error: %s", obs.ResolveErr)
	}
	if !obs.IsSigned() || !obs.HasDS() {
		t.Fatalf("secured zone signed=%v ds=%v", obs.IsSigned(), obs.HasDS())
	}
	if !obs.ChainValid {
		t.Fatalf("chain invalid: %s", obs.ChainErr)
	}
	// GoDaddy publishes CDS on DNSSEC zones.
	found := false
	for _, ns := range obs.PerNS {
		if len(ns.CDS) > 0 {
			found = true
		}
	}
	if !found {
		t.Error("no CDS observed on a CDS-publishing operator's zone")
	}
}

func TestScanIslandAndInvalid(t *testing.T) {
	eco := smallWorld(t)
	s := newScanner(eco, false)
	var island, invalid string
	for z, tr := range eco.Truth {
		if tr.Operator == "Cloudflare" && tr.Spec.State == StateIsland && tr.Spec.CDS == CDSMatch &&
			tr.Spec.SignalAnomaly == SigOK && !tr.Spec.CDSInconsistent && island == "" {
			island = z
		}
		if tr.Operator == "Cloudflare" && tr.Spec.State == StateInvalid && invalid == "" {
			invalid = z
		}
	}
	if island == "" || invalid == "" {
		t.Fatalf("missing fixtures: island=%q invalid=%q", island, invalid)
	}
	iobs := s.ScanZone(context.Background(), island)
	if iobs.ResolveErr != "" {
		t.Fatalf("island resolve: %s", iobs.ResolveErr)
	}
	if !iobs.IsSigned() || iobs.HasDS() {
		t.Errorf("island signed=%v ds=%v", iobs.IsSigned(), iobs.HasDS())
	}
	if !iobs.ChainValid {
		t.Errorf("island should self-validate: %s", iobs.ChainErr)
	}

	vobs := s.ScanZone(context.Background(), invalid)
	if vobs.ResolveErr != "" {
		t.Fatalf("invalid resolve: %s", vobs.ResolveErr)
	}
	if !vobs.IsSigned() || !vobs.HasDS() {
		t.Errorf("invalid zone signed=%v ds=%v", vobs.IsSigned(), vobs.HasDS())
	}
	if vobs.ChainValid {
		t.Error("expired-signature zone validated")
	}
}

func TestScanErrantDS(t *testing.T) {
	eco := smallWorld(t)
	s := newScanner(eco, false)
	var target string
	for z, tr := range eco.Truth {
		if tr.Spec.ErrantDS {
			target = z
			break
		}
	}
	if target == "" {
		t.Fatal("no errant-DS zone")
	}
	obs := s.ScanZone(context.Background(), target)
	if obs.IsSigned() {
		t.Error("errant-DS zone should be unsigned")
	}
	if !obs.HasDS() {
		t.Error("errant-DS zone should have DS at parent")
	}
}

func TestScanLegacyOperator(t *testing.T) {
	eco := smallWorld(t)
	s := newScanner(eco, false)
	var target string
	for z, tr := range eco.Truth {
		if tr.Operator == "LegacyDNS" {
			target = z
			break
		}
	}
	if target == "" {
		t.Fatal("no legacy zone")
	}
	obs := s.ScanZone(context.Background(), target)
	if obs.ResolveErr != "" {
		t.Fatalf("resolve: %s", obs.ResolveErr)
	}
	for _, ns := range obs.PerNS {
		if ns.CDSOutcome != scan.OutcomeError {
			t.Errorf("legacy CDS outcome = %s, want error", ns.CDSOutcome)
		}
	}
}

func TestScanSignalZones(t *testing.T) {
	eco := smallWorld(t)
	s := newScanner(eco, true)
	var good string
	for z, tr := range eco.Truth {
		if tr.Operator == "deSEC" && tr.Spec.State == StateIsland && tr.Spec.CDS == CDSMatch &&
			tr.Spec.SignalAnomaly == SigOK && tr.Spec.Signal {
			good = z
			break
		}
	}
	if good == "" {
		t.Fatal("no clean deSEC island with signal")
	}
	obs := s.ScanZone(context.Background(), good)
	if obs.ResolveErr != "" {
		t.Fatalf("resolve: %s", obs.ResolveErr)
	}
	if len(obs.Signals) == 0 {
		t.Fatal("no signal observations")
	}
	for _, so := range obs.Signals {
		if so.Outcome != scan.OutcomeOK {
			t.Errorf("signal under %s outcome = %s", so.NSHost, so.Outcome)
			continue
		}
		if !so.Secure {
			t.Errorf("signal under %s not secure: %s", so.NSHost, so.ValidationErr)
		}
		if so.ZoneCut {
			t.Errorf("spurious zone cut under %s", so.NSHost)
		}
	}
	// deSEC publishes 2 CDS digests + 1 CDNSKEY per signal name (§4.4).
	if n := len(obs.Signals[0].Records); n != 3 {
		t.Errorf("deSEC signal records = %d, want 3", n)
	}
}

func TestScanSignalAnomalies(t *testing.T) {
	eco := smallWorld(t)
	s := newScanner(eco, true)
	find := func(anom SignalAnomaly) string {
		for z, tr := range eco.Truth {
			if tr.Spec.SignalAnomaly == anom {
				return z
			}
		}
		return ""
	}

	// Missing under one NS.
	if zname := find(SigMissingOneNS); zname != "" {
		obs := s.ScanZone(context.Background(), zname)
		present, missing := 0, 0
		for _, so := range obs.Signals {
			if len(so.Records) > 0 {
				present++
			} else {
				missing++
			}
		}
		if present == 0 || missing == 0 {
			t.Errorf("missing-one-NS: present=%d missing=%d", present, missing)
		}
	} else {
		t.Error("no SigMissingOneNS fixture")
	}

	// Corrupted signal signatures.
	if zname := find(SigBadSig); zname != "" {
		obs := s.ScanZone(context.Background(), zname)
		bad := false
		for _, so := range obs.Signals {
			if len(so.Records) > 0 && !so.Secure {
				bad = true
			}
		}
		if !bad {
			t.Error("bad-sig signal validated")
		}
	} else {
		t.Error("no SigBadSig fixture")
	}

	// Expired signal signatures.
	if zname := find(SigExpiredSig); zname != "" {
		obs := s.ScanZone(context.Background(), zname)
		bad := false
		for _, so := range obs.Signals {
			if len(so.Records) > 0 && !so.Secure {
				bad = true
			}
		}
		if !bad {
			t.Error("expired-sig signal validated")
		}
	} else {
		t.Error("no SigExpiredSig fixture")
	}

	// The parking-service zone cut.
	if zname := find(SigZoneCut); zname != "" {
		obs := s.ScanZone(context.Background(), zname)
		cut := false
		for _, so := range obs.Signals {
			if so.ZoneCut {
				cut = true
			}
		}
		if !cut {
			t.Error("parking zone cut not detected")
		}
	} else {
		t.Error("no SigZoneCut fixture")
	}

	// NS-set mismatch: signals exist under the child's NSes but not the
	// TLD-listed one.
	if zname := find(SigNSMismatch); zname != "" {
		obs := s.ScanZone(context.Background(), zname)
		parent, child := slices.Clone(obs.ParentNS), slices.Clone(obs.ChildNS)
		slices.Sort(parent)
		slices.Sort(child)
		if slices.Equal(parent, child) {
			t.Errorf("NS sets should differ: parent %v, child %v", parent, child)
		}
		missing := false
		for _, so := range obs.Signals {
			if len(so.Records) == 0 {
				missing = true
			}
		}
		if !missing {
			t.Error("no missing signal under the mismatched NS")
		}
	} else {
		t.Error("no SigNSMismatch fixture")
	}
}

func TestScanInconsistentCDS(t *testing.T) {
	eco := smallWorld(t)
	s := newScanner(eco, false)
	var target string
	for z, tr := range eco.Truth {
		if tr.Spec.CDSInconsistent && tr.Spec.MultiOperator != "" {
			target = z
			break
		}
	}
	if target == "" {
		t.Fatal("no inconsistent multi-operator zone")
	}
	obs := s.ScanZone(context.Background(), target)
	if obs.ResolveErr != "" {
		t.Fatalf("resolve: %s", obs.ResolveErr)
	}
	if len(obs.PerNS) < 2 {
		t.Fatalf("observed %d NSes", len(obs.PerNS))
	}
	base := obs.PerNS[0].CombinedCDS()
	differs := false
	for _, ns := range obs.PerNS[1:] {
		if !dnswire.RRsetEqual(base, ns.CombinedCDS()) {
			differs = true
		}
	}
	if !differs {
		t.Error("CDS consistent despite injected inconsistency")
	}
}

func TestScanCDSDeleteIsland(t *testing.T) {
	eco := smallWorld(t)
	s := newScanner(eco, false)
	var target string
	for z, tr := range eco.Truth {
		if tr.Spec.State == StateIsland && tr.Spec.CDS == CDSDelete {
			target = z
			break
		}
	}
	if target == "" {
		t.Fatal("no delete island")
	}
	obs := s.ScanZone(context.Background(), target)
	if obs.ResolveErr != "" {
		t.Fatalf("resolve: %s", obs.ResolveErr)
	}
	for _, ns := range obs.PerNS {
		if ns.CDSOutcome != scan.OutcomeOK {
			t.Fatalf("CDS outcome = %s", ns.CDSOutcome)
		}
		if got := ns.CombinedCDS(); len(got) > 0 {
			if !isDeleteLike(got) {
				t.Error("delete island CDS is not a delete set")
			}
		}
	}
}

func isDeleteLike(rrs []dnswire.RR) bool {
	for _, rr := range rrs {
		switch d := rr.Data.(type) {
		case *dnswire.CDS:
			if !d.IsDelete() {
				return false
			}
		case *dnswire.CDNSKEY:
			if !d.IsDelete() {
				return false
			}
		}
	}
	return true
}

func TestHistoricalEras(t *testing.T) {
	e17 := EraForYear(2017)
	e25 := EraForYear(2025)
	if e17.SecuredShare >= e25.SecuredShare {
		t.Error("deployment did not grow 2017→2025")
	}
	if e17.InvalidShare <= e25.InvalidShare {
		t.Error("validation failures did not shrink 2017→2025")
	}
	if e17.SignalShare != 0 {
		t.Error("signals exist before RFC 9615")
	}
	mid := EraForYear(2021)
	if mid.SecuredShare <= e17.SecuredShare || mid.SecuredShare >= e25.SecuredShare {
		t.Errorf("2021 secured share = %f not between anchors", mid.SecuredShare)
	}
	if mid.SignalShare != 0 {
		t.Error("signals before 2024")
	}
	// Clamping outside the range.
	if got := EraForYear(2010); got.SecuredShare != e17.SecuredShare {
		t.Error("pre-2017 not clamped")
	}
	if got := EraForYear(2030); got.SecuredShare != e25.SecuredShare {
		t.Error("post-2025 not clamped")
	}
}

func TestHistoricalWorldScan(t *testing.T) {
	for _, year := range []int{2017, 2025} {
		eco, err := Generate(Config{
			Seed:         13,
			ScaleDivisor: 400_000,
			Profiles:     ProfilesForEra(EraForYear(year)),
		})
		if err != nil {
			t.Fatalf("year %d: %v", year, err)
		}
		s := newScanner(eco, year >= 2024)
		secured, invalid, total := 0, 0, 0
		for _, zn := range eco.Targets {
			obs := s.ScanZone(context.Background(), zn)
			if obs.ResolveErr != "" {
				t.Fatalf("year %d: %s: %s", year, zn, obs.ResolveErr)
			}
			total++
			if obs.IsSigned() && obs.HasDS() && obs.ChainValid {
				secured++
			}
			if obs.HasDS() && !obs.ChainValid {
				invalid++
			}
		}
		t.Logf("year %d: %d zones, %d secured, %d invalid", year, total, secured, invalid)
		if year == 2017 && secured >= invalid*3 {
			// 2017: invalid ≈ 2.1% dominates secured ≈ 0.8%.
			t.Errorf("2017 shape wrong: secured=%d invalid=%d", secured, invalid)
		}
		if year == 2025 && secured <= invalid {
			t.Errorf("2025 shape wrong: secured=%d invalid=%d", secured, invalid)
		}
	}
}

func TestWalkZoneEnumeratesNSECChain(t *testing.T) {
	eco := smallWorld(t)
	s := newScanner(eco, false)
	var target string
	for z, tr := range eco.Truth {
		if tr.Operator == "GoDaddy" && tr.Spec.State == StateSecured {
			target = z
			break
		}
	}
	if target == "" {
		t.Fatal("no secured zone")
	}
	names, err := s.WalkZone(context.Background(), target)
	if err != nil {
		t.Fatalf("WalkZone: %v", err)
	}
	// Generated zones have apex + www (the glue-free layout of addZone).
	if len(names) < 2 || names[0] != target {
		t.Fatalf("walked names = %v", names)
	}
	found := false
	for _, n := range names {
		if n == "www."+target {
			found = true
		}
	}
	if !found {
		t.Errorf("www name missing from walk: %v", names)
	}

	// Unsigned zones are not walkable.
	var unsigned string
	for z, tr := range eco.Truth {
		if tr.Operator == "GoDaddy" && tr.Spec.State == StateUnsigned {
			unsigned = z
			break
		}
	}
	if unsigned != "" {
		if _, err := s.WalkZone(context.Background(), unsigned); err == nil {
			t.Error("unsigned zone walked")
		}
	}
}

func TestSignalZoneFootprint(t *testing.T) {
	eco, err := Generate(Config{Seed: 1, ScaleDivisor: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	stats := eco.SignalZoneFootprint()
	byOp := map[string]SignalZoneStats{}
	for _, s := range stats {
		byOp[s.Operator] = s
	}
	ds, ok := byOp["deSEC"]
	if !ok {
		t.Fatal("no deSEC signal zones")
	}
	if ds.Zones != 2 {
		t.Errorf("deSEC signal zones = %d, want 2", ds.Zones)
	}
	// §4.4: deSEC publishes 3 signalling RRs per zone per NS (2 CDS
	// digests + 1 CDNSKEY), across 2 NSes — so SignalRRs ≈ zones×2×3.
	desecZones := 0
	for _, tr := range eco.Truth {
		if tr.Operator == "deSEC" && tr.Spec.Signal && tr.Spec.SignalAnomaly != SigMissingOneNS {
			desecZones++
		}
	}
	want := desecZones * 2 * 3
	// The missing-one-NS anomaly zones add 3 more under one NS each.
	if ds.SignalRRs < want || ds.SignalRRs > want+3*desecZones {
		t.Errorf("deSEC signal RRs = %d, expected ≈%d", ds.SignalRRs, want)
	}
	if ds.TextBytes == 0 {
		t.Error("no textual size accounted")
	}
	cf, ok := byOp["Cloudflare"]
	if !ok || cf.SignalRRs <= ds.SignalRRs {
		t.Errorf("Cloudflare footprint should dominate: cf=%+v desec=%+v", cf, ds)
	}
}

// TestGenerateErrorsLeaveNoGoroutine: a zone that cannot be planned (an
// unknown partner operator) or materialised (matching CDS in a keyless
// zone) fails Generate with its error, and no goroutine of the parallel
// phases is left running.
func TestGenerateErrorsLeaveNoGoroutine(t *testing.T) {
	ok := seg(300, ZoneSpec{State: StateSecured, CDS: CDSMatch})
	for _, tc := range []struct {
		bad  ZoneSpec
		want string
	}{
		{ZoneSpec{State: StateUnsigned, MultiOperator: "Nobody"}, `unknown partner operator "Nobody"`},
		{ZoneSpec{State: StateUnsigned, CDS: CDSMatch}, "CDSMatch on keyless zone"},
	} {
		before := runtime.NumGoroutine()
		_, err := Generate(Config{Seed: 1, ScaleDivisor: 1, Profiles: []Profile{{
			Name: "Tiny", Slug: "tiny", NSHosts: []string{"ns1.tiny.net.", "ns2.tiny.net."}, HostsPerZone: 2,
			Segments: []Segment{ok, seg(1, tc.bad), ok},
		}}})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Generate with a %+v zone: %v, want %q", tc.bad, err, tc.want)
		}
		// A worker has exited once it is no longer counted; allow it
		// the moment between its last deferred call and its exit.
		for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
			runtime.Gosched()
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("%d goroutines before Generate, %d after it failed", before, n)
		}
	}
}
