package bootstrap

import (
	"context"
	"strings"
	"testing"

	"dnssecboot/internal/classify"
	"dnssecboot/internal/core"
	"dnssecboot/internal/dnswire"
	"dnssecboot/internal/ecosystem"
	"dnssecboot/internal/scan"
)

type fixture struct {
	eco     *ecosystem.Ecosystem
	scanner *scan.Scanner
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	eco, err := ecosystem.Generate(ecosystem.Config{Seed: 11, ScaleDivisor: 400_000})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{eco: eco, scanner: core.NewScanner(eco, core.Options{Seed: 11})}
}

func (f *fixture) registryFor(t *testing.T, child string) *Registry {
	t.Helper()
	truth := f.eco.Truth[child]
	parent := f.eco.TLDZone(truth.TLD)
	if parent == nil {
		t.Fatalf("no registry zone for TLD %s", truth.TLD)
	}
	return &Registry{Parent: parent, Scanner: f.scanner, Now: f.eco.Now}
}

// findZone picks a target by predicate over ground truth.
func (f *fixture) findZone(t *testing.T, pred func(*ecosystem.Truth) bool) string {
	t.Helper()
	for z, tr := range f.eco.Truth {
		if pred(tr) {
			return z
		}
	}
	t.Fatal("no matching zone in fixture")
	return ""
}

func cleanIsland(op string) func(*ecosystem.Truth) bool {
	return func(tr *ecosystem.Truth) bool {
		s := tr.Spec
		return tr.Operator == op && s.State == ecosystem.StateIsland && s.CDS == ecosystem.CDSMatch &&
			s.Signal && s.SignalAnomaly == ecosystem.SigOK && !s.CDSInconsistent && s.MultiOperator == ""
	}
}

func TestBootstrapEndToEnd(t *testing.T) {
	f := newFixture(t)
	child := f.findZone(t, cleanIsland("Cloudflare"))
	reg := f.registryFor(t, child)

	d, err := reg.Bootstrap(context.Background(), child)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Eligible || !d.Installed {
		t.Fatalf("bootstrap failed: %+v", d)
	}
	if len(d.DS) == 0 {
		t.Fatal("no DS installed")
	}

	// After install, a fresh scan must classify the zone as secured.
	obs := f.scanner.ScanZone(context.Background(), child)
	cl := classify.New(f.eco.Now).Classify(obs)
	if cl.Status != classify.StatusSecured {
		t.Errorf("post-bootstrap status = %s (chain err %q)", cl.Status, obs.ChainErr)
	}
}

func TestBootstrapDeSECIsland(t *testing.T) {
	f := newFixture(t)
	child := f.findZone(t, cleanIsland("deSEC"))
	reg := f.registryFor(t, child)
	d, err := reg.Bootstrap(context.Background(), child)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Eligible {
		t.Fatalf("deSEC island not eligible: %v", d.Reasons)
	}
	// deSEC publishes SHA-256 + SHA-384 CDS: both DS digests installed.
	digests := map[uint8]bool{}
	for _, rr := range d.DS {
		digests[rr.Data.(*dnswire.DS).DigestType] = true
	}
	if !digests[dnswire.DigestSHA256] || !digests[dnswire.DigestSHA384] {
		t.Errorf("installed digest types = %v", digests)
	}
}

func TestBootstrapRejectsAlreadySecured(t *testing.T) {
	f := newFixture(t)
	child := f.findZone(t, func(tr *ecosystem.Truth) bool {
		return tr.Spec.State == ecosystem.StateSecured && tr.Operator == "Cloudflare"
	})
	reg := f.registryFor(t, child)
	d, err := reg.Bootstrap(context.Background(), child)
	if err != nil {
		t.Fatal(err)
	}
	if d.Eligible {
		t.Fatal("secured zone accepted for bootstrap")
	}
	if !hasReason(d, "already has DS") {
		t.Errorf("reasons = %v", d.Reasons)
	}
}

func TestBootstrapRejectsDeleteRequest(t *testing.T) {
	f := newFixture(t)
	child := f.findZone(t, func(tr *ecosystem.Truth) bool {
		return tr.Operator == "Cloudflare" && tr.Spec.State == ecosystem.StateIsland && tr.Spec.CDS == ecosystem.CDSDelete
	})
	reg := f.registryFor(t, child)
	d, err := reg.Bootstrap(context.Background(), child)
	if err != nil {
		t.Fatal(err)
	}
	if d.Eligible {
		t.Fatal("delete request accepted for bootstrap")
	}
	if !hasReason(d, "deletion request") {
		t.Errorf("reasons = %v", d.Reasons)
	}
}

func TestBootstrapRejectsMissingSignal(t *testing.T) {
	f := newFixture(t)
	child := f.findZone(t, func(tr *ecosystem.Truth) bool {
		return tr.Spec.SignalAnomaly == ecosystem.SigMissingOneNS && tr.Spec.MultiOperator == "" &&
			tr.Spec.State == ecosystem.StateIsland
	})
	reg := f.registryFor(t, child)
	d, err := reg.Bootstrap(context.Background(), child)
	if err != nil {
		t.Fatal(err)
	}
	if d.Eligible {
		t.Fatal("zone with missing signal accepted")
	}
	if !hasReason(d, "no signalling records under") {
		t.Errorf("reasons = %v", d.Reasons)
	}
}

func TestBootstrapRejectsCorruptSignal(t *testing.T) {
	f := newFixture(t)
	child := f.findZone(t, func(tr *ecosystem.Truth) bool {
		return tr.Spec.SignalAnomaly == ecosystem.SigBadSig && tr.Spec.State == ecosystem.StateIsland
	})
	reg := f.registryFor(t, child)
	d, err := reg.Bootstrap(context.Background(), child)
	if err != nil {
		t.Fatal(err)
	}
	if d.Eligible {
		t.Fatal("zone with corrupt signal signatures accepted")
	}
	if !hasReason(d, "not DNSSEC-secure") {
		t.Errorf("reasons = %v", d.Reasons)
	}
}

func TestBootstrapRejectsOrphanCDS(t *testing.T) {
	f := newFixture(t)
	child := f.findZone(t, func(tr *ecosystem.Truth) bool {
		return tr.Spec.CDS == ecosystem.CDSOrphan && tr.Spec.State == ecosystem.StateIsland
	})
	reg := f.registryFor(t, child)
	d, err := reg.Bootstrap(context.Background(), child)
	if err != nil {
		t.Fatal(err)
	}
	if d.Eligible {
		t.Fatal("orphan CDS accepted — installing it would break the delegation")
	}
}

func TestDryRunDoesNotInstall(t *testing.T) {
	f := newFixture(t)
	child := f.findZone(t, cleanIsland("Cloudflare"))
	reg := f.registryFor(t, child)
	reg.DryRun = true
	d, err := reg.Bootstrap(context.Background(), child)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Eligible || d.Installed {
		t.Fatalf("dry run: %+v", d)
	}
	if got := reg.Parent.RRset(child, dnswire.TypeDS); got != nil {
		t.Error("dry run installed DS records")
	}
}

func TestProcessDelete(t *testing.T) {
	f := newFixture(t)
	// A secured zone publishing the deletion sentinel (the 3 289
	// population of §4.2).
	child := f.findZone(t, func(tr *ecosystem.Truth) bool {
		return tr.Spec.State == ecosystem.StateSecured && tr.Spec.CDS == ecosystem.CDSDelete
	})
	reg := f.registryFor(t, child)
	d, err := reg.ProcessDelete(context.Background(), child)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Eligible || !d.Installed {
		t.Fatalf("delete not processed: %+v", d)
	}
	if got := reg.Parent.RRset(child, dnswire.TypeDS); got != nil {
		t.Error("DS still present after delete")
	}
	// The zone is now a secure island (exactly the Cloudflare
	// disable-flow the paper describes).
	obs := f.scanner.ScanZone(context.Background(), child)
	cl := classify.New(f.eco.Now).Classify(obs)
	if cl.Status != classify.StatusIsland {
		t.Errorf("post-delete status = %s", cl.Status)
	}
}

func TestProcessDeleteRejectsNonDelete(t *testing.T) {
	f := newFixture(t)
	child := f.findZone(t, func(tr *ecosystem.Truth) bool {
		return tr.Operator == "GoDaddy" && tr.Spec.State == ecosystem.StateSecured && tr.Spec.CDS == ecosystem.CDSMatch
	})
	reg := f.registryFor(t, child)
	d, err := reg.ProcessDelete(context.Background(), child)
	if err != nil {
		t.Fatal(err)
	}
	if d.Eligible {
		t.Fatal("non-delete CDS processed as delete")
	}
}

func TestRollover(t *testing.T) {
	f := newFixture(t)
	child := f.findZone(t, func(tr *ecosystem.Truth) bool {
		return tr.Operator == "GoDaddy" && tr.Spec.State == ecosystem.StateSecured && tr.Spec.CDS == ecosystem.CDSMatch
	})
	reg := f.registryFor(t, child)
	d, err := reg.Rollover(context.Background(), child)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Eligible || !d.Installed {
		t.Fatalf("rollover failed: %+v", d)
	}
	// Zone must still validate afterwards.
	obs := f.scanner.ScanZone(context.Background(), child)
	if !obs.ChainValid {
		t.Errorf("post-rollover chain invalid: %s", obs.ChainErr)
	}
}

func TestRolloverRejectsIsland(t *testing.T) {
	f := newFixture(t)
	child := f.findZone(t, cleanIsland("Cloudflare"))
	reg := f.registryFor(t, child)
	d, err := reg.Rollover(context.Background(), child)
	if err != nil {
		t.Fatal(err)
	}
	if d.Eligible {
		t.Fatal("island accepted for rollover")
	}
	if !hasReason(d, "not secured") {
		t.Errorf("reasons = %v", d.Reasons)
	}
}

func hasReason(d *Decision, substr string) bool {
	for _, r := range d.Reasons {
		if strings.Contains(r, substr) {
			return true
		}
	}
	return false
}
