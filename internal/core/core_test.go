package core

import (
	"context"
	"errors"
	"net/netip"
	"sync"
	"testing"

	"dnssecboot/internal/classify"
	"dnssecboot/internal/dnswire"
	"dnssecboot/internal/ecosystem"
	"dnssecboot/internal/report"
	"dnssecboot/internal/resolver"
	"dnssecboot/internal/scan"
	"dnssecboot/internal/transport"
)

// runSmall executes the pipeline at a tiny scale shared by the tests.
func runSmall(t *testing.T) *Study {
	t.Helper()
	study, err := Run(context.Background(), Options{Seed: 3, ScaleDivisor: 300_000, Concurrency: 8})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return study
}

func TestPipelineRecoversGroundTruth(t *testing.T) {
	study := runSmall(t)
	if len(study.Results) == 0 {
		t.Fatal("no results")
	}
	statusFor := map[ecosystem.State]classify.Status{
		ecosystem.StateUnsigned: classify.StatusUnsigned,
		ecosystem.StateSecured:  classify.StatusSecured,
		ecosystem.StateInvalid:  classify.StatusInvalid,
		ecosystem.StateIsland:   classify.StatusIsland,
	}
	mismatches := 0
	for _, r := range study.Results {
		truth := study.World.Truth[r.Zone]
		if truth == nil {
			t.Fatalf("no ground truth for %s", r.Zone)
		}
		if r.Status == classify.StatusUnresolved {
			t.Errorf("%s failed to resolve: operator %s", r.Zone, truth.Operator)
			continue
		}
		if want := statusFor[truth.Spec.State]; r.Status != want {
			mismatches++
			if mismatches <= 5 {
				t.Errorf("%s (op %s, spec %+v): status %s, want %s",
					r.Zone, truth.Operator, truth.Spec, r.Status, want)
			}
		}
	}
	if mismatches > 0 {
		t.Errorf("%d/%d status mismatches", mismatches, len(study.Results))
	}
}

func TestPipelineCDSClassification(t *testing.T) {
	study := runSmall(t)
	for _, r := range study.Results {
		truth := study.World.Truth[r.Zone]
		spec := truth.Spec
		switch spec.CDS {
		case ecosystem.CDSNone:
			// Legacy operators fail the query; everyone else should see
			// a clean absence.
			if r.CDS.Present && !spec.Signal {
				t.Errorf("%s: CDS present but none planted", r.Zone)
			}
		case ecosystem.CDSMatch:
			if !r.CDS.Present {
				t.Errorf("%s: planted CDS not observed", r.Zone)
				continue
			}
			if spec.CDSInconsistent {
				if r.CDS.Consistent {
					t.Errorf("%s: inconsistency not detected", r.Zone)
				}
			} else if !r.CDS.Consistent {
				t.Errorf("%s: false inconsistency", r.Zone)
			}
			if spec.State != ecosystem.StateUnsigned && !spec.CDSInconsistent && !r.CDS.MatchesDNSKEY {
				t.Errorf("%s: matching CDS reported as orphan", r.Zone)
			}
		case ecosystem.CDSDelete:
			if !r.CDS.Present || !r.CDS.Delete {
				t.Errorf("%s: delete request not recognised (present=%v delete=%v)",
					r.Zone, r.CDS.Present, r.CDS.Delete)
			}
		case ecosystem.CDSOrphan:
			if !r.CDS.Present {
				t.Errorf("%s: orphan CDS not observed", r.Zone)
				continue
			}
			if spec.State != ecosystem.StateUnsigned && r.CDS.MatchesDNSKEY {
				t.Errorf("%s: orphan CDS reported as matching", r.Zone)
			}
			if spec.State == ecosystem.StateUnsigned && !r.CDS.InUnsignedZone {
				t.Errorf("%s: CDS-in-unsigned not flagged", r.Zone)
			}
		case ecosystem.CDSBadSig:
			if !r.CDS.Present || r.CDS.SigValid {
				t.Errorf("%s: corrupted CDS signature not detected", r.Zone)
			}
		}
	}
}

func TestPipelineBuckets(t *testing.T) {
	study := runSmall(t)
	for _, r := range study.Results {
		spec := study.World.Truth[r.Zone].Spec
		var want classify.Potential
		switch {
		case spec.State == ecosystem.StateUnsigned:
			want = classify.PotentialNone
		case spec.State == ecosystem.StateSecured:
			want = classify.PotentialAlreadySecured
		case spec.State == ecosystem.StateInvalid:
			want = classify.PotentialInvalidDNSSEC
		case spec.CDS == ecosystem.CDSNone:
			want = classify.PotentialIslandNoCDS
		case spec.CDS == ecosystem.CDSDelete:
			want = classify.PotentialIslandDelete
		case spec.CDS == ecosystem.CDSOrphan, spec.CDS == ecosystem.CDSBadSig, spec.CDSInconsistent:
			want = classify.PotentialIslandInvalidCDS
		default:
			want = classify.PotentialBootstrap
		}
		if r.Bucket != want {
			t.Errorf("%s (spec %+v): bucket %s, want %s", r.Zone, spec, r.Bucket, want)
		}
	}
}

func TestPipelineSignalLadder(t *testing.T) {
	study := runSmall(t)
	for _, r := range study.Results {
		truth := study.World.Truth[r.Zone]
		spec := truth.Spec
		isAB := truth.Operator == "Cloudflare" || truth.Operator == "deSEC" ||
			truth.Operator == "Glauca Digital" || truth.Operator == "SignalMisc"
		wantSignal := spec.Signal && isAB
		if wantSignal != r.Signal.HasSignal {
			t.Errorf("%s (op %s, spec %+v): HasSignal=%v, want %v",
				r.Zone, truth.Operator, spec, r.Signal.HasSignal, wantSignal)
			continue
		}
		if !r.Signal.HasSignal {
			continue
		}
		switch {
		case spec.State == ecosystem.StateSecured:
			if !r.Signal.AlreadySecured {
				t.Errorf("%s: secured-with-signal not in already-secured", r.Zone)
			}
		case spec.CDS == ecosystem.CDSDelete:
			if !r.Signal.DeletionRequest {
				t.Errorf("%s: delete signal not in deletion-request", r.Zone)
			}
		case spec.State == ecosystem.StateUnsigned || spec.State == ecosystem.StateInvalid ||
			spec.CDSInconsistent || spec.CDS == ecosystem.CDSBadSig:
			if !r.Signal.InvalidDNSSEC {
				t.Errorf("%s (spec %+v): expected invalid-DNSSEC ladder slot, got %+v", r.Zone, spec, r.Signal)
			}
		default:
			if !r.Signal.Potential {
				t.Errorf("%s: expected potential, got %+v", r.Zone, r.Signal)
				continue
			}
			wantCorrect := spec.SignalAnomaly == ecosystem.SigOK
			if r.Signal.Correct != wantCorrect {
				t.Errorf("%s (anomaly %s): correct=%v violations=%v",
					r.Zone, spec.SignalAnomaly, r.Signal.Correct, r.Signal.Violations)
			}
		}
	}
}

func TestReportRendering(t *testing.T) {
	study := runSmall(t)
	for name, text := range map[string]string{
		"headline": study.Report.Headline(),
		"table1":   study.Report.Table1(20),
		"table2":   study.Report.Table2(20),
		"table3":   study.Report.Table3(),
		"figure1":  study.Report.Figure1(),
		"cds":      study.Report.CDSFindings(),
		"queries":  study.Report.QueryStats(),
	} {
		if len(text) == 0 {
			t.Errorf("%s rendered empty", name)
		}
	}
	if study.Report.Resolved() == 0 {
		t.Error("nothing resolved")
	}
	if study.Report.Queries == 0 {
		t.Error("no queries accounted")
	}
}

func TestShortCircuitReducesQueries(t *testing.T) {
	world, err := ecosystem.Generate(ecosystem.Config{Seed: 5, ScaleDivisor: 400_000})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Run(context.Background(), Options{Seed: 5, World: world})
	if err != nil {
		t.Fatal(err)
	}
	world2, err := ecosystem.Generate(ecosystem.Config{Seed: 5, ScaleDivisor: 400_000})
	if err != nil {
		t.Fatal(err)
	}
	short, err := Run(context.Background(), Options{Seed: 5, World: world2, SignalOnlyCandidates: true})
	if err != nil {
		t.Fatal(err)
	}
	if short.Report.Queries >= full.Report.Queries {
		t.Errorf("short-circuit used %d queries, full scan %d", short.Report.Queries, full.Report.Queries)
	}
	// The bootstrap-relevant ladder rows must be unaffected: the
	// short-circuit only skips zones that could never bootstrap
	// (unsigned without CDS).
	for name, fs := range full.Report.Operators {
		ss := short.Report.Operators[name]
		if ss == nil {
			ss = &report.OperatorStats{}
		}
		if fs.Potential != ss.Potential || fs.Correct != ss.Correct || fs.Incorrect != ss.Incorrect {
			t.Errorf("%s ladder changed: full %d/%d/%d short %d/%d/%d",
				name, fs.Potential, fs.Correct, fs.Incorrect, ss.Potential, ss.Correct, ss.Incorrect)
		}
	}
}

// scanQueries is the exact number of exchanges a one-worker scan of the
// seed-1, scale-200000 world sends. It pins the scanner's question plan:
// a change that moves it must update the constant and say why in its
// commit. 19 515 → 16 348: a signal name's NXDOMAIN for CDS answers its
// CDNSKEY probe too (RFC 8020; 2 987 fewer), and the chain check
// validates the liveness SOA answer instead of asking for it again (180
// fewer). 16 348 → 13 547: a signal probe whose name validated NSECs
// from earlier answers already prove absent is not sent (RFC 8198).
const scanQueries = 13547

// TestScanQueryCount catches query growth too small for the benchmark's
// 2 % queries-per-zone bound to see.
func TestScanQueryCount(t *testing.T) {
	st, err := RunStream(context.Background(), StreamOptions{
		Options: Options{Seed: 1, ScaleDivisor: 200_000, Concurrency: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if q, _, _ := st.World.Net.Stats(); q != scanQueries {
		t.Errorf("scan of %d zones sent %d queries, want %d", st.Scanned, q, scanQueries)
	}
}

// busiestServerQueries is the number of exchanges the busiest address
// receives in TestScanQueryCount's scan. Under a per-server rate limit
// it sets the wall clock. 2 726 → 2 118: questions any server of a zone
// may answer start at a server chosen by the query name instead of
// always at the first one. 2 118 → 1 517: its operator's signal probes
// are answered from validated NSECs after the first.
const busiestServerQueries = 1517

// countingNet counts the exchanges each server address receives.
type countingNet struct {
	inner transport.Exchanger
	mu    sync.Mutex
	per   map[netip.Addr]int
}

func (n *countingNet) Exchange(ctx context.Context, server netip.AddrPort, q *dnswire.Message) (*dnswire.Message, error) {
	n.mu.Lock()
	n.per[server.Addr()]++
	n.mu.Unlock()
	return n.inner.Exchange(ctx, server, q)
}

// TestBusiestServerLoad pins how evenly the scan's queries fall on the
// servers: it repeats TestScanQueryCount's one-worker scan through a
// counting network, with a scanner built from the constructors
// NewScanner uses.
func TestBusiestServerLoad(t *testing.T) {
	world, err := ecosystem.Generate(ecosystem.Config{Seed: 1, ScaleDivisor: 200_000})
	if err != nil {
		t.Fatal(err)
	}
	net := &countingNet{inner: world.Net, per: map[netip.Addr]int{}}
	sc := scan.New(scan.Config{
		Resolver:         &resolver.Resolver{Net: net, Roots: world.Roots, Cache: resolver.NewCache(0)},
		Now:              world.Now,
		Concurrency:      1,
		SampleSuffixes:   world.CloudflareSuffixes,
		FullScanFraction: 0.05,
		ProbeSignals:     true,
		TrustAnchor:      world.TrustAnchor,
		Seed:             1,
	})
	for _, z := range world.Targets {
		sc.ScanZone(context.Background(), z)
	}
	total, busiest, hot := 0, 0, netip.Addr{}
	for addr, n := range net.per {
		total += n
		if n > busiest {
			busiest, hot = n, addr
		}
	}
	if total != scanQueries {
		t.Fatalf("scan sent %d queries, TestScanQueryCount's sends %d: not the same scanner", total, scanQueries)
	}
	if busiest != busiestServerQueries {
		t.Errorf("busiest address %s received %d of %d exchanges, want %d", hot, busiest, total, busiestServerQueries)
	}
}

// Run collects from RunStream, so a cancelled run is a truncated one:
// the caller gets what was scanned and an error saying so, never a
// short study that looks complete.
func TestRunCancelledReturnsPrefixAndError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	study, err := Run(ctx, Options{Seed: 3, ScaleDivisor: 500_000})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run under a cancelled context: error %v, want context.Canceled", err)
	}
	if study == nil || study.Report == nil || len(study.Observations) != len(study.Results) {
		t.Fatalf("no usable partial study: %+v", study)
	}
	if len(study.Observations) >= len(study.World.Targets) {
		t.Errorf("cancelled run scanned all %d zones", len(study.Observations))
	}
}
