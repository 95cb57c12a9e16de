// Query-reduction regression for the shared delegation cache. Two
// claims are pinned here:
//
//  1. On the resolution layer the cache targets — delegation walks and
//     NS address resolution — a shared resolver costs less than half
//     the upstream queries of a fresh resolver per zone (every zone
//     re-walking the root and re-resolving its NS hosts).
//  2. End-to-end scans produce byte-identical classifications through
//     one shared scanner and through a fresh scanner per zone, at
//     strictly lower query cost. The end-to-end
//     ratio is smaller than the resolution-layer one because the
//     per-zone measurement probes (SOA, NS, DNSKEY, per-NS CDS/CDNSKEY)
//     must reach every nameserver regardless of caching.
package scan_test

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"dnssecboot/internal/classify"
	"dnssecboot/internal/core"
	"dnssecboot/internal/ecosystem"
	"dnssecboot/internal/obs"
	"dnssecboot/internal/report"
	"dnssecboot/internal/resolver"
	"dnssecboot/internal/scan"
)

// classificationArtefacts concatenates every classification-bearing
// artefact of a report (the same set the chaos suite compares).
func classificationArtefacts(r *report.Aggregate) string {
	var sb strings.Builder
	for _, artefact := range []func() string{
		r.Headline, r.Figure1,
		func() string { return r.Table1(20) },
		func() string { return r.Table2(20) },
		r.Table3, r.CDSFindings,
	} {
		sb.WriteString(artefact())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// classifyEach folds observations into a report one at a time, the way
// core.RunStream's sink does.
func classifyEach(now time.Time, obs []*scan.ZoneObservation) *report.Aggregate {
	classifier, agg := classify.New(now), report.NewAggregate()
	for _, zo := range obs {
		agg.Add(classifier.Classify(zo))
	}
	return agg
}

// resolveZone performs the resolution phase of one zone scan: the
// delegation walk plus address resolution for every delegated NS host.
func resolveZone(ctx context.Context, r *resolver.Resolver, zoneName string) {
	d, err := r.Delegation(ctx, zoneName)
	if err != nil {
		return
	}
	for _, host := range d.NSHosts() {
		_, _ = r.AddrsOf(ctx, host)
	}
}

func TestCacheHalvesResolutionQueries(t *testing.T) {
	if testing.Short() {
		t.Skip("resolves the world twice")
	}
	world, err := ecosystem.Generate(ecosystem.Config{Seed: 3, ScaleDivisor: chaosScale})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	shared := &resolver.Resolver{Net: world.Net, Roots: world.Roots, Cache: resolver.NewCache(0), Obs: resolver.NewMetrics(obs.NewRegistry())}
	for _, zoneName := range world.Targets {
		resolveZone(ctx, shared, zoneName)
	}
	cached := shared.Obs.Queries.Value()

	var fresh int64
	for _, zoneName := range world.Targets {
		r := &resolver.Resolver{Net: world.Net, Roots: world.Roots, Obs: resolver.NewMetrics(obs.NewRegistry())}
		resolveZone(ctx, r, zoneName)
		fresh += r.Obs.Queries.Value()
	}

	if cached == 0 || fresh == 0 {
		t.Fatalf("degenerate query counts: shared=%d fresh=%d", cached, fresh)
	}
	if fresh < 2*cached {
		t.Errorf("shared resolver used %d queries vs %d with a fresh one per zone (%.2fx) — want at least 2x reduction",
			cached, fresh, float64(fresh)/float64(cached))
	}
	t.Logf("resolution queries over %d zones: shared=%d fresh-per-zone=%d (%.1fx reduction)",
		len(world.Targets), cached, fresh, float64(fresh)/float64(cached))
}

func TestCacheKeepsScanOutputsWithFewerQueries(t *testing.T) {
	if testing.Short() {
		t.Skip("scans the world twice, once per-zone")
	}
	world, err := ecosystem.Generate(ecosystem.Config{Seed: 3, ScaleDivisor: chaosScale})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// One shared scanner with the cache: TLD walks and NS address
	// resolutions paid once across the whole scan.
	cached, err := core.Run(ctx, core.Options{Seed: 3, World: world, Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	cachedObs := cached.Observations
	var cachedQueries int64
	for _, obs := range cachedObs {
		cachedQueries += obs.Queries
	}

	// The baseline: a fresh scanner per zone, nothing shared.
	baselineObs := make([]*scan.ZoneObservation, 0, len(world.Targets))
	var baselineQueries int64
	for _, zoneName := range world.Targets {
		s := core.NewScanner(world, core.Options{Seed: 3, Concurrency: 1})
		obs := s.ScanZone(ctx, zoneName)
		baselineQueries += obs.Queries
		baselineObs = append(baselineObs, obs)
	}

	if cachedQueries >= baselineQueries {
		t.Errorf("shared scanner used %d queries vs %d with a fresh one per zone — cache not reducing end-to-end cost",
			cachedQueries, baselineQueries)
	}
	t.Logf("end-to-end queries over %d zones: shared=%d fresh-per-zone=%d (%.2fx reduction)",
		len(world.Targets), cachedQueries, baselineQueries, float64(baselineQueries)/float64(cachedQueries))

	// The strongest form of "the cache is only an optimisation": a
	// record's body is the same whether its zone met a warm cache or
	// none at all.
	var cachedDump, baselineDump bytes.Buffer
	if err := scan.WriteJSONL(&cachedDump, cachedObs); err != nil {
		t.Fatal(err)
	}
	if err := scan.WriteJSONL(&baselineDump, baselineObs); err != nil {
		t.Fatal(err)
	}
	if got, want := bodies(t, cachedDump.Bytes()), bodies(t, baselineDump.Bytes()); !bytes.Equal(got, want) {
		t.Errorf("cache changed a record body\n%s", firstDiff(string(want), string(got)))
	}

	cachedArts := classificationArtefacts(cached.Report)
	baselineArts := classificationArtefacts(classifyEach(world.Now, baselineObs))
	if cachedArts != baselineArts {
		t.Errorf("cache changed the classifications\n%s", firstDiff(baselineArts, cachedArts))
	}
}
