package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"sort"
	"strconv"
	"testing"

	"dnssecboot/internal/classify"
	"dnssecboot/internal/core"
	"dnssecboot/internal/dnswire"
	"dnssecboot/internal/ecosystem"
	"dnssecboot/internal/scan"
)

// explained scans world and returns the study and the -out explain
// lines of its dump, decoded.
func explained(t *testing.T, world *ecosystem.Ecosystem, seed int64) (*core.Study, []explanation) {
	t.Helper()
	study, err := core.Run(context.Background(), core.Options{Seed: seed, World: world, Concurrency: 8})
	if err != nil {
		t.Fatal(err)
	}
	var dump, out bytes.Buffer
	jw := scan.NewJSONLWriter(&dump)
	for _, o := range study.Observations {
		if err := jw.Write(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := explain(&out, &dump, world.Now); err != nil {
		t.Fatal(err)
	}
	var lines []explanation
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		var e explanation
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("explain line %d: %v", len(lines)+1, err)
		}
		lines = append(lines, e)
	}
	if len(lines) != len(study.Observations) {
		t.Fatalf("%d explain lines for %d records", len(lines), len(study.Observations))
	}
	return study, lines
}

// TestExplainIsland: a known secure island without CDS is explained as
// one, with the parent zone that publishes no DS for it.
func TestExplainIsland(t *testing.T) {
	world, err := ecosystem.Generate(ecosystem.Config{Seed: 7, ScaleDivisor: 300_000})
	if err != nil {
		t.Fatal(err)
	}
	island := ""
	for _, z := range world.Targets {
		if tr := world.Truth[dnswire.CanonicalName(z)]; tr != nil && tr.Spec.State == ecosystem.StateIsland && tr.Spec.CDS == ecosystem.CDSNone {
			island = dnswire.CanonicalName(z)
			break
		}
	}
	if island == "" {
		t.Fatal("no island without CDS at this scale")
	}
	study, lines := explained(t, world, 7)
	for i, e := range lines {
		if e.Zone != island {
			continue
		}
		if e.Status != classify.StatusIsland.String() || e.Bucket != classify.PotentialIslandNoCDS.String() {
			t.Errorf("%s explained as status %q, bucket %q; want island, %q", island, e.Status, e.Bucket, classify.PotentialIslandNoCDS)
		}
		if want := study.Observations[i].ParentZone; e.Parent == "" || e.Parent != want || e.Parent != dnswire.Parent(island) {
			t.Errorf("%s explained with parent %q, the record's is %q", island, e.Parent, want)
		}
		if e.CDS == nil || e.CDS.Present {
			t.Errorf("%s explained with CDS flags %+v, want none present", island, e.CDS)
		}
		return
	}
	t.Fatalf("no explain line for %s", island)
}

// TestExplainAgreesWithTables: at the golden scale, the explain lines
// tallied by bucket are the Figure 1 series, and tallied by operator
// and rung the Table 3 series, of the live scan's report.
func TestExplainAgreesWithTables(t *testing.T) {
	world, err := ecosystem.Generate(ecosystem.Config{Seed: 1, ScaleDivisor: 500_000})
	if err != nil {
		t.Fatal(err)
	}
	study, lines := explained(t, world, 1)

	buckets := make(map[string]int)
	type row struct{ with, secured, deletion, invalid, correct, violations int }
	rows := make(map[string]*row)
	for _, e := range lines {
		if e.Bucket != "" {
			buckets[e.Bucket]++
		}
		if e.Rung == "" || e.Rung == "no signal" {
			continue
		}
		r := rows[e.Operator]
		if r == nil {
			r = &row{}
			rows[e.Operator] = r
		}
		r.with++
		switch e.Rung {
		case "already secured":
			r.secured++
		case "deletion request":
			r.deletion++
		case "invalid dnssec":
			r.invalid++
		case "correct":
			r.correct++
		case "violations":
			r.violations++
		default:
			t.Fatalf("unknown rung %q", e.Rung)
		}
	}

	var figure1 bytes.Buffer
	cw := csv.NewWriter(&figure1)
	cw.Write([]string{"bucket", "zones"})
	for _, b := range classify.Potentials {
		cw.Write([]string{b.String(), strconv.Itoa(buckets[b.String()])})
	}
	cw.Flush()

	var table3 bytes.Buffer
	cw = csv.NewWriter(&table3)
	cw.Write([]string{"operator", "with_signal", "already_secured", "cannot_bootstrap",
		"deletion_request", "invalid_dnssec", "potential", "incorrect", "correct"})
	names := make([]string, 0, len(rows))
	for name := range rows {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := rows[name]
		cw.Write([]string{name, strconv.Itoa(r.with), strconv.Itoa(r.secured), strconv.Itoa(r.deletion + r.invalid),
			strconv.Itoa(r.deletion), strconv.Itoa(r.invalid), strconv.Itoa(r.correct + r.violations),
			strconv.Itoa(r.violations), strconv.Itoa(r.correct)})
	}
	cw.Flush()

	for _, tc := range []struct {
		artefact string
		tallied  []byte
	}{{"figure1", figure1.Bytes()}, {"table3", table3.Bytes()}} {
		var want bytes.Buffer
		if err := study.Report.WriteCSV(&want, tc.artefact); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(tc.tallied, want.Bytes()) {
			t.Errorf("explain lines tallied as %s:\n%s\nthe report's:\n%s", tc.artefact, tc.tallied, want.Bytes())
		}
	}
	if len(rows) == 0 {
		t.Error("no explain line reached a Table 3 rung")
	}
}
