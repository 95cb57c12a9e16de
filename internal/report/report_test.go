package report

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"dnssecboot/internal/classify"
	"dnssecboot/internal/operator"
	"dnssecboot/internal/scan"
)

// build folds a batch of results into a fresh accumulator.
func build(results []*classify.Result) *Aggregate {
	a := NewAggregate()
	for _, r := range results {
		a.Add(r)
	}
	return a
}

func res(zone, op string, status classify.Status, bucket classify.Potential) *classify.Result {
	return &classify.Result{
		Zone:     zone,
		Status:   status,
		Bucket:   bucket,
		Operator: operator.Result{Operator: op},
		Cost:     scan.Cost{Queries: 10},
	}
}

func sampleResults() []*classify.Result {
	out := []*classify.Result{
		res("a.com.", "GoDaddy", classify.StatusUnsigned, classify.PotentialNone),
		res("b.com.", "GoDaddy", classify.StatusSecured, classify.PotentialAlreadySecured),
		res("c.com.", "Cloudflare", classify.StatusIsland, classify.PotentialBootstrap),
		res("d.com.", "Cloudflare", classify.StatusInvalid, classify.PotentialInvalidDNSSEC),
		res("e.com.", operator.Unknown, classify.StatusUnsigned, classify.PotentialNone),
		{Zone: "f.com.", Status: classify.StatusUnresolved},
	}
	// CDS flags on selected results.
	out[1].CDS = classify.CDSInfo{Present: true, Consistent: true, MatchesDNSKEY: true, SigValid: true}
	out[2].CDS = classify.CDSInfo{Present: true, Consistent: true, MatchesDNSKEY: true, SigValid: true}
	out[2].Signal = classify.SignalInfo{Probed: true, HasSignal: true, Potential: true, Correct: true}
	out[3].Signal = classify.SignalInfo{Probed: true, HasSignal: true, InvalidDNSSEC: true}
	return out
}

func TestBuildAggregates(t *testing.T) {
	a := build(sampleResults())
	if a.Total != 6 || a.Unresolved != 1 || a.Resolved() != 5 {
		t.Errorf("totals = %d/%d", a.Total, a.Unresolved)
	}
	if a.ByStatus[classify.StatusUnsigned] != 2 || a.ByStatus[classify.StatusSecured] != 1 {
		t.Errorf("byStatus = %v", a.ByStatus)
	}
	if a.CDSPresent != 2 {
		t.Errorf("CDSPresent = %d", a.CDSPresent)
	}
	gd := a.Operators["GoDaddy"]
	if gd == nil || gd.Domains != 2 || gd.Secured != 1 || gd.CDS != 1 {
		t.Errorf("GoDaddy stats = %+v", gd)
	}
	cf := a.Operators["Cloudflare"]
	if cf.WithSignal != 2 || cf.Potential != 1 || cf.Correct != 1 || cf.InvalidDNSSEC != 1 || cf.CannotBootstrap != 1 {
		t.Errorf("Cloudflare ladder = %+v", cf)
	}
	if a.Queries != 50 {
		t.Errorf("queries = %d", a.Queries)
	}
}

func TestTableRenderings(t *testing.T) {
	a := build(sampleResults())
	t1 := a.Table1(5)
	if !strings.Contains(t1, "GoDaddy") || !strings.Contains(t1, "Cloudflare") {
		t.Errorf("table1 missing operators:\n%s", t1)
	}
	if strings.Contains(t1, operator.Unknown) {
		t.Error("table1 includes Unknown")
	}
	t2 := a.Table2(5)
	if !strings.Contains(t2, "GoDaddy") {
		t.Errorf("table2:\n%s", t2)
	}
	t3 := a.Table3()
	for _, col := range []string{"Cloudflare", "deSEC", "Glauca Digital", "Others", "Total"} {
		if !strings.Contains(t3, col) {
			t.Errorf("table3 missing column %s", col)
		}
	}
	f1 := a.Figure1()
	if !strings.Contains(f1, "Possible to bootstrap") {
		t.Errorf("figure1:\n%s", f1)
	}
	h := a.Headline()
	if !strings.Contains(h, "resolved 5 zones") {
		t.Errorf("headline: %s", h)
	}
}

func TestTable1SortsByDomains(t *testing.T) {
	rs := sampleResults()
	// Add more Cloudflare zones so it outranks GoDaddy.
	for i := 0; i < 5; i++ {
		rs = append(rs, res("x.com.", "Cloudflare", classify.StatusUnsigned, classify.PotentialNone))
	}
	a := build(rs)
	t1 := a.Table1(5)
	cfIdx := strings.Index(t1, "Cloudflare")
	gdIdx := strings.Index(t1, "GoDaddy")
	if cfIdx < 0 || gdIdx < 0 || cfIdx > gdIdx {
		t.Errorf("ordering wrong:\n%s", t1)
	}
}

func TestQueryStats(t *testing.T) {
	a := build(sampleResults())
	qs := a.QueryStats()
	if !strings.Contains(qs, "50 DNS queries") {
		t.Errorf("QueryStats = %s", qs)
	}
	empty := build(nil)
	if !strings.Contains(empty.QueryStats(), "0 DNS queries") {
		t.Error("empty QueryStats broken")
	}
}

func TestWriteCSV(t *testing.T) {
	a := build(sampleResults())
	for _, artefact := range []string{"table1", "table2", "table3", "figure1"} {
		var buf strings.Builder
		if err := a.WriteCSV(&buf, artefact); err != nil {
			t.Fatalf("%s: %v", artefact, err)
		}
		out := buf.String()
		lines := strings.Count(out, "\n")
		if lines < 2 {
			t.Errorf("%s CSV has %d lines:\n%s", artefact, lines, out)
		}
	}
	var buf strings.Builder
	if err := a.WriteCSV(&buf, "nope"); err == nil {
		t.Error("unknown artefact accepted")
	}
	// figure1 rows must carry the bucket counts.
	buf.Reset()
	if err := a.WriteCSV(&buf, "figure1"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "possible to bootstrap,1") {
		t.Errorf("figure1 CSV:\n%s", buf.String())
	}
}

// The -out contract shared by dnssec-scan, scanctl and reanalyze: a
// single artefact is its rendering plus a newline, "all" is every
// artefact in the fixed order each followed by a blank line, and an
// unknown name is an error that CheckArtefact reports without a report.
func TestWriteArtefact(t *testing.T) {
	a := build(sampleResults())
	var all strings.Builder
	for _, name := range strings.Split(ArtefactChoices(), "|")[1:] {
		var one strings.Builder
		if err := a.WriteArtefact(&one, name); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if one.Len() < 2 {
			t.Errorf("%s rendered %q", name, one.String())
		}
		all.WriteString(one.String() + "\n")
	}
	if want := a.Headline() + "\n"; !strings.HasPrefix(all.String(), want) {
		t.Errorf("first artefact is not the headline:\n%s", all.String())
	}
	var got strings.Builder
	if err := a.WriteArtefact(&got, "all"); err != nil {
		t.Fatal(err)
	}
	if got.String() != all.String() {
		t.Errorf("all differs from the single artefacts in order:\n%s\n--- want ---\n%s", got.String(), all.String())
	}

	got.Reset()
	if err := a.WriteArtefact(&got, "tabel3"); err == nil || got.Len() != 0 {
		t.Errorf("unknown artefact: error %v, wrote %q", err, got.String())
	}
	if err := CheckArtefact("tabel3", "none"); err == nil || !strings.Contains(err.Error(), `"tabel3"`) {
		t.Errorf("CheckArtefact(tabel3) = %v", err)
	}
	for _, ok := range []string{"all", "table3", "none"} {
		if err := CheckArtefact(ok, "none"); err != nil {
			t.Errorf("CheckArtefact(%s) = %v", ok, err)
		}
	}
	if err := CheckArtefact("none"); err == nil {
		t.Error("none accepted by a binary that does not offer it")
	}
}

func TestWriteCSVDir(t *testing.T) {
	a := build(sampleResults())
	dir := t.TempDir()
	if err := a.WriteCSVDir(dir); err != nil {
		t.Fatal(err)
	}
	for _, artefact := range []string{"table1", "table2", "table3", "figure1"} {
		var want strings.Builder
		if err := a.WriteCSV(&want, artefact); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, artefact+".csv"))
		if err != nil || string(got) != want.String() {
			t.Errorf("%s.csv: error %v, content differs from WriteCSV: %q", artefact, err, got)
		}
	}
	if err := a.WriteCSVDir(filepath.Join(dir, "absent")); err == nil {
		t.Error("missing directory accepted")
	}
}

// Table 3's CSV rows used to follow map iteration order, so two renders
// of the same aggregate could produce differently ordered files. Rows
// must come out sorted by operator name, identically on every render.
func TestTable3CSVRowOrderDeterministic(t *testing.T) {
	ops := []string{"Zeta", "GoDaddy", "Alpha", "Cloudflare", "Mid", "Beta", "Omega", "Kappa"}
	a := &Aggregate{Operators: map[string]*OperatorStats{}}
	for i, name := range ops {
		a.Operators[name] = &OperatorStats{Name: name, WithSignal: i + 1}
	}
	sorted := append([]string(nil), ops...)
	sort.Strings(sorted)

	var first string
	for render := 0; render < 20; render++ {
		var buf strings.Builder
		if err := a.WriteCSV(&buf, "table3"); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		if len(lines) != len(ops)+1 {
			t.Fatalf("render %d: %d lines, want %d:\n%s", render, len(lines), len(ops)+1, buf.String())
		}
		for i, name := range sorted {
			if got := strings.SplitN(lines[i+1], ",", 2)[0]; got != name {
				t.Fatalf("render %d row %d: operator %q, want %q", render, i, got, name)
			}
		}
		if render == 0 {
			first = buf.String()
		} else if buf.String() != first {
			t.Fatalf("render %d differs from first render", render)
		}
	}
}

// The largest-publisher line in CDSFindings used to break DeleteIslands
// ties by map iteration order; ties must resolve to the smallest name.
func TestCDSFindingsLargestPublisherTieBreak(t *testing.T) {
	for i := 0; i < 20; i++ {
		a := &Aggregate{
			CDSCounts: CDSCounts{CDSDeleteIslands: 6},
			Operators: map[string]*OperatorStats{
				"Zeta":  {Name: "Zeta", DeleteIslands: 3},
				"Alpha": {Name: "Alpha", DeleteIslands: 3},
				"Beta":  {Name: "Beta", DeleteIslands: 1},
			},
		}
		out := a.CDSFindings()
		if !strings.Contains(out, "largest publisher .................... Alpha (3") {
			t.Fatalf("iteration %d: tie not broken by name:\n%s", i, out)
		}
	}
}
