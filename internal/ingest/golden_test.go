package ingest_test

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"dnssecboot/internal/core"
	"dnssecboot/internal/ecosystem"
	"dnssecboot/internal/ingest"
)

// Golden end-to-end fixture: a checked-in gzipped mini-TLD dump — the
// paper's "uk." zone in miniature, populated with the real .uk targets
// of the seed-1/scale-500000 synthetic world plus every kind of
// real-dump clutter (CRLF lines, parenthesised SOA with inline
// comments, blank owners, uppercase and relative spellings, glue,
// out-of-zone garbage, suffix-only owners, malformed lines, one fat
// TXT) — must reduce to a byte-stable target list and stats, at every
// worker count, gzipped or not, and the scan report over those targets
// must match the checked-in headline. Refresh after an intentional
// change with:
//
//	go test ./internal/ingest/ -run TestGoldenDump -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite the golden dump fixtures")

const (
	goldenDumpPath     = "testdata/golden/uk_dump.zone.gz"
	goldenTargetsPath  = "testdata/golden/targets.txt"
	goldenStatsPath    = "testdata/golden/stats.json"
	goldenHeadlinePath = "testdata/golden/headline.txt"
)

// ukWorldTargets returns the .uk registrable domains of the golden
// world, in world order.
func ukWorldTargets(t *testing.T) []string {
	t.Helper()
	w, err := ecosystem.Generate(ecosystem.Config{Seed: 1, ScaleDivisor: 500_000})
	if err != nil {
		t.Fatal(err)
	}
	var uk []string
	for _, tgt := range w.Targets {
		if strings.HasSuffix(tgt, ".uk.") {
			uk = append(uk, tgt)
		}
	}
	if len(uk) == 0 {
		t.Fatal("golden world has no .uk targets")
	}
	return uk
}

// goldenDumpText renders the adversarial mini-TLD dump. It is a pure
// function of the target list, so -update-golden is reproducible.
func goldenDumpText(uk []string) string {
	var sb strings.Builder
	sb.WriteString("; uk. zone dump, golden ingest fixture\n")
	sb.WriteString(";\n\n")
	sb.WriteString("$ORIGIN uk.\r\n") // CRLF on purpose
	sb.WriteString("$TTL 172800\n")
	sb.WriteString("@ IN SOA ns0.nic.uk. hostmaster.nic.uk. ( ; v=serial\n")
	sb.WriteString("\t2024010101 ; serial\n")
	sb.WriteString("\t7200 ; refresh\n")
	sb.WriteString("\t900 ( ) ; retry, with noise parens\n")
	sb.WriteString("\t2419200 172800 )\n")
	sb.WriteString("@ IN NS ns0.nic.uk.\n")
	sb.WriteString("ns0.nic.uk. IN A 192.0.2.53\n")
	sb.WriteString("co.uk. IN NS ns0.nic.uk. ; public suffix, not registrable\n\n")

	for i, tgt := range uk {
		ns1 := "ns1." + tgt
		switch i % 5 {
		case 0: // plain, plus blank-owner continuation and glue
			fmt.Fprintf(&sb, "%s IN NS %s\r\n", tgt, ns1)
			fmt.Fprintf(&sb, "\tIN NS ns2.%s\n", tgt)
			fmt.Fprintf(&sb, "%s IN A 192.0.2.%d\n", ns1, i%250+1)
		case 1: // uppercase first spelling
			fmt.Fprintf(&sb, "%s IN NS %s\n", strings.ToUpper(tgt), ns1)
			fmt.Fprintf(&sb, "%s IN NS ns2.%s\n", tgt, tgt)
		case 2: // relative owner against $ORIGIN uk.
			fmt.Fprintf(&sb, "%s IN NS %s\n", strings.TrimSuffix(tgt, ".uk."), ns1)
		case 3: // deep delegation under the same registrable name
			fmt.Fprintf(&sb, "%s IN NS %s\n", tgt, ns1)
			fmt.Fprintf(&sb, "www.sub.%s IN NS %s\n", tgt, ns1)
		default: // AAAA glue
			fmt.Fprintf(&sb, "%s 172800 IN NS %s\n", tgt, ns1)
			fmt.Fprintf(&sb, "%s IN AAAA 2001:db8::%d\n", ns1, i%200+1)
		}
	}

	// Clutter every real dump drags along.
	sb.WriteString("\nelsewhere.com. IN NS ns1.elsewhere.com. ; out of zone\n")
	sb.WriteString("this is not a record\n")
	longOwner := strings.Repeat(strings.Repeat("x", 63)+".", 5) + "uk."
	fmt.Fprintf(&sb, "%s IN NS ns0.nic.uk. ; owner over 255 octets\n", longOwner)
	sb.WriteString("bigtxt.uk. IN TXT (\n")
	for j := 0; j < 18; j++ {
		fmt.Fprintf(&sb, "\"%s\"\n", strings.Repeat("t", 4000))
	}
	sb.WriteString(") ; ~72KiB logical line\n")
	return sb.String()
}

func mustReadGolden(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading fixture (run with -update-golden to create it): %v", err)
	}
	return b
}

func marshalStats(t *testing.T, s ingest.Stats) []byte {
	t.Helper()
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

func goldenHeadline(t *testing.T, targets []string) string {
	t.Helper()
	study, err := core.RunStream(context.Background(), core.StreamOptions{
		Options: core.Options{
			Seed:         1,
			ScaleDivisor: 500_000,
			Concurrency:  8,
			Targets:      targets,
		},
	})
	if err != nil {
		t.Fatalf("RunStream: %v", err)
	}
	return study.Report.Headline() + "\n"
}

func TestGoldenDump(t *testing.T) {
	if *updateGolden {
		uk := ukWorldTargets(t)
		text := goldenDumpText(uk)
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		if _, err := zw.Write([]byte(text)); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenDumpPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenDumpPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := ingest.File(context.Background(), goldenDumpPath, ingest.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenTargetsPath, []byte(strings.Join(res.Targets, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenStatsPath, marshalStats(t, res.Stats), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenHeadlinePath, []byte(goldenHeadline(t, res.Targets)), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote golden fixtures: %d targets, %d records", res.Stats.Targets, res.Stats.Records)
		return
	}

	wantTargets := strings.Split(strings.TrimRight(string(mustReadGolden(t, goldenTargetsPath)), "\n"), "\n")
	wantStats := mustReadGolden(t, goldenStatsPath)

	// Every worker count must reproduce the fixtures byte-for-byte.
	var ref *ingest.Result
	for _, workers := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(workers)
		res, err := ingest.File(context.Background(), goldenDumpPath, ingest.Config{})
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(res.Targets, wantTargets) {
			t.Fatalf("workers=%d: targets diverge from fixture\n got %d: %v\nwant %d: %v",
				workers, len(res.Targets), res.Targets, len(wantTargets), wantTargets)
		}
		if got := marshalStats(t, res.Stats); !bytes.Equal(got, wantStats) {
			t.Fatalf("workers=%d: stats diverge from fixture\n got %s\nwant %s", workers, got, wantStats)
		}
		ref = res
	}

	// The decompressed dump must reduce identically (Gzip flag aside).
	gz := mustReadGolden(t, goldenDumpPath)
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	pres, err := ingest.Ingest(context.Background(), bytes.NewReader(plain), ingest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pres.Targets, ref.Targets) {
		t.Error("plain ingest targets differ from gzip ingest")
	}
	pres.Stats.Gzip = true
	if !reflect.DeepEqual(pres.Stats, ref.Stats) {
		t.Errorf("plain ingest stats differ from gzip ingest: %+v vs %+v", pres.Stats, ref.Stats)
	}

	// The dump generator must still describe the checked-in bytes: a
	// drifted generator would make -update-golden silently rewrite
	// fixtures that no longer match what this test exercised.
	if regen := goldenDumpText(ukWorldTargets(t)); regen != string(plain) {
		t.Error("goldenDumpText no longer reproduces the checked-in dump; rerun -update-golden")
	}
}

// The scan report over the ingested targets — the full paper pipeline
// fed from a zone dump instead of the synthetic target list — is pinned
// byte-for-byte.
func TestGoldenDumpHeadline(t *testing.T) {
	if *updateGolden {
		t.Skip("fixtures rewritten by TestGoldenDump")
	}
	if testing.Short() {
		t.Skip("full world generation in -short mode")
	}
	res, err := ingest.File(context.Background(), goldenDumpPath, ingest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := string(mustReadGolden(t, goldenHeadlinePath))
	if got := goldenHeadline(t, res.Targets); got != want {
		t.Errorf("headline diverges from fixture\n got: %s\nwant: %s", got, want)
	}
}
