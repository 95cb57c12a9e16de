package ingest

import (
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"dnssecboot/internal/obs"
	"dnssecboot/internal/zone"
)

func ingestString(t *testing.T, input string, cfg Config) *Result {
	t.Helper()
	res, err := Ingest(context.Background(), strings.NewReader(input), cfg)
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	return res
}

func gzipBytes(t *testing.T, data string) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write([]byte(data)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// A dump exercising every reduction path at once: apex records, clean
// delegations, a deeper delegation deduping to its registrable parent,
// glue, out-of-zone garbage, a suffix-only owner, and a duplicate NS.
const mixedDump = `$ORIGIN uk.
$TTL 172800
@ IN SOA ns0.nic.uk. hostmaster.nic.uk. 1 7200 900 2419200 172800
@ IN NS ns0.nic.uk.
alpha.co.uk. IN NS ns1.alpha.co.uk.
alpha.co.uk. IN NS ns2.alpha.co.uk.
deep.sub.alpha.co.uk. IN NS ns1.alpha.co.uk.
beta.uk. IN NS ns1.beta.uk.
ns1.alpha.co.uk. IN A 192.0.2.1
ns1.alpha.co.uk. IN AAAA 2001:db8::1
elsewhere.com. IN NS ns1.elsewhere.com.
co.uk. IN NS ns0.nic.uk.
gamma.org.uk. IN NS ns1.gamma.org.uk.
`

func TestIngestReduction(t *testing.T) {
	res := ingestString(t, mixedDump, Config{})
	wantTargets := []string{"alpha.co.uk.", "beta.uk.", "gamma.org.uk."}
	if !reflect.DeepEqual(res.Targets, wantTargets) {
		t.Errorf("targets = %v, want %v", res.Targets, wantTargets)
	}
	s := res.Stats
	if s.Origin != "uk." {
		t.Errorf("origin = %q, want uk.", s.Origin)
	}
	if s.Records != 11 {
		t.Errorf("records = %d, want 11", s.Records)
	}
	if s.Directives != 2 {
		t.Errorf("directives = %d, want 2", s.Directives)
	}
	wantSkips := map[string]int{
		SkipNonNS:         1, // the SOA
		SkipApex:          1, // uk. NS
		SkipGlue:          2, // A + AAAA
		SkipOutOfZone:     1, // elsewhere.com.
		SkipUnregistrable: 1, // co.uk. is a public suffix
		SkipDuplicate:     2, // second alpha NS + deep.sub.alpha
	}
	if !reflect.DeepEqual(s.Skipped, wantSkips) {
		t.Errorf("skipped = %v, want %v", s.Skipped, wantSkips)
	}
	if s.Targets != len(res.Targets) {
		t.Errorf("stats.Targets = %d, want %d", s.Targets, len(res.Targets))
	}
	if s.Gzip {
		t.Error("plain input reported as gzip")
	}
}

// withProcs runs fn at GOMAXPROCS n, which sets Ingest's worker count.
func withProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// The emitted target list and every stat must be identical for every
// worker count — order preservation is the pipeline's core contract.
// Tiny batches force heavy reordering.
func TestIngestWorkerCountDeterminism(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("$ORIGIN test.\n")
	for i := 0; i < 3000; i++ {
		fmt.Fprintf(&sb, "zone%04d.test. IN NS ns1.zone%04d.test.\n", i, i)
		if i%7 == 0 {
			fmt.Fprintf(&sb, "ns1.zone%04d.test. IN A 192.0.2.1\n", i)
		}
		if i%11 == 0 {
			sb.WriteString("this line does not parse\n")
		}
	}
	var ref *Result
	for _, workers := range []int{1, 2, 4} {
		var res *Result
		var err error
		withProcs(workers, func() {
			res, err = ingest(context.Background(), strings.NewReader(sb.String()), Config{}, zone.MaxLogicalLineBytes, 7)
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ref == nil {
			ref = res
			if len(res.Targets) != 3000 {
				t.Fatalf("targets = %d, want 3000", len(res.Targets))
			}
			continue
		}
		if !reflect.DeepEqual(res.Targets, ref.Targets) {
			t.Fatalf("workers=%d: target list differs from workers=1", workers)
		}
		if !reflect.DeepEqual(res.Stats, ref.Stats) {
			t.Fatalf("workers=%d: stats differ: %+v vs %+v", workers, res.Stats, ref.Stats)
		}
	}
	// And the order is exactly first-seen input order.
	for i, tgt := range ref.Targets[:10] {
		want := fmt.Sprintf("zone%04d.test.", i)
		if tgt != want {
			t.Fatalf("target[%d] = %q, want %q", i, tgt, want)
		}
	}
}

// gzip is detected from magic bytes and must reduce to the identical
// result; only the Gzip stat may differ.
func TestIngestGzipVsPlain(t *testing.T) {
	plain := ingestString(t, mixedDump, Config{})
	gz, err := Ingest(context.Background(), bytes.NewReader(gzipBytes(t, mixedDump)), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !gz.Stats.Gzip {
		t.Error("gzip input not detected")
	}
	gz.Stats.Gzip = false
	if !reflect.DeepEqual(gz.Targets, plain.Targets) {
		t.Errorf("gzip targets differ: %v vs %v", gz.Targets, plain.Targets)
	}
	if !reflect.DeepEqual(gz.Stats, plain.Stats) {
		t.Errorf("gzip stats differ: %+v vs %+v", gz.Stats, plain.Stats)
	}
}

// A gzip stream cut mid-body is a structural failure, never a silent
// partial result.
func TestIngestTruncatedGzip(t *testing.T) {
	full := gzipBytes(t, mixedDump)
	for _, cut := range []int{3, len(full) / 2, len(full) - 1} {
		_, err := Ingest(context.Background(), bytes.NewReader(full[:cut]), Config{})
		if err == nil {
			t.Errorf("gzip truncated at %d/%d bytes ingested without error", cut, len(full))
		}
	}
}

func TestIngestCorruptGzip(t *testing.T) {
	data := gzipBytes(t, mixedDump)
	copy(data[12:], []byte{0xde, 0xad, 0xbe, 0xef, 0xde, 0xad, 0xbe, 0xef})
	if _, err := Ingest(context.Background(), bytes.NewReader(data), Config{}); err == nil {
		t.Error("corrupt gzip body ingested without error")
	}
}

// CRLF, LF and a final unterminated line must all read identically.
func TestIngestMixedLineEndings(t *testing.T) {
	lf := "$ORIGIN test.\na.test. IN NS ns1.a.test.\nb.test. IN NS ns1.b.test.\nc.test. IN NS ns1.c.test.\n"
	mixed := "$ORIGIN test.\r\na.test. IN NS ns1.a.test.\nb.test. IN NS ns1.b.test.\r\nc.test. IN NS ns1.c.test."
	want := ingestString(t, lf, Config{})
	got := ingestString(t, mixed, Config{})
	if !reflect.DeepEqual(got.Targets, want.Targets) {
		t.Errorf("mixed endings targets = %v, want %v", got.Targets, want.Targets)
	}
	if got.Stats.Records != want.Stats.Records {
		t.Errorf("mixed endings records = %d, want %d", got.Stats.Records, want.Stats.Records)
	}
}

// A multi-line parenthesised SOA with comments inside the parens — the
// classic CZDS header shape — must assemble into one record.
func TestIngestParenthesisedRecordWithComments(t *testing.T) {
	input := `$ORIGIN test.
@ IN SOA ns0.test. hostmaster.test. ( ; serial follows
		2024010101 ; serial
		7200       ; refresh
		900        ; retry
		2419200    ; expire
		172800 )   ; minimum
a.test. IN NS ns1.a.test.
`
	res := ingestString(t, input, Config{})
	if res.Stats.Records != 2 {
		t.Fatalf("records = %d, want 2 (SOA + NS); errors: %v", res.Stats.Records, res.Stats.FirstErrors)
	}
	if len(res.Targets) != 1 || res.Targets[0] != "a.test." {
		t.Errorf("targets = %v, want [a.test.]", res.Targets)
	}
	if res.Stats.LogicalLines != 3 { // $ORIGIN + SOA + NS
		t.Errorf("logical lines = %d, want 3", res.Stats.LogicalLines)
	}
}

func TestIngestBlankOwnerContinuation(t *testing.T) {
	input := "$ORIGIN test.\n" +
		"a.test. IN NS ns1.a.test.\n" +
		"\tIN NS ns2.a.test.\n" + // same owner: duplicate registrable
		"b.test. IN NS ns1.b.test.\n"
	res := ingestString(t, input, Config{})
	if !reflect.DeepEqual(res.Targets, []string{"a.test.", "b.test."}) {
		t.Errorf("targets = %v", res.Targets)
	}
	if res.Stats.Skipped[SkipDuplicate] != 1 {
		t.Errorf("duplicate skips = %d, want 1", res.Stats.Skipped[SkipDuplicate])
	}
}

// A blank owner is the last stated owner, an absolute name: a $ORIGIN
// between the two lines does not move it into another zone. zone.Parse
// reads the same bytes as two www.example. records.
func TestIngestBlankOwnerAcrossOrigin(t *testing.T) {
	input := "$ORIGIN example.\nwww 60 IN NS ns1.example.\n$ORIGIN other.\n\t60 IN NS ns2.example.\n"
	res := ingestString(t, input, Config{})
	if res.Stats.Records != 2 {
		t.Fatalf("records = %d, want 2; errors %v", res.Stats.Records, res.Stats.FirstErrors)
	}
	want := map[string]int{SkipDuplicate: 1}
	if !reflect.DeepEqual(res.Stats.Skipped, want) {
		t.Errorf("skipped = %v, want %v (the second record is www.example. again)", res.Stats.Skipped, want)
	}
	if !reflect.DeepEqual(res.Targets, []string{"www.example."}) {
		t.Errorf("targets = %v, want [www.example.]", res.Targets)
	}
}

// A relative $ORIGIN resolves against the origin in force, as in
// zone.Parse; an unknown directive is a counted bad line.
func TestIngestOriginDirectives(t *testing.T) {
	res := ingestString(t, "$ORIGIN example.\n$ORIGIN sub\nwww IN NS ns1\n", Config{})
	if res.Stats.Origin != "sub.example." {
		t.Errorf("origin = %q, want sub.example.", res.Stats.Origin)
	}
	if res.Stats.Skipped[SkipOutOfZone] != 0 || res.Stats.Records != 1 {
		t.Errorf("stats = %+v, want one in-zone record", res.Stats)
	}

	res = ingestString(t, "$ORIGIN example.\n$GENERATE 1-2 host$ A 192.0.2.$\n", Config{})
	if want := []string{"line 2: unknown directive $GENERATE"}; !reflect.DeepEqual(res.Stats.FirstErrors, want) {
		t.Errorf("FirstErrors = %q, want %q", res.Stats.FirstErrors, want)
	}
}

// Unbalanced parentheses: counted in lenient mode, positional fatal in
// strict mode; subsequent records still ingest in lenient mode.
func TestIngestUnbalancedParens(t *testing.T) {
	input := "$ORIGIN test.\n" +
		"bad.test. IN TXT )broken\n" +
		"good.test. IN NS ns1.good.test.\n"
	res := ingestString(t, input, Config{})
	if res.Stats.Skipped[SkipBadRecord] != 1 {
		t.Errorf("bad_record skips = %d, want 1", res.Stats.Skipped[SkipBadRecord])
	}
	if !reflect.DeepEqual(res.Targets, []string{"good.test."}) {
		t.Errorf("targets = %v, want [good.test.]", res.Targets)
	}
	if len(res.Stats.FirstErrors) != 1 || !strings.Contains(res.Stats.FirstErrors[0], "line 2") {
		t.Errorf("FirstErrors = %v, want one entry naming line 2", res.Stats.FirstErrors)
	}

	_, err := Ingest(context.Background(), strings.NewReader(input), Config{Strict: true})
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("strict error = %v, want positional line 2 failure", err)
	}
}

// An unterminated '(' at EOF is a structural line problem with the
// position of the opening line.
func TestIngestEOFInsideParens(t *testing.T) {
	input := "$ORIGIN test.\na.test. IN SOA ns0.test. h.test. ( 1 2 3\n"
	res := ingestString(t, input, Config{})
	if res.Stats.Skipped[SkipBadRecord] != 1 {
		t.Errorf("bad_record skips = %d, want 1; errors %v", res.Stats.Skipped[SkipBadRecord], res.Stats.FirstErrors)
	}
	if len(res.Stats.FirstErrors) != 1 || !strings.Contains(res.Stats.FirstErrors[0], "EOF inside '('") {
		t.Errorf("FirstErrors = %v", res.Stats.FirstErrors)
	}
}

// Logical lines beyond bufio's 64KiB default but under the cap are
// legitimate (DNSKEY sets, fat TXT) and must parse.
func TestIngestLongLegalLogicalLine(t *testing.T) {
	payload := strings.Repeat("a", 100<<10)
	input := "$ORIGIN test.\n" +
		"big.test. IN TXT ( \"" + payload[:50<<10] + "\"\n\"" + payload[50<<10:] + "\" )\n" +
		"a.test. IN NS ns1.a.test.\n"
	res := ingestString(t, input, Config{})
	if res.Stats.Records != 2 {
		t.Fatalf("records = %d, want 2; errors %v", res.Stats.Records, res.Stats.FirstErrors)
	}
	if res.Stats.Skipped[SkipNonNS] != 1 {
		t.Errorf("non_ns skips = %d, want 1 (the TXT)", res.Stats.Skipped[SkipNonNS])
	}
}

// Over-long physical lines are skipped in O(1) memory and the rest of
// the dump still ingests; strict mode aborts with the position instead.
func TestIngestOverlongLineSkipped(t *testing.T) {
	input := "$ORIGIN test.\n" +
		"huge.test. IN TXT \"" + strings.Repeat("x", 8192) + "\"\n" +
		"a.test. IN NS ns1.a.test.\n"
	res, err := ingest(context.Background(), strings.NewReader(input), Config{}, 1024, 256)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Skipped[SkipBadRecord] != 1 {
		t.Errorf("bad_record skips = %d, want 1", res.Stats.Skipped[SkipBadRecord])
	}
	if len(res.Stats.FirstErrors) != 1 || !strings.Contains(res.Stats.FirstErrors[0], "exceeds 1024 bytes") {
		t.Errorf("FirstErrors = %v, want a 1024-byte cap message", res.Stats.FirstErrors)
	}
	if !reflect.DeepEqual(res.Targets, []string{"a.test."}) {
		t.Errorf("targets = %v, want [a.test.]", res.Targets)
	}

	if _, err := ingest(context.Background(), strings.NewReader(input), Config{Strict: true}, 1024, 256); err == nil {
		t.Error("strict mode ingested an over-long line without error")
	}
}

// A parenthesised join exceeding the cap is also bounded: the reader
// gives up on the logical line, it does not buffer it.
func TestIngestOverlongLogicalJoinSkipped(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("$ORIGIN test.\nbig.test. IN TXT (\n")
	for i := 0; i < 10; i++ {
		sb.WriteString("\"" + strings.Repeat("y", 400) + "\"\n")
	}
	sb.WriteString(")\na.test. IN NS ns1.a.test.\n")
	res, err := ingest(context.Background(), strings.NewReader(sb.String()), Config{}, 1024, 256)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Skipped[SkipBadRecord] == 0 {
		t.Errorf("over-long logical join not skipped; errors %v", res.Stats.FirstErrors)
	}
	if len(res.Targets) != 1 || res.Targets[0] != "a.test." {
		t.Errorf("targets = %v, want [a.test.]", res.Targets)
	}
}

// $INCLUDE is always fatal, in both modes, with the position: silently
// skipping it would truncate the target list.
func TestIngestIncludeIsFatal(t *testing.T) {
	input := "$ORIGIN test.\na.test. IN NS ns1.a.test.\n$INCLUDE other.zone\nb.test. IN NS ns1.b.test.\n"
	for _, strict := range []bool{false, true} {
		_, err := Ingest(context.Background(), strings.NewReader(input), Config{Strict: strict})
		if err == nil {
			t.Fatalf("strict=%v: $INCLUDE ingested without error", strict)
		}
		if !strings.Contains(err.Error(), "$INCLUDE") || !strings.Contains(err.Error(), "line 3") {
			t.Errorf("strict=%v: error = %v, want $INCLUDE at line 3", strict, err)
		}
	}
}

// Owner names over the 255-octet wire limit parse at the presentation
// layer but must not become scan targets.
func TestIngestOverlongOwnerName(t *testing.T) {
	label := strings.Repeat("a", 63)
	owner := strings.Join([]string{label, label, label, label, label}, ".") + ".test." // 5*64+5 > 255
	input := "$ORIGIN test.\n" + owner + " IN NS ns1.a.test.\na.test. IN NS ns1.a.test.\n"
	res := ingestString(t, input, Config{})
	if res.Stats.Skipped[SkipBadRecord] != 1 {
		t.Errorf("bad_record skips = %d, want 1; errors %v", res.Stats.Skipped[SkipBadRecord], res.Stats.FirstErrors)
	}
	if !reflect.DeepEqual(res.Targets, []string{"a.test."}) {
		t.Errorf("targets = %v, want [a.test.]", res.Targets)
	}
}

// Apex autodetection: first $ORIGIN wins; without one, the first SOA
// owner does. Until the apex is known nothing is judged out-of-zone.
func TestIngestApexAutodetect(t *testing.T) {
	bySOA := "example.test. IN SOA ns0.example.test. h.example.test. 1 2 3 4 5\n" +
		"sub.example.test. IN NS ns1.sub.example.test.\n" +
		"other.com. IN NS ns1.other.com.\n"
	res := ingestString(t, bySOA, Config{})
	if res.Stats.Origin != "example.test." {
		t.Errorf("SOA autodetect origin = %q, want example.test.", res.Stats.Origin)
	}
	if res.Stats.Skipped[SkipOutOfZone] != 1 {
		t.Errorf("out_of_zone = %d, want 1", res.Stats.Skipped[SkipOutOfZone])
	}

	// Explicit config overrides everything.
	res = ingestString(t, bySOA, Config{Origin: "other.com."})
	if res.Stats.Origin != "other.com." {
		t.Errorf("configured origin = %q", res.Stats.Origin)
	}
	// The .test delegation is now out of zone; the other.com. NS is the
	// configured apex itself.
	if res.Stats.Skipped[SkipOutOfZone] != 1 || res.Stats.Skipped[SkipApex] != 1 {
		t.Errorf("skips = %v, want out_of_zone=1 apex=1", res.Stats.Skipped)
	}
}

func TestIngestRegistryCounters(t *testing.T) {
	reg := obs.NewRegistry()
	res, err := Ingest(context.Background(), strings.NewReader(mixedDump), Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("ingest.targets").Value(); got != int64(len(res.Targets)) {
		t.Errorf("ingest.targets = %d, want %d", got, len(res.Targets))
	}
	if got := reg.Counter("ingest.records").Value(); got != int64(res.Stats.Records) {
		t.Errorf("ingest.records = %d, want %d", got, res.Stats.Records)
	}
	if got := reg.Counter("ingest.skip.glue").Value(); got != int64(res.Stats.Skipped[SkipGlue]) {
		t.Errorf("ingest.skip.glue = %d, want %d", got, res.Stats.Skipped[SkipGlue])
	}
}

func TestIngestContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Ingest(ctx, strings.NewReader(mixedDump), Config{})
	if err == nil {
		t.Error("cancelled context ingested without error")
	}
}

func TestIngestEmptyInput(t *testing.T) {
	res := ingestString(t, "", Config{})
	if res.Stats.Records != 0 || len(res.Targets) != 0 {
		t.Errorf("empty input produced %+v", res.Stats)
	}
	if res.Stats.Origin != "." {
		t.Errorf("empty input origin = %q, want .", res.Stats.Origin)
	}
}

func TestFileMissing(t *testing.T) {
	if _, err := File(context.Background(), "testdata/does-not-exist.zone", Config{}); err == nil {
		t.Error("missing file ingested without error")
	}
}

// FirstErrors is a bounded sample, not an unbounded log.
func TestIngestErrorSampleBounded(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("$ORIGIN test.\n")
	for i := 0; i < 50; i++ {
		sb.WriteString("not a record\n")
	}
	res := ingestString(t, sb.String(), Config{})
	if res.Stats.Skipped[SkipBadRecord] != 50 {
		t.Errorf("bad_record = %d, want 50", res.Stats.Skipped[SkipBadRecord])
	}
	if len(res.Stats.FirstErrors) != maxErrorSamples {
		t.Errorf("FirstErrors sample = %d entries, want %d", len(res.Stats.FirstErrors), maxErrorSamples)
	}
}
