package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dnssecboot/internal/dnssec"
	"dnssecboot/internal/dnswire"
	"dnssecboot/internal/scan"
	"dnssecboot/internal/zone"
)

// The command-line contract of dnssec-scan, its alias scanctl (the same
// command with -shards defaulting to 4), the offline reanalyze, zonestat,
// dnsd, zonesign, digg and bootstrapd: which invocations are refused,
// with which exit code, saying what. The binaries are built once, in TestMain.

var binDir string

func TestMain(m *testing.M) {
	os.Exit(func() int {
		dir, err := os.MkdirTemp("", "scanctl-cli-bin")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer os.RemoveAll(dir)
		build := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), ".", "../dnssec-scan", "../reanalyze", "../zonestat", "../dnsd", "../zonesign", "../digg", "../bootstrapd")
		if out, err := build.CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "building the binaries under test: %v\n%s", err, out)
			return 1
		}
		binDir = dir
		return m.Run()
	}())
}

func TestFlagsAndExitCodes(t *testing.T) {
	dir := t.TempDir()
	// A checkpoint as the previous format version wrote it.
	oldCheckpoint := filepath.Join(dir, "v2.ckpt")
	if err := os.WriteFile(oldCheckpoint, []byte(`{"version":2,"seed":1,"total_zones":700,"next_index":16}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A version-3 checkpoint carries the fingerprint format before the
	// flags were registered once.
	v3Checkpoint := filepath.Join(dir, "v3.ckpt")
	if err := os.WriteFile(v3Checkpoint, []byte(`{"version":3,"seed":1,"total_zones":700,"next_index":16,"config":{"seed":1,"scale":500000}}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A version-4 checkpoint kept the progress and tallies beside the
	// dump instead of reading them from it.
	v4Checkpoint := filepath.Join(dir, "v4.ckpt")
	if err := os.WriteFile(v4Checkpoint, []byte(`{"version":4,"seed":1,"total_zones":700,"next_index":16,"dump_bytes":18000,"config":{"seed":"1","scale":"500000"},"aggregate":{"state_version":1,"total":16}}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// The dump a resume beside those headers would read: never opened,
	// since the header is refused first.
	absentDump := filepath.Join(dir, "absent.jsonl")
	// A zone dump whose fourth line is malformed, for zonestat and dnsd.
	badZone := filepath.Join(dir, "bad.zone")
	if err := os.WriteFile(badZone, []byte("$ORIGIN uk.\n@ 3600 IN SOA ns1.uk. host.uk. 1 2 3 4 5\nexample 3600 IN NS ns1.example.uk.\nbroken 3600 IN NS\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A small dump for reanalyze to read.
	dump := filepath.Join(dir, "obs.jsonl")
	if out, err := exec.Command(filepath.Join(binDir, "dnssec-scan"), "-scale", "500000", "-dump", dump, "-out", "none").CombinedOutput(); err != nil {
		t.Fatalf("writing the dump: %v\n%s", err, out)
	}
	// The same dump cut inside its third record.
	torn := filepath.Join(dir, "torn.jsonl")
	data, err := os.ReadFile(dump)
	if err != nil {
		t.Fatal(err)
	}
	first := bytes.IndexByte(data, '\n') + 1
	third := first + bytes.IndexByte(data[first:], '\n') + 1
	if err := os.WriteFile(torn, data[:third+10], 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		bin    string
		args   []string
		exit   int
		stderr string // substring the diagnostics must contain
		absent string // substring the diagnostics must not contain
		stdout string // substring the output must contain
	}{
		{"deleted -stateless is an unknown flag", "dnssec-scan", []string{"-stateless"}, 2, "flag provided but not defined: -stateless", "", ""},
		{"deleted -cache is an unknown flag", "dnssec-scan", []string{"-cache=false"}, 2, "flag provided but not defined: -cache", "", ""},
		{"scanctl passes no -stateless either", "scanctl", []string{"-stateless"}, 2, "flag provided but not defined: -stateless", "", ""},
		{"-shards -1 refused", "scanctl", []string{"-shards", "-1"}, 2, "-shards must not be negative", "", ""},
		{"deleted -worker is an unknown flag", "dnssec-scan", []string{"-worker", "x"}, 2, "flag provided but not defined: -worker", "", ""},
		{"scanctl has no -worker either", "scanctl", []string{"-worker", "x"}, 2, "flag provided but not defined: -worker", "", ""},
		// The run directory owns each shard's checkpoint; these are
		// refused before the world is generated.
		{"-shards refuses -checkpoint", "dnssec-scan",
			[]string{"-shards", "2", "-scale", "500000", "-checkpoint", filepath.Join(dir, "c.ckpt")}, 2, "-checkpoint cannot be combined with -shards", "generated", ""},
		{"-shards refuses -resume", "dnssec-scan",
			[]string{"-shards", "2", "-scale", "500000", "-resume", oldCheckpoint}, 2, "-resume cannot be combined with -shards", "generated", ""},
		{"-shards refuses -shard", "dnssec-scan",
			[]string{"-shards", "2", "-scale", "500000", "-shard", "0/2"}, 2, "-shard cannot be combined with -shards", "generated", ""},
		// Two workers must not write one file.
		{"-shards refuses a -metrics-out without {shard}", "dnssec-scan",
			[]string{"-shards", "2", "-scale", "500000", "-metrics-out", filepath.Join(dir, "m.json")}, 2, "put {shard} in the path", "generated", ""},
		{"-shards refuses a -trace-out without {shard}", "dnssec-scan",
			[]string{"-shards", "2", "-scale", "500000", "-trace-out", filepath.Join(dir, "t.jsonl")}, 2, "put {shard} in the path", "generated", ""},
		{"scanctl -shards 0 scans in process", "scanctl",
			[]string{"-shards", "0", "-scale", "500000", "-out", "headline"}, 0, "scanned 700 zones", "covered", "resolved 700 zones"},
		{"one shard runs and merges", "scanctl",
			[]string{"-shards", "1", "-scale", "500000", "-run-dir", filepath.Join(dir, "run"), "-out", "headline"}, 0, "1 shards covered", "", ""},
		{"version-2 checkpoint refused by name", "dnssec-scan",
			[]string{"-scale", "500000", "-resume", oldCheckpoint, "-dump", absentDump, "-out", "none"}, 1, "checkpoint is version 2", "", ""},
		{"version-3 checkpoint refused by name", "dnssec-scan",
			[]string{"-scale", "500000", "-resume", v3Checkpoint, "-dump", absentDump, "-out", "none"}, 1, "checkpoint is version 3", "", ""},
		{"version-4 checkpoint refused by name", "dnssec-scan",
			[]string{"-scale", "500000", "-resume", v4Checkpoint, "-dump", absentDump, "-out", "none"}, 1, "checkpoint is version 4", "", ""},
		// The dump is the record of progress: without one there is
		// nothing to resume from.
		{"-checkpoint without -dump refused", "dnssec-scan",
			[]string{"-scale", "500000", "-checkpoint", filepath.Join(dir, "c.ckpt")}, 2, "-checkpoint and -resume need -dump", "generated", ""},
		{"-resume without -dump refused", "dnssec-scan",
			[]string{"-scale", "500000", "-resume", oldCheckpoint}, 2, "-checkpoint and -resume need -dump", "generated", ""},
		{"deleted -checkpoint-every is an unknown flag", "dnssec-scan", []string{"-checkpoint-every", "16"}, 2, "flag provided but not defined: -checkpoint-every", "", ""},
		// A mistyped -out is refused before the world is generated, not
		// after the scan has run and written its dump.
		{"dnssec-scan refuses a mistyped artefact before scanning", "dnssec-scan",
			[]string{"-scale", "500000", "-out", "tabel3"}, 2, `unknown artefact "tabel3"`, "generated", ""},
		{"scanctl refuses a mistyped artefact before scanning", "scanctl",
			[]string{"-shards", "1", "-scale", "500000", "-run-dir", filepath.Join(dir, "typo"), "-out", "tabel3"}, 2, `unknown artefact "tabel3"`, "covered", ""},
		{"reanalyze refuses a mistyped artefact before reading", "reanalyze",
			[]string{"-in", filepath.Join(dir, "absent.jsonl"), "-out", "tabel3"}, 2, `unknown artefact "tabel3"`, "", ""},
		{"reanalyze -out body", "reanalyze", []string{"-in", dump, "-out", "body"}, 0, "", "", `{"zone":`},
		{"reanalyze -out explain", "reanalyze", []string{"-in", dump, "-out", "explain"}, 0, "", "", `{"zone":`},
		{"reanalyze -out explain on a torn dump", "reanalyze", []string{"-in", torn, "-out", "explain"}, 1,
			fmt.Sprintf("record 2 at byte %d is not a complete record", third), "", `{"zone":`},
		{"deleted -trace-zone is an unknown flag", "dnssec-scan", []string{"-trace-zone", "example."}, 2, "flag provided but not defined: -trace-zone", "", ""},
		{"reanalyze -out headline", "reanalyze", []string{"-in", dump, "-out", "headline"}, 0, "classified 700 observations", "", "resolved 700 zones"},
		{"zonestat without a dump", "zonestat", nil, 2, "usage: zonestat", "", ""},
		{"zonestat on a missing file", "zonestat", []string{filepath.Join(dir, "absent.zone")}, 1, "no such file", "", ""},
		{"zonestat skips a malformed record", "zonestat", []string{badZone}, 0, "-> 1 targets", "", `"bad_record":1`},
		{"zonestat -strict refuses a malformed record", "zonestat", []string{"-strict", badZone}, 1, "line 4: NS wants", "", ""},
		{"dnsd refuses an unknown flag", "dnsd", []string{"-nope"}, 2, "flag provided but not defined: -nope", "", ""},
		{"dnsd refuses a malformed zone", "dnsd", []string{"-listen", "127.0.0.1:0", badZone}, 1, "line 4: NS wants", "listening", ""},
		{"dnsd on a missing zone file", "dnsd", []string{"-listen", "127.0.0.1:0", filepath.Join(dir, "absent.db")}, 1, "no such file", "listening", ""},
		{"zonesign without -zone", "zonesign", []string{"-in", zonesignInput(t, dir)}, 2, "-zone is required", "", ""},
		{"zonesign refuses an unknown algorithm", "zonesign", []string{"-zone", "example.", "-in", zonesignInput(t, dir), "-alg", "gost"}, 1, `unknown algorithm "gost"`, "", ""},
		{"zonesign on a missing input file", "zonesign", []string{"-zone", "example.", "-in", filepath.Join(dir, "absent.zone")}, 1, "no such file", "", ""},
		{"digg without @server", "digg", []string{"example.com."}, 2, "usage: digg", "", ""},
		{"bootstrapd refuses an unknown flag", "bootstrapd", []string{"-nope"}, 2, "flag provided but not defined: -nope", "", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(filepath.Join(binDir, tc.bin), tc.args...)
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			exit := 0
			if ee, ok := err.(*exec.ExitError); ok {
				exit = ee.ExitCode()
			} else if err != nil {
				t.Fatalf("running %s: %v", tc.bin, err)
			}
			if exit != tc.exit {
				t.Errorf("exit code %d, want %d\n%s", exit, tc.exit, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr does not contain %q:\n%s", tc.stderr, stderr.String())
			}
			if tc.absent != "" && strings.Contains(stderr.String(), tc.absent) {
				t.Errorf("stderr contains %q:\n%s", tc.absent, stderr.String())
			}
			if !strings.Contains(stdout.String(), tc.stdout) {
				t.Errorf("stdout does not contain %q:\n%.300s", tc.stdout, stdout.String())
			}
		})
	}
}

// run executes one of the built binaries and returns its exit code and
// standard error.
func run(t *testing.T, bin string, args ...string) (int, string) {
	t.Helper()
	var stderr bytes.Buffer
	cmd := exec.Command(filepath.Join(binDir, bin), args...)
	cmd.Stderr = &stderr
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode(), stderr.String()
	} else if err != nil {
		t.Fatalf("running %s: %v", bin, err)
	}
	return 0, stderr.String()
}

// TestShardedMetricsSnapshots: -metrics-out is forwarded to every worker,
// and the {shard} placeholder gives each its own well-formed snapshot.
func TestShardedMetricsSnapshots(t *testing.T) {
	dir := t.TempDir()
	exit, stderr := run(t, "dnssec-scan", "-shards", "2", "-scale", "500000", "-run-dir", filepath.Join(dir, "run"),
		"-metrics-out", filepath.Join(dir, "m-{shard}.json"), "-out", "none")
	if exit != 0 {
		t.Fatalf("exit code %d\n%s", exit, stderr)
	}
	for _, name := range []string{"m-0-of-2.json", "m-1-of-2.json"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		var snapshot map[string]any
		if err := json.Unmarshal(data, &snapshot); err != nil || len(snapshot) == 0 {
			t.Errorf("%s is not a metrics snapshot (%v):\n%.300s", name, err, data)
		}
	}
}

// interrupt runs dnssec-scan with args and interrupts it once the
// checkpoint file cp exists; the run must drain and say where it
// stopped. Under the rate limit the run takes long enough to catch.
func interrupt(t *testing.T, cp string, args ...string) {
	t.Helper()
	var stderr bytes.Buffer
	cmd := exec.Command(filepath.Join(binDir, "dnssec-scan"), args...)
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(10 * time.Millisecond) {
		if _, err := os.Stat(cp); err == nil {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatal("no checkpoint after a minute")
		}
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil || !strings.Contains(stderr.String(), "interrupted at zone") {
		t.Fatalf("interrupted run: %v\n%s", err, stderr.String())
	}
}

// TestResumeFingerprint pins which flags a checkpoint holds a resume to:
// -rate changes what the scan observes, so a run interrupted under
// -rate 100 does not continue under -rate 0; -concurrency only schedules,
// so it may change between the two.
func TestResumeFingerprint(t *testing.T) {
	dir := t.TempDir()
	cp := filepath.Join(dir, "scan.ckpt")
	common := []string{"-scale", "500000", "-max-zones", "200", "-checkpoint", cp, "-dump", filepath.Join(dir, "obs.jsonl"), "-out", "none"}
	interrupt(t, cp, append(common, "-rate", "100")...)

	exit, msg := run(t, "dnssec-scan", append(common, "-resume", cp, "-rate", "0")...)
	if exit != 1 || !strings.Contains(msg, "checkpoint was taken with different flags") || !strings.Contains(msg, `"rate":"100"`) {
		t.Errorf("resume under -rate 0: exit code %d, want 1 naming the stored fingerprint\n%s", exit, msg)
	}
	exit, msg = run(t, "dnssec-scan", append(common, "-resume", cp, "-rate", "100", "-concurrency", "3")...)
	if exit != 0 || !strings.Contains(msg, "resuming at zone") || !strings.Contains(msg, "(200/200 exported)") {
		t.Errorf("resume under another -concurrency: exit code %d, want 0 and the run finished\n%s", exit, msg)
	}
}

// TestResumeTornDump resumes an interrupted run from dumps cut the ways
// a crash or a disk can cut them: empty, inside a record, at a record
// boundary, one byte past one, and one byte short of the whole dump.
// The complete records are kept and the rest is scanned again, so each
// resume must finish with the bodies and headline of an uninterrupted
// run. No prefix of the run header may get past ReadCheckpoint and
// Validate.
func TestResumeTornDump(t *testing.T) {
	dir := t.TempDir()
	ref, dump, cp := filepath.Join(dir, "ref.jsonl"), filepath.Join(dir, "obs.jsonl"), filepath.Join(dir, "scan.ckpt")
	scope := []string{"-scale", "500000", "-max-zones", "200", "-rate", "100"}
	refHeadline, err := exec.Command(filepath.Join(binDir, "dnssec-scan"), append(scope, "-dump", ref, "-out", "headline")...).Output()
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	common := append(scope, "-checkpoint", cp, "-dump", dump, "-out", "headline")
	interrupt(t, cp, append(common, "-concurrency", "1")...)
	header, err := os.ReadFile(cp)
	if err != nil {
		t.Fatal(err)
	}
	state, err := scan.ReadCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}

	// The reference dump stands in for what the interrupted run would
	// have written by each cut: the scan is deterministic.
	refDump, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	bodies := func(path string) []byte {
		out, err := exec.Command(filepath.Join(binDir, "reanalyze"), "-in", path, "-out", "body").Output()
		if err != nil {
			t.Fatalf("reanalyze %s: %v", path, err)
		}
		return out
	}
	refBodies := bodies(ref)
	boundary := 0
	for k := 0; k < 3; k++ {
		boundary += bytes.IndexByte(refDump[boundary:], '\n') + 1
	}
	mid := boundary + bytes.IndexByte(refDump[boundary:], '\n')/2
	for _, cut := range []int{0, mid, boundary, boundary + 1, len(refDump) - 1} {
		if err := os.WriteFile(dump, refDump[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var stderr bytes.Buffer
		resumed := exec.Command(filepath.Join(binDir, "dnssec-scan"), append(common, "-resume", cp)...)
		resumed.Stderr = &stderr
		headline, err := resumed.Output()
		if err != nil || !bytes.Equal(headline, refHeadline) {
			t.Fatalf("resume from a dump cut at byte %d of %d: %v, headline\n%s\nwant\n%s\n%s", cut, len(refDump), err, headline, refHeadline, stderr.String())
		}
		if !bytes.Equal(bodies(dump), refBodies) {
			t.Errorf("resume from a dump cut at byte %d of %d: bodies differ from the uninterrupted run's", cut, len(refDump))
		}
		if now, err := os.ReadFile(cp); err != nil || !bytes.Equal(now, header) {
			t.Fatalf("a resume rewrote the run header (%v)", err)
		}
	}

	// Every strict prefix of the header document is refused, never
	// resumed from, and never panics. Each prefix gets a file of its
	// own: rewriting one file in place thousands of times is slow on
	// filesystems that flush a truncated file's data on close.
	doc := bytes.TrimRight(header, "\n")
	for cut := 0; cut <= len(doc); cut++ {
		torn := filepath.Join(dir, fmt.Sprintf("torn-%d.ckpt", cut))
		if err := os.WriteFile(torn, doc[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := scan.ReadCheckpoint(torn)
		if err == nil {
			err = c.Validate(state)
		}
		if whole := cut == len(doc); (err == nil) != whole {
			t.Fatalf("header cut to %d of %d bytes: error %v", cut, len(doc), err)
		}
	}
}

// zonesignInput writes a small unsigned zone with a delegation, its
// glue, a wildcard and an empty non-terminal, and returns its path.
func zonesignInput(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "example.zone")
	text := `$ORIGIN example.
$TTL 3600
@ IN SOA ns1.example. hostmaster.example. 1 7200 3600 1209600 300
@ IN NS ns1.example.
@ IN NS ns2.example.net.
@ IN MX 10 mail.example.
ns1 IN A 192.0.2.1
mail IN A 192.0.2.25
www.a.b IN A 192.0.2.80
* IN TXT "wildcard"
sub IN NS ns.sub.example.
ns.sub IN A 192.0.2.53
`
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestZonesignOutput signs a zone with each algorithm zonesign is most
// used with and checks what it prints: every authoritative RRset carries
// one RRSIG per signing key (the KSK over DNSKEY, the ZSK over the
// rest), each verifies under the printed DNSKEYs, delegation NS and glue
// are unsigned, and the DS line matches the KSK.
func TestZonesignOutput(t *testing.T) {
	for _, alg := range []string{"ed25519", "ecdsap256"} {
		t.Run(alg, func(t *testing.T) {
			out, err := exec.Command(filepath.Join(binDir, "zonesign"), "-zone", "example.", "-in", zonesignInput(t, t.TempDir()), "-alg", alg).Output()
			if err != nil {
				t.Fatalf("zonesign: %v", err)
			}
			zoneText, dsText, ok := strings.Cut(string(out), "\n; DS record for the parent zone:\n")
			if !ok {
				t.Fatalf("no DS line in the output:\n%s", out)
			}
			z, err := zone.Parse(strings.NewReader(zoneText), "example.")
			if err != nil {
				t.Fatalf("parsing the printed zone: %v", err)
			}
			keys := z.RRset("example.", dnswire.TypeDNSKEY)
			var ksk *dnswire.DNSKEY
			for _, k := range keys {
				if key := k.Data.(*dnswire.DNSKEY); key.Flags&dnswire.DNSKEYFlagSEP != 0 {
					ksk = key
				}
			}
			if len(keys) != 2 || ksk == nil {
				t.Fatalf("printed DNSKEYs %v: want a KSK and a ZSK", keys)
			}
			now := time.Now()
			signed := 0
			for _, name := range z.Names() {
				sigs := z.RRset(name, dnswire.TypeRRSIG)
				if z.Occluded(name) {
					if len(sigs) != 0 {
						t.Errorf("glue %s carries %d RRSIGs", name, len(sigs))
					}
					continue
				}
				for _, typ := range z.TypesAt(name) {
					covering := dnssec.SigsCovering(sigs, name, typ)
					want := 1
					switch {
					case typ == dnswire.TypeRRSIG, typ == dnswire.TypeNS && name != z.Origin: // a delegation
						want = 0
					}
					if len(covering) != want {
						t.Errorf("%s/%s carries %d RRSIGs, want %d", name, typ, len(covering), want)
					}
					for _, sig := range covering {
						if err := dnssec.VerifyRRset(z.RRset(name, typ), []dnswire.RR{sig}, keys, now); err != nil {
							t.Errorf("%s/%s: %v", name, typ, err)
						}
						signed++
					}
				}
			}
			if signed < 10 {
				t.Errorf("only %d signatures verified", signed)
			}
			ds, err := zone.ParseRecord(strings.TrimSpace(dsText), "example.", 86400)
			if err != nil {
				t.Fatalf("parsing the DS line %q: %v", dsText, err)
			}
			if d, ok := ds.Data.(*dnswire.DS); !ok || !dnssec.DSMatchesKey("example.", d, ksk) {
				t.Errorf("DS line %q does not match the KSK", dsText)
			}
		})
	}
}
