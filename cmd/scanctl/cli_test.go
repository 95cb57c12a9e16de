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
	"dnssecboot/internal/report"
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
	// A zone dump whose fourth line is malformed, for zonestat.
	badZone := filepath.Join(dir, "bad.zone")
	if err := os.WriteFile(badZone, []byte("$ORIGIN uk.\n@ 3600 IN SOA ns1.uk. host.uk. 1 2 3 4 5\nexample 3600 IN NS ns1.example.uk.\nbroken 3600 IN NS\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A small dump for reanalyze to read.
	dump := filepath.Join(dir, "obs.jsonl")
	if out, err := exec.Command(filepath.Join(binDir, "dnssec-scan"), "-scale", "500000", "-dump", dump, "-out", "none").CombinedOutput(); err != nil {
		t.Fatalf("writing the dump: %v\n%s", err, out)
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
			[]string{"-scale", "500000", "-resume", oldCheckpoint, "-out", "none"}, 1, "checkpoint is version 2", "", ""},
		{"version-3 checkpoint refused by name", "dnssec-scan",
			[]string{"-scale", "500000", "-resume", v3Checkpoint, "-out", "none"}, 1, "checkpoint is version 3", "", ""},
		// A mistyped -out is refused before the world is generated, not
		// after the scan has run and written its dump.
		{"dnssec-scan refuses a mistyped artefact before scanning", "dnssec-scan",
			[]string{"-scale", "500000", "-out", "tabel3"}, 2, `unknown artefact "tabel3"`, "generated", ""},
		{"scanctl refuses a mistyped artefact before scanning", "scanctl",
			[]string{"-shards", "1", "-scale", "500000", "-run-dir", filepath.Join(dir, "typo"), "-out", "tabel3"}, 2, `unknown artefact "tabel3"`, "covered", ""},
		{"reanalyze refuses a mistyped artefact before reading", "reanalyze",
			[]string{"-in", filepath.Join(dir, "absent.jsonl"), "-out", "tabel3"}, 2, `unknown artefact "tabel3"`, "", ""},
		{"reanalyze -out body", "reanalyze", []string{"-in", dump, "-out", "body"}, 0, "", "", `{"zone":`},
		{"reanalyze -out headline", "reanalyze", []string{"-in", dump, "-out", "headline"}, 0, "classified 700 observations", "", "resolved 700 zones"},
		{"zonestat without a dump", "zonestat", nil, 2, "usage: zonestat", "", ""},
		{"zonestat on a missing file", "zonestat", []string{filepath.Join(dir, "absent.zone")}, 1, "no such file", "", ""},
		{"zonestat skips a malformed record", "zonestat", []string{badZone}, 0, "-> 1 targets", "", `"bad_record":1`},
		{"zonestat -strict refuses a malformed record", "zonestat", []string{"-strict", badZone}, 1, "line 4: NS wants", "", ""},
		{"dnsd refuses an unknown flag", "dnsd", []string{"-nope"}, 2, "flag provided but not defined: -nope", "", ""},
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
	common := []string{"-scale", "500000", "-max-zones", "200", "-checkpoint", cp, "-checkpoint-every", "16", "-out", "none"}
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

// TestResumeTornDump cuts the dump and the checkpoint of an interrupted
// run the ways a crash or a disk can. A dump shorter than the
// checkpoint's dump_bytes has lost records the checkpoint counts: resume
// must refuse it (it used to pad the dump with NUL bytes and exit 0). A
// dump longer than dump_bytes holds records written after the last
// checkpoint, ending in a partial one: resume must cut them and finish
// with the bodies and headline of an uninterrupted run. No prefix of the
// checkpoint file may get past ReadCheckpoint, Validate and
// UnmarshalState.
func TestResumeTornDump(t *testing.T) {
	dir := t.TempDir()
	ref, dump, cp := filepath.Join(dir, "ref.jsonl"), filepath.Join(dir, "obs.jsonl"), filepath.Join(dir, "scan.ckpt")
	scope := []string{"-scale", "500000", "-max-zones", "200", "-rate", "100"}
	refHeadline, err := exec.Command(filepath.Join(binDir, "dnssec-scan"), append(scope, "-dump", ref, "-out", "headline")...).Output()
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	common := append(scope, "-checkpoint", cp, "-dump", dump, "-out", "headline")
	interrupt(t, cp, append(common, "-checkpoint-every", "4", "-concurrency", "1")...)
	ckpt, err := os.ReadFile(cp)
	if err != nil {
		t.Fatal(err)
	}
	state, err := scan.ReadCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}
	durable, err := os.ReadFile(dump)
	if err != nil || int64(len(durable)) != state.DumpBytes || state.NextIndex == 0 {
		t.Fatalf("interrupted run left a %d-byte dump (%v) under a checkpoint at zone %d covering %d bytes",
			len(durable), err, state.NextIndex, state.DumpBytes)
	}

	// Every cut below dump_bytes: 0, each record boundary and a byte
	// either side of it, and dump_bytes-1.
	cuts := map[int]bool{0: true, len(durable) - 1: true}
	for i, b := range durable {
		if b == '\n' && i+1 < len(durable) {
			for _, c := range []int{i, i + 1, i + 2} {
				cuts[c] = true
			}
		}
	}
	t.Logf("zone %d, %d bytes: %d cuts", state.NextIndex, state.DumpBytes, len(cuts))
	for cut := range cuts {
		if err := os.WriteFile(dump, durable[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		exit, msg := run(t, "dnssec-scan", append(common, "-resume", cp)...)
		if exit != 1 || !strings.Contains(msg, fmt.Sprintf("is %d bytes, shorter than the checkpoint's dump_bytes %d", cut, len(durable))) {
			t.Errorf("dump cut to %d of %d bytes: exit code %d, want 1 naming both sizes\n%s", cut, len(durable), exit, msg)
		}
		if now, err := os.ReadFile(cp); err != nil || !bytes.Equal(now, ckpt) {
			t.Fatalf("a refused resume rewrote the checkpoint (%v)", err)
		}
	}

	// Past dump_bytes: the next record as the reference wrote it, then
	// half of the one after.
	refDump, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	next := refDump[len(durable):]
	end := bytes.IndexByte(next, '\n') + 1
	end += bytes.IndexByte(next[end:], '\n') / 2
	if err := os.WriteFile(dump, append(durable, next[:end]...), 0o644); err != nil {
		t.Fatal(err)
	}
	resumed := exec.Command(filepath.Join(binDir, "dnssec-scan"), append(common, "-resume", cp)...)
	headline, err := resumed.Output()
	if err != nil || !bytes.Equal(headline, refHeadline) {
		t.Fatalf("resume over a torn tail: %v, headline\n%s\nwant\n%s", err, headline, refHeadline)
	}
	bodies := func(path string) []byte {
		out, err := exec.Command(filepath.Join(binDir, "reanalyze"), "-in", path, "-out", "body").Output()
		if err != nil {
			t.Fatalf("reanalyze %s: %v", path, err)
		}
		return out
	}
	if !bytes.Equal(bodies(dump), bodies(ref)) {
		t.Error("resumed dump bodies differ from the uninterrupted run's")
	}

	// Every strict prefix of the checkpoint document is refused, never
	// resumed from, and never panics. Each prefix gets a file of its
	// own: rewriting one file in place thousands of times is slow on
	// filesystems that flush a truncated file's data on close.
	doc := bytes.TrimRight(ckpt, "\n")
	for cut := 0; cut <= len(doc); cut++ {
		torn := filepath.Join(dir, fmt.Sprintf("torn-%d.ckpt", cut))
		if err := os.WriteFile(torn, doc[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := scan.ReadCheckpoint(torn)
		if err == nil {
			err = c.Validate(state.Seed, state.TotalZones, 0, 1, state.Config)
		}
		if err == nil {
			_, err = report.UnmarshalState(c.Aggregate)
		}
		if whole := cut == len(doc); (err == nil) != whole {
			t.Fatalf("checkpoint cut to %d of %d bytes: error %v", cut, len(doc), err)
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
					case typ == dnswire.TypeRRSIG, typ == dnswire.TypeNS && z.DelegationAt(name):
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

// TestCheckpointTempsSwept: the temporaries a kill inside
// WriteCheckpoint leaves beside the checkpoint are removed when a run
// starts, fresh or resumed; a file that only looks similar is not.
func TestCheckpointTempsSwept(t *testing.T) {
	dir := t.TempDir()
	cp := filepath.Join(dir, "scan.ckpt")
	plant := func() {
		for _, name := range []string{"scan.ckpt.tmp123", "scan.ckpt.tmp", "other.ckpt.tmp1"} {
			if err := os.WriteFile(filepath.Join(dir, name), []byte("{"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	left := func() []string {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		return names
	}
	common := []string{"-scale", "500000", "-max-zones", "40", "-out", "none"}
	for _, args := range [][]string{{"-checkpoint", cp}, {"-resume", cp}} {
		plant()
		exit, stderr := run(t, "dnssec-scan", append(common, args...)...)
		if exit != 0 {
			t.Fatalf("%v: exit code %d\n%s", args, exit, stderr)
		}
		if got := strings.Join(left(), " "); got != "other.ckpt.tmp1 scan.ckpt" {
			t.Errorf("%v left %s, want only the checkpoint and the unrelated file", args, got)
		}
		if !strings.Contains(stderr, "removed orphaned checkpoint temporary") {
			t.Errorf("%v: the sweep was not reported:\n%s", args, stderr)
		}
	}
}
