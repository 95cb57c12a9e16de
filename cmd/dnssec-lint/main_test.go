package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The command-line contract of dnssec-lint: which package patterns it
// accepts from where, what it prints and with which exit code. The
// binary is built once, in TestMain.

var bin string

func TestMain(m *testing.M) {
	os.Exit(func() int {
		dir, err := os.MkdirTemp("", "dnssec-lint-bin")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer os.RemoveAll(dir)
		bin = filepath.Join(dir, "dnssec-lint")
		if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "building dnssec-lint: %v\n%s", err, out)
			return 1
		}
		return m.Run()
	}())
}

// runLint runs the built binary in dir and returns its exit code, standard
// output and standard error.
func runLint(t *testing.T, dir string, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode(), stdout.String(), stderr.String()
	} else if err != nil {
		t.Fatalf("running dnssec-lint: %v", err)
	}
	return 0, stdout.String(), stderr.String()
}

func TestCommandLine(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	broken := t.TempDir()
	for name, text := range map[string]string{
		"go.mod": "module broken\n\ngo 1.22\n",
		"x.go":   "package broken\n\nvar N int = \"one\"\n",
	} {
		if err := os.WriteFile(filepath.Join(broken, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name   string
		dir    string
		args   []string
		exit   int
		stdout string // substring the output must contain
		stderr string // substring the diagnostics must contain
	}{
		{"the whole repository, nested module included", root, []string{"./..."}, 0, "ok (36 packages, 0 findings)", ""},
		// The command applies the repo's own scoping, under which the
		// fixture is not a deterministic package: what remains is its
		// reasonless pragma, a finding in any package.
		{"a fixture with findings", root, []string{"internal/lint/testdata/src/determ"}, 1, "determ.go:82: [pragma]", "1 finding(s) in 1 package(s)"},
		{"an unknown check", root, []string{"-checks", "nosuch", "./..."}, 2, "", `unknown check "nosuch"`},
		{"a package that does not type-check", broken, []string{"./..."}, 2, "", `cannot use "one" (untyped string constant) as int value`},
		{"root-relative from a subdirectory", filepath.Join(root, "internal/report"), []string{"./internal/scan"}, 0, "ok (1 packages, 0 findings)", ""},
		{"findings named from the root in a subdirectory", filepath.Join(root, "internal/report"), []string{"-json", "internal/lint/testdata/src/errs"}, 1,
			`{"file":"internal/lint/testdata/src/errs/errs.go","line":16,"check":"errcompare"`, ""},
		{"a bare directory", root, []string{"internal/report"}, 0, "ok (1 packages, 0 findings)", ""},
		{"unused over the whole repository", root, []string{"-checks", "unused", "./..."}, 0, "ok (36 packages, 0 findings)", ""},
		// A package's users may lie outside a partial load, so unused
		// reports nothing there rather than a false positive.
		{"unused on a partial load", root, []string{"-checks", "unused", "./internal/report"}, 0, "ok (1 packages, 0 findings)", ""},
		{"the unused fixture beside the whole tree", root, []string{"-checks", "unused", "./...", "internal/lint/testdata/src/unused"}, 1,
			"unused.go:43: [unused] Orphan is not reachable", "9 finding(s) in 37 package(s)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			exit, stdout, stderr := runLint(t, tc.dir, tc.args...)
			if exit != tc.exit {
				t.Errorf("exit code %d, want %d\n%s", exit, tc.exit, stderr)
			}
			if !strings.Contains(stdout, tc.stdout) {
				t.Errorf("stdout does not contain %q:\n%s", tc.stdout, stdout)
			}
			if !strings.Contains(stderr, tc.stderr) {
				t.Errorf("stderr does not contain %q:\n%s", tc.stderr, stderr)
			}
		})
	}
}
