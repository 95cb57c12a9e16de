package dnswire

import (
	"cmp"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestCanonicalName(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", "."},
		{".", "."},
		{"Example.COM", "example.com."},
		{"example.com.", "example.com."},
		{"_dsboot.example.co.uk._signal.ns1.example.net", "_dsboot.example.co.uk._signal.ns1.example.net."},
	}
	for _, c := range cases {
		if got := CanonicalName(c.in); got != c.want {
			t.Errorf("CanonicalName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestSplitCountLabels(t *testing.T) {
	if got := SplitLabels("."); got != nil {
		t.Errorf("SplitLabels(.) = %v, want nil", got)
	}
	got := SplitLabels("a.b.example.com.")
	want := []string{"a", "b", "example", "com"}
	if len(got) != len(want) {
		t.Fatalf("SplitLabels = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("label %d = %q, want %q", i, got[i], want[i])
		}
	}
	if CountLabels("example.com.") != 2 {
		t.Error("CountLabels(example.com.) != 2")
	}
	if CountLabels(".") != 0 {
		t.Error("CountLabels(.) != 0")
	}
}

func TestParent(t *testing.T) {
	cases := []struct{ in, want string }{
		{"www.example.com.", "example.com."},
		{"com.", "."},
		{".", "."},
	}
	for _, c := range cases {
		if got := Parent(c.in); got != c.want {
			t.Errorf("Parent(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestIsSubdomain(t *testing.T) {
	cases := []struct {
		child, parent string
		want          bool
	}{
		{"www.example.com.", "example.com.", true},
		{"example.com.", "example.com.", true},
		{"example.com.", ".", true},
		{"badexample.com.", "example.com.", false},
		{"com.", "example.com.", false},
		{"EXAMPLE.com", "example.COM.", true},
	}
	for _, c := range cases {
		if got := IsSubdomain(c.child, c.parent); got != c.want {
			t.Errorf("IsSubdomain(%q, %q) = %v, want %v", c.child, c.parent, got, c.want)
		}
	}
}

func TestJoin(t *testing.T) {
	if got := Join("_dsboot", "example.com."); got != "_dsboot.example.com." {
		t.Errorf("Join = %q", got)
	}
	if got := Join("_signal", "."); got != "_signal." {
		t.Errorf("Join root = %q", got)
	}
}

func TestNameWireLength(t *testing.T) {
	if n, err := NameWireLength("."); err != nil || n != 1 {
		t.Errorf("root length = %d, %v", n, err)
	}
	if n, err := NameWireLength("example.com."); err != nil || n != 13 {
		t.Errorf("example.com. length = %d, %v", n, err)
	}
	long := strings.Repeat("a", 64) + ".com."
	if _, err := NameWireLength(long); err != ErrLabelTooLong {
		t.Errorf("long label err = %v", err)
	}
	var sb strings.Builder
	for i := 0; i < 60; i++ {
		sb.WriteString("abcd.")
	}
	if _, err := NameWireLength(sb.String()); err != ErrNameTooLong {
		t.Errorf("long name err = %v", err)
	}
	if _, err := NameWireLength("a..b."); err != ErrEmptyLabel {
		t.Errorf("empty label err = %v", err)
	}
}

func TestPackUnpackNameRoundTrip(t *testing.T) {
	names := []string{
		".", "com.", "example.com.", "a.very.deep.name.example.org.",
		"_dsboot.example.co.uk._signal.ns1.example.net.",
	}
	for _, n := range names {
		buf, err := packName(nil, n, nil)
		if err != nil {
			t.Fatalf("packName(%q): %v", n, err)
		}
		got, off, err := unpackName(buf, 0)
		if err != nil {
			t.Fatalf("unpackName(%q): %v", n, err)
		}
		if got != n {
			t.Errorf("round trip %q -> %q", n, got)
		}
		if off != len(buf) {
			t.Errorf("offset after %q = %d, want %d", n, off, len(buf))
		}
	}
}

func TestPackNameLowercases(t *testing.T) {
	buf, err := packName(nil, "ExAmPlE.CoM.", nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := unpackName(buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != "example.com." {
		t.Errorf("got %q", got)
	}
}

func TestNameCompression(t *testing.T) {
	var table compTable
	buf, err := packName(nil, "example.com.", &table)
	if err != nil {
		t.Fatal(err)
	}
	plain := len(buf)
	buf, err = packName(buf, "www.example.com.", &table)
	if err != nil {
		t.Fatal(err)
	}
	// Second name should be 4+1 label bytes + 2 pointer bytes = 6.
	if len(buf)-plain != 6 {
		t.Errorf("compressed encoding length = %d, want 6", len(buf)-plain)
	}
	n1, off, err := unpackName(buf, 0)
	if err != nil || n1 != "example.com." {
		t.Fatalf("first: %q %v", n1, err)
	}
	n2, _, err := unpackName(buf, off)
	if err != nil || n2 != "www.example.com." {
		t.Fatalf("second: %q %v", n2, err)
	}
}

func TestUnpackNameRejectsForwardPointer(t *testing.T) {
	// Pointer at offset 0 pointing to itself.
	if _, _, err := unpackName([]byte{0xC0, 0x00}, 0); err == nil {
		t.Error("self-pointer accepted")
	}
	// Pointer pointing forward.
	msg := []byte{0xC0, 0x04, 0, 0, 3, 'c', 'o', 'm', 0}
	if _, _, err := unpackName(msg, 0); err == nil {
		t.Error("forward pointer accepted")
	}
}

func TestUnpackNameTruncated(t *testing.T) {
	inputs := [][]byte{
		{},
		{3, 'c', 'o'},
		{0xC0},
	}
	for _, in := range inputs {
		if _, _, err := unpackName(in, 0); err == nil {
			t.Errorf("truncated input %v accepted", in)
		}
	}
}

// TestUnpackRejectsDotInLabel: the one-label wire name \005x.com\000
// must not decode as the two-label name x.com., in a bare name or as
// the question of a response.
func TestUnpackRejectsDotInLabel(t *testing.T) {
	name := []byte{5, 'x', '.', 'c', 'o', 'm', 0}
	if got, _, err := unpackName(name, 0); !errors.Is(err, ErrDotInLabel) {
		t.Errorf("unpackName = %q, %v; want ErrDotInLabel", got, err)
	}
	msg := append([]byte{0, 1, 0x80, 0, 0, 1, 0, 0, 0, 0, 0, 0}, name...)
	msg = append(msg, 0, byte(TypeA), 0, byte(ClassIN))
	if m, err := Unpack(msg); !errors.Is(err, ErrDotInLabel) {
		t.Errorf("Unpack accepted a dotted label: %v, %v", m, err)
	}
}

func TestCanonicalNameLess(t *testing.T) {
	// RFC 4034 §6.1 example ordering.
	ordered := []string{
		"example.",
		"a.example.",
		"yljkjljk.a.example.",
		"z.a.example.",
		"zabc.a.example.",
		"z.example.",
	}
	for i := 0; i < len(ordered)-1; i++ {
		if !CanonicalNameLess(ordered[i], ordered[i+1]) {
			t.Errorf("%q should sort before %q", ordered[i], ordered[i+1])
		}
		if CanonicalNameLess(ordered[i+1], ordered[i]) {
			t.Errorf("%q should not sort before %q", ordered[i+1], ordered[i])
		}
	}
	if CanonicalNameLess("example.", "example.") {
		t.Error("name less than itself")
	}
}

// The in-place comparison must agree with the splitting one it
// replaced on every input, including the corners: empty labels, names
// with and without (or with several) trailing dots, "" and ".", labels
// that look like separators ("-"), mixed case, non-ASCII bytes, and
// labels that end alike ("ab", "b"), so names share a tail that does
// not start at a label boundary.
func TestCanonicalNameLessMatchesSplit(t *testing.T) {
	labels := []string{"a", "B", "z", "Z", "-", "0", "", ".", "é", "xn--", "aa", "Ab", "É", "\xff", "b", "ab"}
	rng := rand.New(rand.NewSource(1))
	name := func() string {
		var sb strings.Builder
		for n := rng.Intn(5); n > 0; n-- {
			sb.WriteString(labels[rng.Intn(len(labels))])
			if n > 1 {
				sb.WriteByte('.')
			}
		}
		sb.WriteString(strings.Repeat(".", rng.Intn(3))) // 0, 1 or 2 trailing dots
		return sb.String()
	}
	pairs := 1_000_000
	if testing.Short() {
		pairs = 50_000
	}
	for range pairs {
		a, b := name(), name()
		want := canonicalNameCompareSplit(a, b)
		if got := CanonicalNameLess(a, b); got != (want < 0) {
			t.Fatalf("CanonicalNameLess(%q, %q) = %v, split version says %v", a, b, got, want < 0)
		}
		if got := CanonicalNameCompare(a, b); cmp.Compare(got, 0) != want {
			t.Fatalf("CanonicalNameCompare(%q, %q) = %d, split version says %d", a, b, got, want)
		}
	}
}

func TestNameRoundTripProperty(t *testing.T) {
	f := func(labels [][]byte) bool {
		// Construct a plausible name from the fuzz input.
		var parts []string
		total := 0
		for _, l := range labels {
			if len(l) == 0 {
				continue
			}
			if len(l) > 20 {
				l = l[:20]
			}
			s := make([]byte, 0, len(l))
			for _, c := range l {
				c = 'a' + c%26
				s = append(s, c)
			}
			total += len(s) + 1
			if total > 200 {
				break
			}
			parts = append(parts, string(s))
		}
		name := CanonicalName(strings.Join(parts, "."))
		buf, err := packName(nil, name, nil)
		if err != nil {
			return false
		}
		got, _, err := unpackName(buf, 0)
		return err == nil && got == name
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestCanonicalNameWordScan: the word-at-a-time check of an already
// canonical name agrees with a byte-by-byte one for every byte value at
// every offset of names 1 to 24 bytes long.
func TestCanonicalNameWordScan(t *testing.T) {
	bytewise := func(s string) bool {
		for i := 0; i < len(s); i++ {
			if c := s[i]; c >= 0x80 || 'A' <= c && c <= 'Z' {
				return false
			}
		}
		return s[len(s)-1] == '.'
	}
	for n := 1; n <= 24; n++ {
		for at := 0; at < n; at++ {
			for c := 0; c < 256; c++ {
				b := []byte(strings.Repeat("a", n-1) + ".")
				b[at] = byte(c)
				if s := string(b); isCanonicalASCII(s) != bytewise(s) {
					t.Fatalf("isCanonicalASCII(%q) = %v", s, !bytewise(s))
				}
			}
		}
	}
}
