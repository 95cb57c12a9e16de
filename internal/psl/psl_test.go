package psl

import "testing"

func TestPublicSuffixBasic(t *testing.T) {
	l := Default()
	cases := []struct{ name, want string }{
		{"example.com.", "com."},
		{"www.example.com.", "com."},
		{"example.co.uk.", "co.uk."},
		{"deep.example.co.uk.", "co.uk."},
		{"example.ch.", "ch."},
		{"something.unknowntld.", "unknowntld."}, // implicit * rule
	}
	for _, c := range cases {
		if got := l.PublicSuffix(c.name); got != c.want {
			t.Errorf("PublicSuffix(%q) = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestRegistrableDomain(t *testing.T) {
	l := Default()
	cases := []struct {
		name string
		want string
		ok   bool
	}{
		{"example.com.", "example.com.", true},
		{"www.example.com.", "example.com.", true},
		{"example.co.uk.", "example.co.uk.", true},
		{"a.b.example.co.uk.", "example.co.uk.", true},
		{"com.", "", false},
		{"co.uk.", "", false},
		{"uk.", "", false},
	}
	for _, c := range cases {
		got, ok := l.RegistrableDomain(c.name)
		if got != c.want || ok != c.ok {
			t.Errorf("RegistrableDomain(%q) = %q,%v want %q,%v", c.name, got, ok, c.want, c.ok)
		}
	}
}

// TestIsRegistrable pins the paper's selection criterion: a name is
// selected when it is its own registrable domain.
func TestIsRegistrable(t *testing.T) {
	l := Default()
	for name, want := range map[string]bool{"example.com.": true, "www.example.com.": false, "co.uk.": false} {
		if reg, ok := l.RegistrableDomain(name); (ok && reg == name) != want {
			t.Errorf("%s registrable = %v, want %v", name, !want, want)
		}
	}
}

// A name equal to a public suffix must never be registrable, whatever
// its spelling: dotted, undotted, uppercase, or any mix. The empty-label
// rows are the regression cases for the pre-fix bug where doubled or
// leading dots desynchronised the label arithmetic — "co.uk.." came
// back as registrable domain "." (the root) and ".co.uk" as ".co.uk.".
func TestRegistrableDomainSuffixEqualSpellings(t *testing.T) {
	l := Default()
	cases := []struct {
		name string
		want string
		ok   bool
	}{
		// Suffix-equal names in every spelling: never registrable.
		{"co.uk.", "", false},
		{"co.uk", "", false},
		{"CO.UK.", "", false},
		{"Co.Uk", "", false},
		{"uk", "", false},
		{"UK.", "", false},
		{"com", "", false},
		{"COM.", "", false},
		// One label below stays registrable in any spelling.
		{"Example.CO.UK", "example.co.uk.", true},
		{"EXAMPLE.COM.", "example.com.", true},
		// Empty-label garbage from dirty dumps: no registrable domain.
		{"", "", false},
		{".", "", false},
		{"..", "", false},
		{"co.uk..", "", false},
		{".co.uk", "", false},
		{"example..co.uk.", "", false},
		{"..example.com.", "", false},
	}
	for _, c := range cases {
		got, ok := l.RegistrableDomain(c.name)
		if got != c.want || ok != c.ok {
			t.Errorf("RegistrableDomain(%q) = %q,%v want %q,%v", c.name, got, ok, c.want, c.ok)
		}
	}
	// The malformed forms must not claim a public suffix either.
	for _, name := range []string{"co.uk..", ".co.uk", "example..com."} {
		if got := l.PublicSuffix(name); got != "." {
			t.Errorf("PublicSuffix(%q) = %q, want \".\"", name, got)
		}
	}
}

func TestWildcardAndExceptionRules(t *testing.T) {
	l := &List{rules: map[string]bool{}, wildcards: map[string]bool{}, exceptions: map[string]bool{}}
	for _, rule := range []string{"ck", "*.ck", "!www.ck"} {
		l.AddRule(rule)
	}
	if got := l.PublicSuffix("example.ck."); got != "example.ck." {
		t.Errorf("wildcard suffix = %q", got)
	}
	if got, ok := l.RegistrableDomain("foo.example.ck."); !ok || got != "foo.example.ck." {
		t.Errorf("wildcard registrable = %q,%v", got, ok)
	}
	// Exception: www.ck is registrable even though *.ck is a suffix.
	if got, ok := l.RegistrableDomain("www.ck."); !ok || got != "www.ck." {
		t.Errorf("exception registrable = %q,%v", got, ok)
	}
}
