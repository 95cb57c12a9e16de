// Package psl implements Public Suffix List matching (the Mozilla PSL
// algorithm: normal, wildcard and exception rules) and the
// registrable-domain computation the paper's domain selection relies
// on: "zones directly underneath an ICANN public suffix … e.g.
// example.com and example.co.uk, but not a.example.com" (§3).
package psl

import (
	"strings"

	"dnssecboot/internal/dnswire"
)

// List is a parsed public-suffix list.
type List struct {
	rules      map[string]bool // exact suffix rules
	wildcards  map[string]bool // "*.<base>" rules, keyed by base
	exceptions map[string]bool // "!<name>" rules
}

// AddRule inserts one PSL rule in its textual form.
func (l *List) AddRule(rule string) {
	switch {
	case strings.HasPrefix(rule, "!"):
		l.exceptions[dnswire.CanonicalName(rule[1:])] = true
	case strings.HasPrefix(rule, "*."):
		l.wildcards[dnswire.CanonicalName(rule[2:])] = true
	default:
		l.rules[dnswire.CanonicalName(rule)] = true
	}
}

// Default returns the suffix set used by the synthetic ecosystem: the
// TLDs named in the paper plus common second-level suffixes.
func Default() *List {
	l := &List{
		rules:      make(map[string]bool),
		wildcards:  make(map[string]bool),
		exceptions: make(map[string]bool),
	}
	for _, r := range []string{
		"com", "net", "org", "info", "biz", "xyz", "online", "shop", "top", "site",
		"ch", "li", "swiss", "whoswho",
		"se", "nu", "ee", "sk", "eu", "de", "nl", "bo",
		"uk", "co.uk", "org.uk", "me.uk", "ac.uk",
		"com.bo", "org.bo", "vip", "gov",
	} {
		l.AddRule(r)
	}
	return l
}

// hasEmptyLabel reports whether a split name contains an empty label —
// the residue of doubled or leading dots ("co..uk.", ".co.uk.",
// "co.uk.."). Real-world zone dumps contain such garbage; matching it
// against the rule maps would silently misalign label arithmetic and,
// pre-fix, could report the root "." as a registrable domain.
func hasEmptyLabel(labels []string) bool {
	for _, l := range labels {
		if l == "" {
			return true
		}
	}
	return false
}

// PublicSuffix returns the longest matching public suffix of name
// under the PSL algorithm. If no rule matches, the rightmost label is
// the suffix (the implicit "*" rule). Malformed names (empty labels
// from doubled or leading dots) have no suffix: the root is returned.
func (l *List) PublicSuffix(name string) string {
	name = dnswire.CanonicalName(name)
	labels := dnswire.SplitLabels(name)
	if len(labels) == 0 || hasEmptyLabel(labels) {
		return "."
	}
	best := ""
	bestLen := 0
	for i := 0; i < len(labels); i++ {
		cand := strings.Join(labels[i:], ".") + "."
		n := len(labels) - i
		if l.exceptions[cand] {
			// An exception rule matches as its own parent.
			parent := dnswire.Parent(cand)
			if n-1 > bestLen {
				best, bestLen = parent, n-1
			}
			continue
		}
		if l.rules[cand] && n > bestLen {
			best, bestLen = cand, n
		}
		// Wildcard "*.<base>": matches <label>.<base>.
		if i+1 < len(labels) {
			base := strings.Join(labels[i+1:], ".") + "."
			if l.wildcards[base] && !l.exceptions[cand] && n > bestLen {
				best, bestLen = cand, n
			}
		}
	}
	if best == "" {
		best = labels[len(labels)-1] + "."
	}
	return best
}

// RegistrableDomain returns the registrable domain of name: one label
// below its public suffix. ok is false if name is itself a public
// suffix (or shorter), in any of its dotted, undotted or uppercase
// spellings, and for malformed names containing empty labels.
func (l *List) RegistrableDomain(name string) (string, bool) {
	name = dnswire.CanonicalName(name)
	labels := dnswire.SplitLabels(name)
	if len(labels) == 0 || hasEmptyLabel(labels) {
		return "", false
	}
	suffix := l.PublicSuffix(name)
	if name == suffix {
		return "", false
	}
	sufLabels := dnswire.CountLabels(suffix)
	if len(labels) <= sufLabels {
		return "", false
	}
	return strings.Join(labels[len(labels)-sufLabels-1:], ".") + ".", true
}
