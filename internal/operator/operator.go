// Package operator identifies the DNS operator of a domain from the
// hostnames of its authoritative nameservers, the methodology of §3
// ("Identifying the DNS Operator"): suffix matching on NS hostnames,
// with white-label aliases folded into their true operator (e.g. the
// seized.gov NSes are rebranded Cloudflare).
package operator

import (
	"slices"
	"sort"
	"sync"

	"dnssecboot/internal/dnswire"
)

// Unknown is returned when no rule matches or the match is ambiguous.
const Unknown = "Unknown"

// Identifier maps NS hostname suffixes to operator names.
type Identifier struct {
	mu       sync.RWMutex
	suffixes map[string]string // NS suffix -> operator
}

// New returns an empty identifier.
func New() *Identifier {
	return &Identifier{suffixes: make(map[string]string)}
}

// AddSuffix registers: any NS hostname ending in suffix belongs to
// operator. The suffix is matched on whole labels.
func (id *Identifier) AddSuffix(suffix, operator string) {
	id.mu.Lock()
	defer id.mu.Unlock()
	id.suffixes[dnswire.CanonicalName(suffix)] = operator
}

// OperatorOfHost returns the operator owning one NS hostname.
func (id *Identifier) OperatorOfHost(host string) string {
	host = dnswire.CanonicalName(host)
	id.mu.RLock()
	defer id.mu.RUnlock()
	// Longest-suffix match so white-label rules can override broader
	// ones.
	for name := host; name != "."; name = dnswire.Parent(name) {
		if op, ok := id.suffixes[name]; ok {
			return op
		}
	}
	return Unknown
}

// Result describes the operator determination for a domain.
type Result struct {
	// Operator is the single operator, or Unknown.
	Operator string
	// MultiOperator is true when the NS set spans more than one
	// identified operator (RFC 8901 multi-signer setups; the paper
	// found these behind most CDS inconsistencies).
	MultiOperator bool
	// Operators lists every distinct identified operator, sorted, when
	// there is more than one (MultiOperator).
	Operators []string
}

// Identify determines the operator(s) for a domain's NS host set. Hosts
// no rule matches are left out: a set of one identified operator and
// unknown hosts is attributed to that operator (conservative, as the
// paper tags ambiguous cases Unknown only when nothing matches).
func (id *Identifier) Identify(nsHosts []string) Result {
	first := ""
	var ops []string // made only for a second operator
	for _, h := range nsHosts {
		switch op := id.OperatorOfHost(h); {
		case op == Unknown || op == first || slices.Contains(ops, op):
		case first == "":
			first = op
		default:
			if ops == nil {
				ops = []string{first}
			}
			ops = append(ops, op)
		}
	}
	switch {
	case first == "":
		return Result{Operator: Unknown}
	case ops == nil:
		return Result{Operator: first}
	}
	sort.Strings(ops)
	return Result{Operator: ops[0], MultiOperator: true, Operators: ops}
}

// Default returns an identifier preloaded with the operators the
// paper's tables name, keyed by their characteristic NS suffixes.
func Default() *Identifier {
	id := New()
	for suffix, op := range map[string]string{
		"domaincontrol.com.":    "GoDaddy",
		"ns.cloudflare.com.":    "Cloudflare",
		"seized.gov.":           "Cloudflare", // white-label: US Gov seizure pages
		"registrar-servers.com": "Namecheap",
		"googledomains.com.":    "Google Domains",
		"wixdns.net.":           "WIX",
		"dns-parking.com.":      "Hostinger",
		"afternic.com.":         "AfterNIC",
		"hichina.com.":          "HiChina",
		"awsdns.com.":           "AWS",
		"awsdns.org.":           "AWS",
		"awsdns.net.":           "AWS",
		"awsdns.co.uk.":         "AWS",
		"gname-dns.com.":        "GName",
		"namebrightdns.com.":    "NameBright",
		"squarespacedns.com.":   "SquareSpace",
		"ovh.net.":              "OVH",
		"sedoparking.com.":      "Sedo",
		"bluehost.com.":         "BlueHost",
		"namesilo.com.":         "NameSilo",
		"alidns.com.":           "Alibaba",
		"dynadot.com.":          "DynaDot",
		"wordpress.com.":        "Wordpress",
		"siteground.net.":       "SiteGround",
		"desec.io.":             "deSEC",
		"desec.org.":            "deSEC",
		"glauca.digital.":       "Glauca Digital",
		"simply.com.":           "Simply.com",
		"cyon.ch.":              "cyon",
		"gransy.com.":           "Gransy",
		"metanet.ch.":           "METANET",
		"porkbun.com.":          "Porkbun",
		"netim.net.":            "netim",
		"gandi.net.":            "Gandi",
		"webland.ch.":           "Webland",
		"green.ch.":             "green.ch",
		"webhouse.sk.":          "WebHouse",
		"v3hosting.ch.":         "V3 Hosting",
		"hostfactory.ch.":       "HostFactory",
		"inwx.de.":              "INWX",
		"openprovider.nl.":      "OpenProvider",
		"awardic.se.":           "AWARDIC",
		"3dns.box.":             "3DNS",
		"one.com.":              "One.com",
		"51dns.com.":            "51DNS",
		"verisign-grs.com.":     "Verisign",
		"namefind.com.":         "AfterNIC", // Afternic parking NSes
		// Stand-in suffixes used by the synthetic ecosystem for
		// populations the paper describes without naming an operator.
		"multisigner.net.":               "MultiSigner",
		"partnerdns.org.":                "PartnerDNS",
		"signal-misc.net.":               "SignalMisc",
		"ancient-dns.net.":               "LegacyDNS",
		"various-hosting.net.":           "OtherDNS",
		"canaldominios.example-isp.com.": "Canal Dominios",
	} {
		id.AddSuffix(suffix, op)
	}
	return id
}
