// Package scan implements the measurement engine of the reproduction —
// the equivalent of the YoDNS scanner the paper uses (§3). For each
// target zone it resolves the full dependency tree, queries every
// authoritative nameserver for CDS/CDNSKEY records, collects the
// DNSSEC material (DS at the parent, DNSKEY, RRSIGs), probes the
// RFC 9615 signalling names under every nameserver, and validates
// DNSSEC chains. Its output, ZoneObservation, is the input to
// internal/classify.
package scan

import (
	"net/netip"
	"slices"

	"dnssecboot/internal/dnswire"
)

// Outcome describes how a single query attempt ended.
//
// lint:exhaustive — switches over Outcome must cover every constant.
type Outcome int

// Query outcomes.
const (
	// OutcomeOK: an answer with records.
	OutcomeOK Outcome = iota
	// OutcomeNoData: NOERROR with an empty answer (type absent).
	OutcomeNoData
	// OutcomeNXDomain: the name does not exist.
	OutcomeNXDomain
	// OutcomeError: the server returned an error rcode (FORMERR,
	// SERVFAIL, REFUSED, NOTIMP) — the paper's "failed … or returned an
	// error response, when queried about these RRs".
	OutcomeError
	// OutcomeTimeout: no response.
	OutcomeTimeout
	// OutcomeUnreachable: no route / connection refused.
	OutcomeUnreachable
)

// String renders the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeOK:
		return "ok"
	case OutcomeNoData:
		return "nodata"
	case OutcomeNXDomain:
		return "nxdomain"
	case OutcomeError:
		return "error"
	case OutcomeTimeout:
		return "timeout"
	case OutcomeUnreachable:
		return "unreachable"
	}
	return "unknown"
}

// Failed reports whether the outcome is a server failure (as opposed
// to a well-formed negative answer).
func (o Outcome) Failed() bool {
	return o == OutcomeError || o == OutcomeTimeout || o == OutcomeUnreachable
}

// NSObservation is the per-nameserver view of a zone's CDS records.
type NSObservation struct {
	// Host is the NS hostname; Addr the specific address queried.
	Host string
	Addr netip.Addr
	// CDS and CDNSKEY are the child-published sets returned by this
	// server, with their RRSIGs.
	CDS         []dnswire.RR
	CDNSKEY     []dnswire.RR
	CDSSigs     []dnswire.RR
	CDNSKEYSigs []dnswire.RR
	// CDSOutcome and CDNSKEYOutcome record how the queries ended.
	CDSOutcome     Outcome
	CDNSKEYOutcome Outcome
}

// CombinedCDS returns the CDS and CDNSKEY records together, the unit
// the paper calls "CDS" for brevity (§2).
func (n *NSObservation) CombinedCDS() []dnswire.RR {
	out := append([]dnswire.RR(nil), n.CDS...)
	return append(out, n.CDNSKEY...)
}

// SignalObservation is the view of one RFC 9615 signalling name
// (_dsboot.<child>._signal.<ns>) for one nameserver of the child.
type SignalObservation struct {
	// NSHost is the child nameserver whose signalling name was probed.
	NSHost string
	// Owner is the full signalling name.
	Owner string
	// Records are the CDS/CDNSKEY records found there; Sigs their
	// RRSIGs.
	Records []dnswire.RR
	Sigs    []dnswire.RR
	// Outcome is the aggregate of the two lookups: the worst failure
	// wins, so a probe whose CDS succeeded but whose CDNSKEY timed out
	// reports the timeout rather than masking it.
	Outcome Outcome
	// CDSOutcome and CDNSKEYOutcome record how each lookup ended
	// individually — a signal zone publishing only one of the two types
	// legitimately shows OK alongside NoData.
	CDSOutcome     Outcome
	CDNSKEYOutcome Outcome
	// NameTooLong is set when the signalling name exceeds the 255-octet
	// limit and could not be queried at all (§2 limitations).
	NameTooLong bool
	// Secure is set when the records validated under a full DNSSEC
	// chain from the root; ValidationErr carries the failure otherwise.
	Secure        bool
	ValidationErr string
	// ZoneCut is set when a zone cut was detected between the signal
	// zone apex and the record owner, which RFC 9615 forbids.
	ZoneCut bool
}

// ZoneObservation aggregates everything the scanner learned about one
// target zone.
type ZoneObservation struct {
	// Zone is the scanned apex.
	Zone string
	// ResolveErr is non-empty when the zone failed to resolve entirely
	// (excluded from the paper's population, §4.1).
	ResolveErr string

	// ParentZone is the delegating zone (the TLD for our targets).
	ParentZone string
	// ParentNS is the delegation NS set as served by the parent;
	// ChildNS the apex NS set as served by the child.
	ParentNS []string
	ChildNS  []string

	// DS is the DS RRset at the parent with signatures.
	DS     []dnswire.RR
	DSSigs []dnswire.RR
	// DNSKEY is the child apex key set with signatures.
	DNSKEY     []dnswire.RR
	DNSKEYSigs []dnswire.RR

	// ChainValid is set when DS→DNSKEY→SOA validation succeeded;
	// ChainErr carries the failure otherwise. Only meaningful when both
	// DS and DNSKEY are non-empty.
	ChainValid bool
	ChainErr   string

	// PerNS holds the per-nameserver CDS observations (one entry per
	// (host, address) pair actually queried).
	PerNS []NSObservation
	// SampledNS is true when only a subset of this zone's nameserver
	// addresses was queried (the Cloudflare optimisation, §3).
	SampledNS bool

	// Signals holds the RFC 9615 probes, one per child NS host.
	Signals []SignalObservation

	// Cost is what the scan of this zone spent. Unlike every field
	// above it depends on what the resolver had cached when the zone's
	// turn came, and therefore on concurrency, shard layout and resume
	// points.
	Cost

	// allNS is AllNSHosts as the scan computed it, kept so the
	// classifier does not compute it again; nil when not computed.
	allNS []string
}

// Cost is the per-zone query accounting. It is exported as the last
// member of a JSONL record, so that the deterministic part of the line
// — the body, see Body — is everything before it.
type Cost struct {
	// Queries is the number of DNS queries this zone's scan consumed
	// (Appendix D accounting), including retry attempts.
	Queries int64 `json:"queries"`
	// Retries is how many of those queries were retry attempts after a
	// transient failure; GaveUp counts exchanges that exhausted every
	// attempt. Both stay zero when the resolver runs without a retry
	// policy.
	Retries int64 `json:"retries,omitempty"`
	GaveUp  int64 `json:"gave_up,omitempty"`
	// CacheHits, CacheMisses and Coalesced account this zone's use of
	// the resolver's cache and singleflight layer.
	CacheHits   int64 `json:"cache_hits,omitempty"`
	CacheMisses int64 `json:"cache_misses,omitempty"`
	Coalesced   int64 `json:"coalesced,omitempty"`
}

// Add sums o into c: the roll-up of many zones' costs, which are
// independent per zone.
func (c *Cost) Add(o Cost) {
	c.Queries += o.Queries
	c.Retries += o.Retries
	c.GaveUp += o.GaveUp
	c.CacheHits += o.CacheHits
	c.CacheMisses += o.CacheMisses
	c.Coalesced += o.Coalesced
}

// AllNSHosts returns the union of parent- and child-side NS hostnames,
// canonical, in first-seen order. The result is shared with the scan
// that computed it: callers must not modify it.
func (z *ZoneObservation) AllNSHosts() []string {
	if z.allNS != nil {
		return z.allNS
	}
	n := len(z.ParentNS) + len(z.ChildNS)
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	for _, set := range [2][]string{z.ParentNS, z.ChildNS} {
		for _, h := range set {
			if h = dnswire.CanonicalName(h); !slices.Contains(out, h) {
				out = append(out, h)
			}
		}
	}
	return out
}

// IsSigned reports whether the child publishes a DNSKEY RRset.
func (z *ZoneObservation) IsSigned() bool { return len(z.DNSKEY) > 0 }

// HasDS reports whether the parent serves a DS RRset.
func (z *ZoneObservation) HasDS() bool { return len(z.DS) > 0 }
