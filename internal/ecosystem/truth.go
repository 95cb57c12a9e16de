// Package ecosystem generates a deterministic synthetic Internet
// reproducing the population the paper measured: a signed root, signed
// TLD registries, the top-20 DNS operators of Table 1 with their
// DNSSEC-status mix, the CDS publishers of Table 2, the three
// Authenticated-Bootstrapping operators of Table 3 (Cloudflare, deSEC,
// Glauca Digital) complete with RFC 9615 signal zones, and every
// anomaly class §4 reports (errant DS, CDS in unsigned zones,
// CDS-delete islands, multi-operator inconsistencies, legacy servers
// that error on CDS queries, parking servers that fake zone cuts,
// corrupt and expired signal signatures).
//
// Everything is seeded: the same Config yields byte-identical zone
// content, and all counts scale by Config.ScaleDivisor while keeping
// each phenomenon present (counts round up to at least one).
package ecosystem

// State is a zone's ground-truth DNSSEC status.
//
// lint:exhaustive — switches over State must cover every constant.
type State int

// Zone states, matching the paper's §4.1 classification.
const (
	// StateUnsigned: no DNSKEY, no DS.
	StateUnsigned State = iota
	// StateSecured: signed, DS at parent, chain valid.
	StateSecured
	// StateInvalid: fails validation (expired signatures with DS, or
	// errant DS above an unsigned zone).
	StateInvalid
	// StateIsland: signed and internally valid but no DS at the parent.
	StateIsland
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateUnsigned:
		return "unsigned"
	case StateSecured:
		return "secured"
	case StateInvalid:
		return "invalid"
	case StateIsland:
		return "island"
	}
	return "?"
}

// CDSMode is the ground-truth CDS/CDNSKEY publication of a zone.
//
// lint:exhaustive — switches over CDSMode must cover every constant.
type CDSMode int

// CDS modes.
const (
	// CDSNone: no CDS records.
	CDSNone CDSMode = iota
	// CDSMatch: CDS matching the zone's KSK (the correct setup).
	CDSMatch
	// CDSDelete: the RFC 8078 §4 deletion request.
	CDSDelete
	// CDSOrphan: CDS pointing at a key not in the zone (§4.2's
	// "did not correspond with any DNSKEY").
	CDSOrphan
	// CDSBadSig: matching CDS whose RRSIG is corrupted (§4.2's "invalid
	// DNSSEC signatures over their CDS").
	CDSBadSig
)

// String names the mode.
func (m CDSMode) String() string {
	switch m {
	case CDSNone:
		return "none"
	case CDSMatch:
		return "match"
	case CDSDelete:
		return "delete"
	case CDSOrphan:
		return "orphan"
	case CDSBadSig:
		return "badsig"
	}
	return "?"
}

// SignalAnomaly marks an injected RFC 9615 signal-zone defect.
//
// lint:exhaustive — switches over SignalAnomaly must cover every constant.
type SignalAnomaly int

// Signal anomalies from §4.4.
const (
	// SigOK: no anomaly.
	SigOK SignalAnomaly = iota
	// SigMissingOneNS: signal records absent under one of the NSes.
	SigMissingOneNS
	// SigNSMismatch: the child's believed NS set differs from the
	// TLD's, and signals exist only under the child's view (the
	// Cloudflare synthesis gap).
	SigNSMismatch
	// SigZoneCut: a spurious zone cut inside the signal path (the
	// copacabana / Afternic parking case).
	SigZoneCut
	// SigBadSig: signal records present but with corrupted RRSIGs.
	SigBadSig
	// SigExpiredSig: signal records signed with expired signatures.
	SigExpiredSig
	// SigUnsignedZone: the signal zone carries no DNSSEC at all.
	SigUnsignedZone
)

// String names the anomaly.
func (a SignalAnomaly) String() string {
	switch a {
	case SigOK:
		return "ok"
	case SigMissingOneNS:
		return "missing-one-ns"
	case SigNSMismatch:
		return "ns-mismatch"
	case SigZoneCut:
		return "zone-cut"
	case SigBadSig:
		return "bad-sig"
	case SigExpiredSig:
		return "expired-sig"
	case SigUnsignedZone:
		return "unsigned-zone"
	}
	return "?"
}

// ZoneSpec fully determines one synthetic zone.
type ZoneSpec struct {
	State State
	// ErrantDS marks the unsigned-zone-with-DS variant of StateInvalid
	// (operators that "do not offer DNSSEC at all; the small percentage
	// … with invalid DNSSEC is due to errant DS records", §4.1).
	ErrantDS bool
	CDS      CDSMode
	// CDSInconsistent makes different NSes serve different CDS sets.
	CDSInconsistent bool
	// MultiOperator co-hosts the zone on the named second operator.
	MultiOperator string
	// Signal publishes RFC 9615 signalling records.
	Signal bool
	// SignalAnomaly selects an injected defect.
	SignalAnomaly SignalAnomaly
	// ParkingNS appends a typo nameserver resolving to a domain-parking
	// service (the zone-cut illusion).
	ParkingNS bool
}

// Segment is a batch of identical zones within an operator profile.
type Segment struct {
	// N is the unscaled (paper-level) zone count.
	N int
	// Spec describes every zone in the segment.
	Spec ZoneSpec
}

// Truth is the generator's ground truth for a zone, used by tests to
// check that the measurement pipeline rediscovers what was planted. The
// zone's name is its key in Ecosystem.Truth; zones of one operator,
// registry and spec share one Truth.
type Truth struct {
	Operator string
	TLD      string
	Spec     ZoneSpec
}
