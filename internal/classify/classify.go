// Package classify turns raw scanner observations into the categories
// the paper reports: the DNSSEC deployment status of §4.1 (unsigned /
// secured / invalid / secure island), the CDS deployment and
// correctness analysis of §4.2, the bootstrapping-potential breakdown
// of Figure 1 (§4.3), and the Authenticated-Bootstrapping status
// ladder of §4.4 / Table 3, including every RFC 9615 signal-zone
// requirement.
package classify

import (
	"time"

	"dnssecboot/internal/dnssec"
	"dnssecboot/internal/dnswire"
	"dnssecboot/internal/operator"
	"dnssecboot/internal/scan"
)

// Status is a zone's DNSSEC deployment status (§4.1).
//
// lint:exhaustive — switches over Status must cover every constant.
type Status int

// Statuses.
const (
	// StatusUnresolved: the zone failed to resolve entirely and is
	// excluded from the population.
	StatusUnresolved Status = iota
	// StatusUnsigned: no DNSKEY and no DS.
	StatusUnsigned
	// StatusSecured: DS and DNSKEY present, chain validates.
	StatusSecured
	// StatusInvalid: DS present but validation fails (expired or
	// missing signatures, errant DS, key mismatch).
	StatusInvalid
	// StatusIsland: signed and internally valid, but no DS at the
	// parent ("secure island").
	StatusIsland
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusUnresolved:
		return "unresolved"
	case StatusUnsigned:
		return "unsigned"
	case StatusSecured:
		return "secured"
	case StatusInvalid:
		return "invalid"
	case StatusIsland:
		return "island"
	}
	return "?"
}

// CDSInfo is the §4.2 view of a zone's CDS/CDNSKEY publication.
type CDSInfo struct {
	// Present: at least one nameserver served CDS or CDNSKEY records.
	Present bool `json:"present"`
	// QueryFailed: at least one nameserver failed the CDS query with an
	// error/timeout (the pre-RFC 3597 behaviour, 7.6 M domains).
	QueryFailed bool `json:"query_failed"`
	// Consistent: every nameserver that answered returned the same
	// records.
	Consistent bool `json:"consistent"`
	// Delete: the (consistent) content is an RFC 8078 deletion request.
	Delete bool `json:"delete"`
	// MatchesDNSKEY: every non-delete CDS corresponds to a DNSKEY
	// actually present in the zone.
	MatchesDNSKEY bool `json:"matches_dnskey"`
	// SigValid: the RRSIGs over the in-zone CDS verify under the zone's
	// keys. Only meaningful when the zone is signed and CDS present.
	SigValid bool `json:"sig_valid"`
	// InUnsignedZone: CDS served although the zone has no DNSKEY
	// (a misconfiguration; 2 854 zones in the paper).
	InUnsignedZone bool `json:"in_unsigned_zone"`
	// Records is the canonical (first answering NS) CDS+CDNSKEY set.
	// The tags name the findings in `reanalyze -out explain`, which
	// leaves the records out.
	Records []dnswire.RR `json:"-"`
}

// Potential is the Figure-1 bootstrapping-possibility bucket.
//
// lint:exhaustive — switches over Potential must cover every constant.
type Potential int

// Figure-1 buckets.
const (
	// PotentialNone: unsigned zone — nothing to bootstrap.
	PotentialNone Potential = iota
	// PotentialAlreadySecured: chain already complete.
	PotentialAlreadySecured
	// PotentialInvalidDNSSEC: zone fails validation.
	PotentialInvalidDNSSEC
	// PotentialIslandNoCDS: island without CDS records.
	PotentialIslandNoCDS
	// PotentialIslandInvalidCDS: island whose CDS does not match its
	// DNSKEYs (or fails its signature / consistency checks).
	PotentialIslandInvalidCDS
	// PotentialIslandDelete: island publishing a deletion request.
	PotentialIslandDelete
	// PotentialBootstrap: island with valid, consistent CDS — the
	// population AB can secure.
	PotentialBootstrap
)

// String names the bucket.
func (p Potential) String() string {
	switch p {
	case PotentialNone:
		return "without DNSSEC"
	case PotentialAlreadySecured:
		return "already secured"
	case PotentialInvalidDNSSEC:
		return "invalid DNSSEC"
	case PotentialIslandNoCDS:
		return "island without CDS"
	case PotentialIslandInvalidCDS:
		return "island with invalid CDS"
	case PotentialIslandDelete:
		return "island with CDS delete"
	case PotentialBootstrap:
		return "possible to bootstrap"
	}
	return "?"
}

// Potentials lists every Figure-1 bucket, in the order the figure1 CSV
// series writes them.
var Potentials = []Potential{
	PotentialNone, PotentialAlreadySecured, PotentialInvalidDNSSEC,
	PotentialIslandNoCDS, PotentialIslandInvalidCDS, PotentialIslandDelete,
	PotentialBootstrap,
}

// SignalViolation is one way a zone's RFC 9615 signalling fails.
type SignalViolation string

// Signal violations (§4.4).
const (
	ViolationMissingUnderNS SignalViolation = "signal missing under some NS"
	ViolationZoneCut        SignalViolation = "zone cut inside signal zone"
	ViolationInsecure       SignalViolation = "signal records not DNSSEC-secure"
	ViolationMismatch       SignalViolation = "signal records differ from in-zone CDS"
	ViolationNameTooLong    SignalViolation = "signalling name exceeds 255 octets"
)

// SignalInfo is the §4.4 / Table 3 ladder for one zone.
type SignalInfo struct {
	// Probed is false when the scan did not query signalling names.
	Probed bool
	// HasSignal: signalling records exist under at least one NS.
	HasSignal bool
	// AlreadySecured / DeletionRequest / InvalidDNSSEC are the
	// cannot-benefit buckets of Table 3.
	AlreadySecured  bool
	DeletionRequest bool
	InvalidDNSSEC   bool
	// Potential: a secure island with usable CDS and some signal RR.
	Potential bool
	// Correct: Potential and every RFC 9615 requirement holds.
	Correct bool
	// Violations lists the failed requirements for Potential zones.
	Violations []SignalViolation
}

// Result is the full classification of one zone.
type Result struct {
	Zone string
	// Parent is the zone that delegates Zone, where its DS is (or is
	// not) published; empty when the delegation was not found.
	Parent   string
	Status   Status
	Operator operator.Result
	CDS      CDSInfo
	Bucket   Potential
	Signal   SignalInfo
	// Cost is carried over from the observation: the Appendix D query
	// accounting, the resilience counters and the shared-cache
	// accounting. Result is never marshalled.
	scan.Cost
}

// Classifier holds shared configuration.
type Classifier struct {
	// Operators identifies DNS operators from NS hostnames.
	Operators *operator.Identifier
	// Now anchors signature validity checks.
	Now time.Time
}

// New builds a Classifier with the default operator rules.
func New(now time.Time) *Classifier {
	return &Classifier{Operators: operator.Default(), Now: now}
}

// Classify processes one observation.
func (c *Classifier) Classify(o *scan.ZoneObservation) *Result {
	r := &Result{Zone: o.Zone, Parent: o.ParentZone, Cost: o.Cost}
	if o.ResolveErr != "" {
		r.Status = StatusUnresolved
		return r
	}
	r.Operator = c.Operators.Identify(o.AllNSHosts())
	r.Status = statusOf(o)
	r.CDS = c.cdsInfo(o, r.Status)
	r.Bucket = bucketOf(r.Status, r.CDS)
	r.Signal = c.signalInfo(o, r)
	return r
}

func statusOf(obs *scan.ZoneObservation) Status {
	switch {
	case !obs.IsSigned() && !obs.HasDS():
		return StatusUnsigned
	case !obs.IsSigned() && obs.HasDS():
		// Errant DS above an unsigned zone: validating resolvers see
		// this as bogus (§4.1's "errant DS records in the parent").
		return StatusInvalid
	case obs.IsSigned() && obs.HasDS() && obs.ChainValid:
		return StatusSecured
	case obs.IsSigned() && obs.HasDS():
		return StatusInvalid
	case obs.ChainValid:
		return StatusIsland
	default:
		// Signed, no DS, and internally broken: counted with the
		// islands in the paper's population but never bootstrappable.
		return StatusIsland
	}
}

func (c *Classifier) cdsInfo(obs *scan.ZoneObservation, st Status) CDSInfo {
	info := CDSInfo{Consistent: true}
	var reference []dnswire.RR
	var referenceSigs []dnswire.RR
	answered := 0
	for i := range obs.PerNS {
		ns := &obs.PerNS[i]
		if ns.CDSOutcome.Failed() || ns.CDNSKEYOutcome.Failed() {
			info.QueryFailed = true
			continue
		}
		answered++
		combined := ns.CombinedCDS()
		if len(combined) > 0 {
			info.Present = true
		}
		if reference == nil {
			reference = combined
			referenceSigs = append(append([]dnswire.RR(nil), ns.CDSSigs...), ns.CDNSKEYSigs...)
			continue
		}
		if !dnswire.RRsetEqual(reference, combined) {
			info.Consistent = false
		}
	}
	if answered == 0 || !info.Present {
		info.Consistent = answered > 0
		return info
	}
	info.Records = reference
	info.Delete = dnssec.IsDeleteSet(reference)
	if !obs.IsSigned() {
		info.InUnsignedZone = true
		return info
	}
	_, info.MatchesDNSKEY = dnssec.CDSMatchesDNSKEYs(obs.Zone, reference, obs.DNSKEY)
	info.SigValid = c.cdsSigsValid(obs, reference, referenceSigs)
	return info
}

// cdsSigsValid verifies the RRSIGs over the in-zone CDS and CDNSKEY
// RRsets against the zone's DNSKEYs.
func (c *Classifier) cdsSigsValid(obs *scan.ZoneObservation, records, sigs []dnswire.RR) bool {
	byType := dnswire.GroupRRsets(records)
	for _, set := range byType {
		var covering []dnswire.RR
		for _, s := range sigs {
			if sig, ok := s.Data.(*dnswire.RRSIG); ok && sig.TypeCovered == set[0].Type() {
				covering = append(covering, s)
			}
		}
		if err := dnssec.VerifyRRset(set, covering, obs.DNSKEY, c.Now); err != nil {
			return false
		}
	}
	return true
}

func bucketOf(st Status, cds CDSInfo) Potential {
	switch st {
	case StatusUnsigned:
		return PotentialNone
	case StatusSecured:
		return PotentialAlreadySecured
	case StatusInvalid:
		return PotentialInvalidDNSSEC
	case StatusUnresolved:
		// Unreachable: Classify returns before bucketing when the zone
		// failed to resolve. Kept so the Status switch stays exhaustive.
		return PotentialNone
	case StatusIsland:
	}
	// Islands.
	switch {
	case !cds.Present:
		return PotentialIslandNoCDS
	case cds.Delete:
		return PotentialIslandDelete
	case !cds.Consistent || !cds.MatchesDNSKEY || !cds.SigValid:
		return PotentialIslandInvalidCDS
	default:
		return PotentialBootstrap
	}
}

func (c *Classifier) signalInfo(obs *scan.ZoneObservation, r *Result) SignalInfo {
	info := SignalInfo{Probed: len(obs.Signals) > 0}
	if !info.Probed {
		return info
	}
	var present, absent int
	var anyRecords []dnswire.RR
	insecure := false
	zoneCut := false
	tooLong := false
	for _, so := range obs.Signals {
		if so.NameTooLong {
			tooLong = true
			absent++
			continue
		}
		if len(so.Records) > 0 {
			present++
			anyRecords = append(anyRecords, so.Records...)
			if !so.Secure {
				insecure = true
			}
			if so.ZoneCut {
				zoneCut = true
			}
		} else {
			absent++
		}
	}
	if present == 0 {
		return info
	}
	info.HasSignal = true

	// Table 3's mutually-exclusive ladder.
	switch {
	case r.Status == StatusSecured:
		info.AlreadySecured = true
		return info
	case dnssec.IsDeleteSet(firstOwnerSet(obs)) || r.CDS.Delete:
		info.DeletionRequest = true
		return info
	case r.Status == StatusUnsigned || r.Status == StatusInvalid ||
		!r.CDS.Consistent || (r.CDS.Present && (!r.CDS.MatchesDNSKEY || !r.CDS.SigValid)):
		info.InvalidDNSSEC = true
		return info
	}

	// A secure island with signal RRs: the AB deployment candidate.
	info.Potential = true
	if absent > 0 {
		info.Violations = append(info.Violations, ViolationMissingUnderNS)
	}
	if tooLong {
		info.Violations = append(info.Violations, ViolationNameTooLong)
	}
	if zoneCut {
		info.Violations = append(info.Violations, ViolationZoneCut)
	}
	if insecure {
		info.Violations = append(info.Violations, ViolationInsecure)
	}
	// RFC 9615: the signalling RRs must match the zone's own CDS.
	if r.CDS.Present && !signalMatchesCDS(obs, r.CDS.Records) {
		info.Violations = append(info.Violations, ViolationMismatch)
	}
	info.Correct = len(info.Violations) == 0
	return info
}

// firstOwnerSet returns the records from the first signal observation
// carrying any, used for the deletion-request check.
func firstOwnerSet(obs *scan.ZoneObservation) []dnswire.RR {
	for _, so := range obs.Signals {
		if len(so.Records) > 0 {
			return so.Records
		}
	}
	return nil
}

// signalMatchesCDS checks that each signal observation's content equals
// the in-zone CDS set (ignoring owner names, which necessarily differ).
func signalMatchesCDS(obs *scan.ZoneObservation, zoneCDS []dnswire.RR) bool {
	want := rdataSet(zoneCDS)
	for _, so := range obs.Signals {
		if len(so.Records) == 0 {
			continue
		}
		got := rdataSet(so.Records)
		if len(got) != len(want) {
			return false
		}
		for k := range want {
			if !got[k] {
				return false
			}
		}
	}
	return true
}

func rdataSet(rrs []dnswire.RR) map[string]bool {
	out := make(map[string]bool, len(rrs))
	for _, rr := range rrs {
		w, err := dnswire.RDataWire(rr.Data)
		if err != nil {
			continue
		}
		out[rr.Type().String()+"|"+string(w)] = true
	}
	return out
}
