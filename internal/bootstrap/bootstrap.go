// Package bootstrap implements the registry/registrar side of DNSSEC
// delegation-trust maintenance: the RFC 9615 Authenticated
// Bootstrapping algorithm (the paper's subject), CDS-driven DS
// rollover for already-secured zones (RFC 7344) and CDS-DELETE
// processing (RFC 8078 §4).
//
// A Registry owns a parent zone (a TLD in the simulation) and uses a
// scanner to observe children, mirroring how .ch/.li/.swiss process
// their child zones.
package bootstrap

import (
	"context"
	"fmt"
	"time"

	"dnssecboot/internal/dnssec"
	"dnssecboot/internal/dnswire"
	"dnssecboot/internal/scan"
	"dnssecboot/internal/zone"
)

// Decision is the outcome of evaluating one child zone.
type Decision struct {
	// Child is the evaluated zone.
	Child string
	// Eligible is true when every precondition held.
	Eligible bool
	// Reasons lists the failed preconditions (empty when eligible).
	Reasons []string
	// DS is the DS set that was (or would be) installed.
	DS []dnswire.RR
	// Installed is true when the parent zone was actually updated.
	Installed bool
}

func (d *Decision) fail(format string, args ...any) {
	d.Reasons = append(d.Reasons, fmt.Sprintf(format, args...))
}

// Registry processes children of one parent zone.
type Registry struct {
	// Parent is the registry zone DS records are installed into. It
	// must be signed for installs to be re-signed.
	Parent *zone.Zone
	// Scanner observes children (it carries the resolver and the
	// chain validator).
	Scanner *scan.Scanner
	// Now anchors validity checks.
	Now time.Time
	// DryRun evaluates without touching the parent zone.
	DryRun bool
}

// Bootstrap runs the full RFC 9615 §4.1 acceptance algorithm for an
// unsigned delegation:
//
//	(i)   the domain is not already securely delegated,
//	(ii)  every authoritative NS serves the same CDS/CDNSKEY,
//	(iii) the signalling records under every NS match the zone's,
//	(iv)  the signalling records are themselves DNSSEC-secure, and
//	(v)   the zone would validate under the resulting DS set.
//
// If all hold, the DS set is installed into the parent and the DS
// RRset re-signed.
func (r *Registry) Bootstrap(ctx context.Context, child string) (*Decision, error) {
	child = dnswire.CanonicalName(child)
	d := &Decision{Child: child}
	obs := r.Scanner.ScanZone(ctx, child)
	if obs.ResolveErr != "" {
		d.fail("zone does not resolve: %s", obs.ResolveErr)
		return d, nil
	}

	// (i) Not already secured.
	if obs.HasDS() {
		d.fail("delegation already has DS records")
	}

	// (ii) Consistent CDS across every nameserver.
	cds := r.consistentCDS(obs, d)

	// A deletion request cannot bootstrap anything.
	if len(cds) > 0 && dnssec.IsDeleteSet(cds) {
		d.fail("CDS is a deletion request")
	}

	// (iii)+(iv) Signal records present, matching and secure under
	// every nameserver.
	r.checkSignals(obs, cds, d)

	// (v) The zone must validate under the new DS set.
	if len(cds) > 0 && len(d.Reasons) == 0 {
		newDS := dedupeDS(dnssec.DSSetFromCDS(append(cdsOnly(cds), synthesizeCDS(child, cds)...)))
		if len(newDS) == 0 {
			d.fail("no usable CDS records")
		} else if err := dnssec.VerifyChainLink(child, newDS, obs.DNSKEY, obs.DNSKEYSigs, r.Now); err != nil {
			d.fail("zone would not validate with new DS: %v", err)
		} else {
			d.DS = newDS
		}
	} else if len(cds) == 0 {
		d.fail("no CDS records published")
	}

	if len(d.Reasons) > 0 {
		return d, nil
	}
	d.Eligible = true
	if r.DryRun {
		return d, nil
	}
	return d, r.install(d)
}

// consistentCDS returns the child's CDS+CDNSKEY set if every NS agrees,
// recording failures into d.
func (r *Registry) consistentCDS(obs *scan.ZoneObservation, d *Decision) []dnswire.RR {
	var reference []dnswire.RR
	for i := range obs.PerNS {
		ns := &obs.PerNS[i]
		if ns.CDSOutcome.Failed() || ns.CDNSKEYOutcome.Failed() {
			d.fail("nameserver %s (%s) failed the CDS query", ns.Host, ns.Addr)
			return nil
		}
		combined := ns.CombinedCDS()
		if reference == nil {
			reference = combined
			continue
		}
		if !dnswire.RRsetEqual(reference, combined) {
			d.fail("CDS differs between nameservers (%s)", ns.Host)
			return nil
		}
	}
	return reference
}

func (r *Registry) checkSignals(obs *scan.ZoneObservation, cds []dnswire.RR, d *Decision) {
	if len(obs.Signals) == 0 {
		d.fail("no signalling records were probed")
		return
	}
	want := rdataKeys(cds)
	for _, so := range obs.Signals {
		switch {
		case so.NameTooLong:
			d.fail("signalling name under %s exceeds the DNS name limit", so.NSHost)
		case len(so.Records) == 0:
			d.fail("no signalling records under %s", so.NSHost)
		case so.ZoneCut:
			d.fail("zone cut inside the signal zone of %s", so.NSHost)
		case !so.Secure:
			d.fail("signalling records under %s are not DNSSEC-secure: %s", so.NSHost, so.ValidationErr)
		default:
			got := rdataKeys(so.Records)
			if len(got) != len(want) {
				d.fail("signalling records under %s differ from the zone's CDS", so.NSHost)
				continue
			}
			for k := range want {
				if !got[k] {
					d.fail("signalling records under %s differ from the zone's CDS", so.NSHost)
					break
				}
			}
		}
	}
}

// install writes the DS set into the parent and refreshes its RRSIG.
func (r *Registry) install(d *Decision) error {
	for _, rr := range d.DS {
		if err := r.Parent.Add(rr); err != nil {
			return err
		}
	}
	if r.Parent.IsSigned() {
		if err := r.Parent.ResignRRset(d.Child, dnswire.TypeDS, zone.SignConfig{Now: r.Now}); err != nil {
			return err
		}
	}
	d.Installed = true
	return nil
}

// ProcessDelete implements RFC 8078 §4: when a securely-delegated
// child publishes the DELETE sentinel consistently, the registry
// removes its DS records (turning DNSSEC off for the delegation).
func (r *Registry) ProcessDelete(ctx context.Context, child string) (*Decision, error) {
	child = dnswire.CanonicalName(child)
	d := &Decision{Child: child}
	obs := r.Scanner.ScanZone(ctx, child)
	if obs.ResolveErr != "" {
		d.fail("zone does not resolve: %s", obs.ResolveErr)
		return d, nil
	}
	if !obs.HasDS() {
		d.fail("no DS records to delete")
		return d, nil
	}
	cds := r.consistentCDS(obs, d)
	if len(d.Reasons) > 0 {
		return d, nil
	}
	if !dnssec.IsDeleteSet(cds) {
		d.fail("CDS content is not the deletion sentinel")
		return d, nil
	}
	d.Eligible = true
	if r.DryRun {
		return d, nil
	}
	r.Parent.RemoveSet(child, dnswire.TypeDS)
	if r.Parent.IsSigned() {
		if err := r.Parent.ResignRRset(child, dnswire.TypeDS, zone.SignConfig{Now: r.Now}); err != nil {
			return d, err
		}
	}
	d.Installed = true
	return d, nil
}

// Rollover implements RFC 7344 DS maintenance for an already-secured
// delegation: the CDS must be consistent, signed by a key chained from
// the *current* DS set, and the zone must validate under the new set.
func (r *Registry) Rollover(ctx context.Context, child string) (*Decision, error) {
	child = dnswire.CanonicalName(child)
	d := &Decision{Child: child}
	obs := r.Scanner.ScanZone(ctx, child)
	if obs.ResolveErr != "" {
		d.fail("zone does not resolve: %s", obs.ResolveErr)
		return d, nil
	}
	if !obs.HasDS() {
		d.fail("delegation is not secured; use Bootstrap")
		return d, nil
	}
	if !obs.ChainValid {
		d.fail("current chain does not validate: %s", obs.ChainErr)
		return d, nil
	}
	cds := r.consistentCDS(obs, d)
	if len(d.Reasons) > 0 {
		return d, nil
	}
	if len(cds) == 0 {
		d.fail("no CDS records published")
		return d, nil
	}
	if dnssec.IsDeleteSet(cds) {
		d.fail("deletion request; use ProcessDelete")
		return d, nil
	}
	// RFC 7344 §4.1: the CDS must be signed by a key represented in the
	// current DS set.
	if err := r.verifyCDSUnderCurrentChain(obs, d); err != nil {
		d.fail("CDS not signed under the current chain: %v", err)
		return d, nil
	}
	newDS := dedupeDS(dnssec.DSSetFromCDS(append(cdsOnly(cds), synthesizeCDS(child, cds)...)))
	if len(newDS) == 0 {
		d.fail("no usable CDS records")
		return d, nil
	}
	if err := dnssec.VerifyChainLink(child, newDS, obs.DNSKEY, obs.DNSKEYSigs, r.Now); err != nil {
		d.fail("zone would not validate with new DS: %v", err)
		return d, nil
	}
	d.DS = newDS
	d.Eligible = true
	if r.DryRun {
		return d, nil
	}
	r.Parent.RemoveSet(child, dnswire.TypeDS)
	return d, r.install(d)
}

func (r *Registry) verifyCDSUnderCurrentChain(obs *scan.ZoneObservation, d *Decision) error {
	// Find the anchor keys: DNSKEYs matching the current DS.
	var anchors []dnswire.RR
	for _, rr := range obs.DS {
		ds, ok := rr.Data.(*dnswire.DS)
		if !ok {
			continue
		}
		if k := dnssec.KeyForDS(obs.Zone, ds, obs.DNSKEY); k != nil {
			anchors = append(anchors, *k)
		}
	}
	if len(anchors) == 0 {
		return dnssec.ErrNoMatchingDS
	}
	// The DNSKEY RRset must be signed by an anchored key, and the CDS
	// RRsets by zone keys.
	if err := dnssec.VerifyRRset(obs.DNSKEY, obs.DNSKEYSigs, anchors, r.Now); err != nil {
		return err
	}
	for i := range obs.PerNS {
		ns := &obs.PerNS[i]
		if len(ns.CDS) > 0 {
			if err := dnssec.VerifyRRset(ns.CDS, ns.CDSSigs, obs.DNSKEY, r.Now); err != nil {
				return err
			}
		}
		if len(ns.CDNSKEY) > 0 {
			if err := dnssec.VerifyRRset(ns.CDNSKEY, ns.CDNSKEYSigs, obs.DNSKEY, r.Now); err != nil {
				return err
			}
		}
		break // one authoritative view suffices once consistency held
	}
	return nil
}

// dedupeDS removes DS records with identical RDATA (a CDS and its
// CDNSKEY-derived twin produce the same digest).
func dedupeDS(rrs []dnswire.RR) []dnswire.RR {
	seen := make(map[string]bool, len(rrs))
	out := rrs[:0]
	for _, rr := range rrs {
		w, err := dnswire.RDataWire(rr.Data)
		if err != nil {
			continue
		}
		if seen[string(w)] {
			continue
		}
		seen[string(w)] = true
		out = append(out, rr)
	}
	return out
}

// cdsOnly filters the CDS records (not CDNSKEY) from a combined set.
func cdsOnly(rrs []dnswire.RR) []dnswire.RR {
	var out []dnswire.RR
	for _, rr := range rrs {
		if rr.Type() == dnswire.TypeCDS {
			out = append(out, rr)
		}
	}
	return out
}

// synthesizeCDS converts CDNSKEY records into CDS form (registries
// that prefer computing digests themselves — §2's hash-agility note).
func synthesizeCDS(owner string, rrs []dnswire.RR) []dnswire.RR {
	var out []dnswire.RR
	for _, rr := range rrs {
		ck, ok := rr.Data.(*dnswire.CDNSKEY)
		if !ok || ck.IsDelete() {
			continue
		}
		cds, err := dnssec.CDSFromKey(owner, &ck.DNSKEY, dnswire.DigestSHA256)
		if err != nil {
			continue
		}
		out = append(out, dnswire.RR{Name: rr.Name, Class: rr.Class, TTL: rr.TTL, Data: cds})
	}
	return out
}

func rdataKeys(rrs []dnswire.RR) map[string]bool {
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
