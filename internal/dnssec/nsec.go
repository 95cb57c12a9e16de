package dnssec

import (
	"slices"
	"strings"

	"dnssecboot/internal/dnswire"
)

// NSEC denial-of-existence helpers (RFC 4035 §5.4). The server test,
// the scanner's validated denial store and the fuzz targets all judge
// NXDOMAIN proofs with ProveNXDomain, so the rule exists once.

// NSECCoversName reports whether the NSEC record rr (owner→next) proves
// that name does not exist: owner < name < next in canonical order. The
// zone's last NSEC wraps around to the apex, so it covers the names
// after its owner that are still inside the zone.
func NSECCoversName(rr dnswire.RR, name string) bool {
	nsec, ok := rr.Data.(*dnswire.NSEC)
	if !ok {
		return false
	}
	owner := dnswire.CanonicalName(rr.Name)
	next := dnswire.CanonicalName(nsec.NextDomain)
	name = dnswire.CanonicalName(name)
	if name == owner || name == next || !dnswire.CanonicalNameLess(owner, name) {
		return false
	}
	if dnswire.CanonicalNameLess(owner, next) {
		return dnswire.CanonicalNameLess(name, next)
	}
	return dnswire.IsSubdomain(name, next)
}

// NSECProvesNoData reports whether rr is an NSEC at exactly name whose
// type bitmap omits typ — the NODATA proof shape.
func NSECProvesNoData(rr dnswire.RR, name string, typ dnswire.Type) bool {
	nsec, ok := rr.Data.(*dnswire.NSEC)
	if !ok {
		return false
	}
	if dnswire.CanonicalName(rr.Name) != dnswire.CanonicalName(name) {
		return false
	}
	for _, t := range nsec.Types {
		if t == typ {
			return false
		}
	}
	return true
}

// NXDomainProof is what proves a name absent: Cover is the NSEC whose
// interval holds the name and Wildcard the one whose interval holds the
// wildcard at the name's closest encloser, so no wildcard could have
// answered either. One record may be both.
type NXDomainProof struct {
	Cover, Wildcard dnswire.RR
}

// ProveNXDomain applies RFC 4035 §5.4's NXDOMAIN rule to name over the
// NSEC records a caller holds, which covering looks up: it returns a
// held NSEC whose interval may hold the name it is given (an answer's
// authority section is searched with CoveringNSEC; the scanner's store
// binary-searches one signer's records). Both records must come from
// one zone. The name is proven absent when
//
//   - a held NSEC covers it, and its next name is not below the name
//     (which would make the name an empty non-terminal);
//   - that NSEC does not sit at a delegation (NS without SOA) or a DNAME
//     above the name, whose subtree the zone does not speak for;
//   - a held NSEC covers "*.<closest encloser>", where the closest
//     encloser is the name's deepest ancestor that exists.
func ProveNXDomain(name string, covering func(name string) (dnswire.RR, bool)) (NXDomainProof, bool) {
	name = dnswire.CanonicalName(name)
	cover, ok := covering(name)
	if !ok || !deniesName(cover, name) {
		return NXDomainProof{}, false
	}
	wc := dnswire.Join("*", closestEncloser(cover, name))
	wild, ok := covering(wc)
	if !ok || !deniesName(wild, wc) {
		return NXDomainProof{}, false
	}
	return NXDomainProof{Cover: cover, Wildcard: wild}, true
}

// CoveringNSEC returns the first NSEC in rrs whose interval covers name.
func CoveringNSEC(rrs []dnswire.RR, name string) (dnswire.RR, bool) {
	for _, rr := range rrs {
		if NSECCoversName(rr, name) {
			return rr, true
		}
	}
	return dnswire.RR{}, false
}

// deniesName reports whether nsec covers name and may speak for it. A
// next name below the name makes it an empty non-terminal, which
// exists. An NSEC at a proper ancestor of the name that marks a
// delegation (NS without SOA) or a DNAME says nothing about the subtree
// below it: that lies in another zone, or is redirected.
func deniesName(nsec dnswire.RR, name string) bool {
	if !NSECCoversName(nsec, name) || dnswire.IsSubdomain(nsec.Data.(*dnswire.NSEC).NextDomain, name) {
		return false
	}
	if !dnswire.IsSubdomain(name, nsec.Name) {
		return true
	}
	types := nsec.Data.(*dnswire.NSEC).Types
	if slices.Contains(types, dnswire.TypeDNAME) {
		return false
	}
	return !slices.Contains(types, dnswire.TypeNS) || slices.Contains(types, dnswire.TypeSOA)
}

// closestEncloser returns the closest encloser of a name that nsec
// covers. No name exists between the NSEC's owner and next name, so the
// name's deepest existing ancestor is the deeper of its common ancestors
// with the two (RFC 7129).
func closestEncloser(nsec dnswire.RR, name string) string {
	a := commonAncestor(name, dnswire.CanonicalName(nsec.Name))
	b := commonAncestor(name, dnswire.CanonicalName(nsec.Data.(*dnswire.NSEC).NextDomain))
	if len(b) > len(a) {
		return b
	}
	return a
}

// commonAncestor returns the deepest name that both canonical names a
// and b are at or below.
func commonAncestor(a, b string) string {
	for a != "." && a != b && !(strings.HasSuffix(b, a) && b[len(b)-len(a)-1] == '.') {
		a = dnswire.Parent(a)
	}
	return a
}

// CheckDenial inspects the authority section of a negative response and
// reports whether it carries an NSEC proof for (name, typ): a NODATA
// bitmap at the name, or the NXDOMAIN proof of ProveNXDomain.
//
//lint:allow unused test oracle: server_test checks dnsd's NSEC denials with it
func CheckDenial(authority []dnswire.RR, name string, typ dnswire.Type) bool {
	for _, rr := range authority {
		if NSECProvesNoData(rr, name, typ) {
			return true
		}
	}
	_, ok := ProveNXDomain(name, func(n string) (dnswire.RR, bool) { return CoveringNSEC(authority, n) })
	return ok
}
