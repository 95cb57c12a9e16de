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
	iv, ok := intervalOf(rr)
	return ok && iv.covers(dnswire.CanonicalName(name))
}

// interval is an NSEC record with its owner and next name in canonical
// form, so the tests of one proof canonicalise them once.
type interval struct {
	rr          dnswire.RR
	owner, next string
}

func intervalOf(rr dnswire.RR) (interval, bool) {
	nsec, ok := rr.Data.(*dnswire.NSEC)
	if !ok {
		return interval{}, false
	}
	return interval{rr, dnswire.CanonicalName(rr.Name), dnswire.CanonicalName(nsec.NextDomain)}, true
}

// covers is NSECCoversName for a canonical name.
func (iv interval) covers(name string) bool {
	if name == iv.owner || name == iv.next || !dnswire.CanonicalNameLess(iv.owner, name) {
		return false
	}
	if dnswire.CanonicalNameLess(iv.owner, iv.next) {
		return dnswire.CanonicalNameLess(name, iv.next)
	}
	return dnswire.CanonicalSubdomain(name, iv.next)
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
//
// When the wildcard sorts between the covering NSEC's owner and the
// name and that NSEC covers it too (92 % of the scanner's proofs), the
// wildcard is neither looked up nor built. That needs covering to
// return, for a name between a record's owner and a name it returned
// that record for, the same record: the store's search for the last
// owner before a name does, and CoveringNSEC does for NSECs whose
// intervals do not overlap.
func ProveNXDomain(name string, covering func(name string) (dnswire.RR, bool)) (NXDomainProof, bool) {
	name = dnswire.CanonicalName(name)
	cover, ok := covering(name)
	if !ok {
		return NXDomainProof{}, false
	}
	iv, ok := intervalOf(cover)
	if !ok || !iv.denies(name) {
		return NXDomainProof{}, false
	}
	ce := iv.closestEncloser(name)
	if wildcardOrder(name, ce) >= 0 && iv.deniesWildcard(ce) {
		return NXDomainProof{Cover: cover, Wildcard: cover}, true
	}
	wc := dnswire.Join("*", ce)
	wild, ok := covering(wc)
	if !ok {
		return NXDomainProof{}, false
	}
	if wiv, ok := intervalOf(wild); !ok || !wiv.denies(wc) {
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

// denies reports whether the NSEC covers the canonical name and may
// speak for it. A next name below the name makes it an empty
// non-terminal, which exists. An NSEC at a proper ancestor of the name
// must speak for the names below it (speaksBelow).
func (iv interval) denies(name string) bool {
	if !iv.covers(name) || dnswire.CanonicalSubdomain(iv.next, name) {
		return false
	}
	return !dnswire.CanonicalSubdomain(name, iv.owner) || speaksBelow(iv.rr)
}

// deniesWildcard is denies("*."+ce) for a canonical ce, without
// building the wildcard name.
func (iv interval) deniesWildcard(ce string) bool {
	o, n := wildcardOrder(iv.owner, ce), wildcardOrder(iv.next, ce)
	wraps := !dnswire.CanonicalNameLess(iv.owner, iv.next)
	switch {
	case o >= 0 || n == 0: // not after the owner, or at the next name
		return false
	case !wraps && n < 0: // past the next name
		return false
	case wraps && !dnswire.CanonicalSubdomain(ce, iv.next): // outside the wrapped zone
		return false
	case belowWildcard(iv.next, ce): // an empty non-terminal
		return false
	}
	return !dnswire.CanonicalSubdomain(ce, iv.owner) || speaksBelow(iv.rr)
}

// speaksBelow reports whether an NSEC may deny names below its owner.
// One that marks a delegation (NS without SOA) or a DNAME says nothing
// about that subtree: it lies in another zone, or is redirected.
func speaksBelow(nsec dnswire.RR) bool {
	types := nsec.Data.(*dnswire.NSEC).Types
	if slices.Contains(types, dnswire.TypeDNAME) {
		return false
	}
	return !slices.Contains(types, dnswire.TypeNS) || slices.Contains(types, dnswire.TypeSOA)
}

// wildcardOrder compares the canonical name x with "*."+ce in canonical
// order, returning -1, 0 or +1, without building the wildcard. A name
// at or above ce sorts before it; one beside ce sorts as it does
// against ce; one below ce sorts by its label directly under ce against
// "*", and then as a descendant.
func wildcardOrder(x, ce string) int {
	if dnswire.CanonicalSubdomain(ce, x) {
		return -1
	}
	if !dnswire.CanonicalSubdomain(x, ce) {
		if dnswire.CanonicalNameLess(x, ce) {
			return -1
		}
		return 1
	}
	above := aboveEncloser(x, ce)
	label := above[strings.LastIndexByte(above, '.')+1:]
	switch {
	case label != "*":
		return strings.Compare(label, "*")
	case above == "*":
		return 0
	}
	return 1
}

// belowWildcard reports whether the canonical name x lies strictly
// below "*."+ce.
func belowWildcard(x, ce string) bool {
	return x != ce && dnswire.CanonicalSubdomain(x, ce) && strings.HasSuffix(aboveEncloser(x, ce), ".*")
}

// aboveEncloser returns the labels of x, a canonical name strictly below
// ce, that lie above ce, without their final dot.
func aboveEncloser(x, ce string) string {
	if ce == "." {
		return x[:len(x)-1]
	}
	return x[:len(x)-len(ce)-1]
}

// closestEncloser returns the closest encloser of a name the NSEC
// covers. No name exists between the NSEC's owner and next name, so the
// name's deepest existing ancestor is the deeper of its common ancestors
// with the two (RFC 7129). The result is a suffix of name.
func (iv interval) closestEncloser(name string) string {
	a, b := commonAncestor(name, iv.owner), commonAncestor(name, iv.next)
	if len(b) > len(a) {
		return b
	}
	return a
}

// commonAncestor returns the deepest name that both canonical names a
// and b are at or below, as a suffix of a: it drops a's labels from the
// left until the rest is a label-aligned suffix of b.
func commonAncestor(a, b string) string {
	for a != "." && !dnswire.CanonicalSubdomain(b, a) {
		i := strings.IndexByte(a, '.')
		if i < 0 || i == len(a)-1 {
			return "."
		}
		a = a[i+1:]
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
