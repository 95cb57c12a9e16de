package scan

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"dnssecboot/internal/dnssec"
	"dnssecboot/internal/dnswire"
)

// The validated denial store: aggressive use of DNSSEC-validated NSEC
// records (RFC 8198). Only signalling operators publish RFC 9615
// signals, so nearly every probe of _dsboot.<child>._signal.<ns> is
// NXDOMAIN, and the NSEC proving one probe name absent usually spans
// the next zone's probe name under the same nameserver too. Once such a
// record has validated to a chain from the root, the scanner answers
// the probes it proves absent without asking. That saving depends on the
// operators' signal zones being pre-signed NSEC chains whose intervals
// span later probe names; where an interval holds only the name asked,
// the store costs the validation of what it learns and saves nothing.
//
// Scope: only NSECs from signal-probe NXDOMAIN answers are learned, and
// only signal probes read them. Unsigned and NSEC3 zones, insecure
// delegations and bogus or expired signatures teach nothing, and a
// server that fails CDS queries (the legacy FORMERR servers) never
// answers NXDOMAIN, so its probes are sent as before. A record is used
// only within its TTL, capped by the signer's SOA TTL and MINIMUM in the
// same answer (RFC 8198 §5.1, RFC 9077 §3), on the resolver cache's
// clock: a signal published after the NSEC was learned is seen once the
// negative answer would have expired from any cache.

// maxDenialsPerSigner bounds the NSEC records kept for one signer zone.
const maxDenialsPerSigner = 4096

// denialStore holds validated NSEC records per signer zone, each
// signer's sorted by owner in canonical order.
type denialStore struct {
	mu       sync.RWMutex
	bySigner map[string][]storedNSEC
}

// storedNSEC is a validated NSEC and the time it stops being usable.
type storedNSEC struct {
	rr      dnswire.RR
	expires time.Time
}

// nsecDenial is a name proven absent by stored NSECs of one signer.
type nsecDenial struct {
	dnssec.NXDomainProof
	signer string
}

// String names the records of the proof, for the trace.
func (d *nsecDenial) String() string {
	s := fmt.Sprintf("validated NSEC %s -> %s (signer %s)", d.Cover.Name, d.Cover.Data.(*dnswire.NSEC).NextDomain, d.signer)
	if d.Wildcard.Name != d.Cover.Name {
		s += fmt.Sprintf(", wildcard NSEC %s -> %s", d.Wildcard.Name, d.Wildcard.Data.(*dnswire.NSEC).NextDomain)
	}
	return s
}

// learnDenials keeps the NSEC records of an NXDOMAIN answer for name
// that validate, each under the zone that signed it.
func (v *Validator) learnDenials(ctx context.Context, name string, authority []dnswire.RR) {
	now := v.R.Now()
	for _, rr := range authority {
		nsec, ok := rr.Data.(*dnswire.NSEC)
		// An online signer's white lie (RFC 4470) brackets only the name
		// asked about, its next name lying just below it.
		if !ok || dnswire.IsSubdomain(nsec.NextDomain, name) {
			continue
		}
		rr.Name = dnswire.CanonicalName(rr.Name)
		signer, sigs := nsecSigs(authority, rr.Name)
		if len(sigs) == 0 || !dnswire.IsSubdomain(name, signer) || !v.denials.wants(signer, rr.Name, now) {
			continue
		}
		if v.ValidateRRset(ctx, []dnswire.RR{rr}, sigs) == nil {
			v.denials.add(signer, storedNSEC{rr: rr, expires: now.Add(denialTTL(authority, signer, rr.TTL))})
		}
	}
}

// denialTTL is how long an NSEC of a negative answer may be reused: its
// own TTL, capped by the TTL and MINIMUM of the signer's SOA in the same
// answer.
func denialTTL(authority []dnswire.RR, signer string, ttl uint32) time.Duration {
	for _, rr := range authority {
		if soa, ok := rr.Data.(*dnswire.SOA); ok && dnswire.CanonicalName(rr.Name) == signer {
			ttl = min(ttl, rr.TTL, soa.Minimum)
		}
	}
	return time.Duration(ttl) * time.Second
}

// nsecSigs returns the signer of the first RRSIG over the NSEC at owner
// and every such RRSIG by that signer. An RRSIG whose label count is
// below the owner's (not counting a leading "*", RFC 4034 §3.1.3) would
// validate a wildcard expansion, which an NSEC served as a denial never
// is, so those are left out.
func nsecSigs(authority []dnswire.RR, owner string) (signer string, sigs []dnswire.RR) {
	labels := dnswire.CountLabels(owner)
	if strings.HasPrefix(owner, "*.") {
		labels--
	}
	for _, rr := range authority {
		sig, ok := rr.Data.(*dnswire.RRSIG)
		if !ok || sig.TypeCovered != dnswire.TypeNSEC || int(sig.Labels) != labels || dnswire.CanonicalName(rr.Name) != owner {
			continue
		}
		if signer == "" {
			signer = dnswire.CanonicalName(sig.SignerName)
		}
		if dnswire.CanonicalName(sig.SignerName) == signer {
			sigs = append(sigs, rr)
		}
	}
	return signer, sigs
}

// denied returns the stored proof that name does not exist, trying the
// unexpired NSECs of every signer zone at or above it. A signer above a
// zone cut proves nothing below it: its NSEC at the cut is a delegation
// NSEC, which dnssec.ProveNXDomain refuses.
func (v *Validator) denied(name string) (nsecDenial, bool) {
	now := v.R.Now()
	d := &v.denials
	d.mu.RLock()
	defer d.mu.RUnlock()
	for signer := name; ; signer = dnswire.Parent(signer) {
		if nsecs := d.bySigner[signer]; len(nsecs) > 0 {
			covering := func(n string) (dnswire.RR, bool) { return coveringIn(nsecs, n, now) }
			if p, ok := dnssec.ProveNXDomain(name, covering); ok {
				return nsecDenial{NXDomainProof: p, signer: signer}, true
			}
		}
		if signer == "." {
			return nsecDenial{}, false
		}
	}
}

// coveringIn returns the NSEC among nsecs, sorted by owner, whose
// interval may hold name: the one with the last owner before it (the
// zone's wraparound NSEC has the last owner of all), if it has not
// expired by now.
func coveringIn(nsecs []storedNSEC, name string, now time.Time) (dnswire.RR, bool) {
	i := search(nsecs, name)
	if i == 0 || !now.Before(nsecs[i-1].expires) {
		return dnswire.RR{}, false
	}
	return nsecs[i-1].rr, true
}

// search returns the index of the first NSEC in nsecs whose owner is
// not before name in canonical order.
func search(nsecs []storedNSEC, name string) int {
	return sort.Search(len(nsecs), func(i int) bool { return !dnswire.CanonicalNameLess(nsecs[i].rr.Name, name) })
}

// wants reports whether a validated NSEC of signer at owner would be
// kept, so that one that would not is never validated: the store must
// not hold a live one there, and the signer's share must have room. A
// full share first drops its expired records. Every NXDOMAIN answer
// asks, so only that drop takes the write lock.
func (d *denialStore) wants(signer, owner string, now time.Time) bool {
	d.mu.RLock()
	nsecs := d.bySigner[signer]
	i := search(nsecs, owner)
	held := i < len(nsecs) && nsecs[i].rr.Name == owner
	live := held && now.Before(nsecs[i].expires)
	d.mu.RUnlock()
	if held || len(nsecs) < maxDenialsPerSigner {
		return !live
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	nsecs = slices.DeleteFunc(d.bySigner[signer], func(s storedNSEC) bool { return !now.Before(s.expires) })
	d.bySigner[signer] = nsecs
	return len(nsecs) < maxDenialsPerSigner
}

// add files a validated NSEC under its signer, replacing the one at the
// same owner, unless the signer's share filled up since wants.
func (d *denialStore) add(signer string, e storedNSEC) {
	d.mu.Lock()
	defer d.mu.Unlock()
	nsecs := d.bySigner[signer]
	i := search(nsecs, e.rr.Name)
	if i < len(nsecs) && nsecs[i].rr.Name == e.rr.Name {
		nsecs[i] = e
		return
	}
	if len(nsecs) >= maxDenialsPerSigner {
		return
	}
	if d.bySigner == nil {
		d.bySigner = make(map[string][]storedNSEC)
	}
	d.bySigner[signer] = slices.Insert(nsecs, i, e)
}
