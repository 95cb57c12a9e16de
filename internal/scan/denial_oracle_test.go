package scan

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"dnssecboot/internal/dnssec"
	"dnssecboot/internal/dnswire"
	"dnssecboot/internal/resolver"
)

// The validated-denial check as it was before it searched once and
// stepped through signers by slicing: a walk over dnswire.Parent, a
// search for the wildcard on every proof, and the closest encloser
// found by Parent. TestDeniedMatchesOracle holds denied to it.

func oracleDenied(d *denialStore, name string, now time.Time) (nsecDenial, bool) {
	for signer := name; ; signer = dnswire.Parent(signer) {
		if nsecs := d.bySigner[signer]; len(nsecs) > 0 {
			covering := func(n string) (dnswire.RR, bool) { return coveringIn(nsecs, n, now) }
			if p, ok := oracleProveNXDomain(name, covering); ok {
				return nsecDenial{NXDomainProof: p, signer: signer}, true
			}
		}
		if signer == "." {
			return nsecDenial{}, false
		}
	}
}

func oracleProveNXDomain(name string, covering func(name string) (dnswire.RR, bool)) (dnssec.NXDomainProof, bool) {
	name = dnswire.CanonicalName(name)
	cover, ok := covering(name)
	if !ok || !oracleDeniesName(cover, name) {
		return dnssec.NXDomainProof{}, false
	}
	wc := dnswire.Join("*", oracleClosestEncloser(cover, name))
	wild, ok := covering(wc)
	if !ok || !oracleDeniesName(wild, wc) {
		return dnssec.NXDomainProof{}, false
	}
	return dnssec.NXDomainProof{Cover: cover, Wildcard: wild}, true
}

func oracleDeniesName(nsec dnswire.RR, name string) bool {
	if !dnssec.NSECCoversName(nsec, name) || dnswire.IsSubdomain(nsec.Data.(*dnswire.NSEC).NextDomain, name) {
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

func oracleClosestEncloser(nsec dnswire.RR, name string) string {
	a := oracleCommonAncestor(name, dnswire.CanonicalName(nsec.Name))
	b := oracleCommonAncestor(name, dnswire.CanonicalName(nsec.Data.(*dnswire.NSEC).NextDomain))
	if len(b) > len(a) {
		return b
	}
	return a
}

func oracleCommonAncestor(a, b string) string {
	for a != "." && a != b && !(strings.HasSuffix(b, a) && b[len(b)-len(a)-1] == '.') {
		a = dnswire.Parent(a)
	}
	return a
}

// denialLabels are the labels random names are made of: "*" and the
// octets around it in canonical order, letters, a digit, the scanner's
// underscore labels and a non-ASCII one, which canonical ordering
// compares by splitting.
var denialLabels = []string{"*", ")", "+", "-", "0", "a", "b", "m", "z", "ns1", "_dsboot", "_signal", "ä", "Äx"}

// randomDenialStore fills d with NSECs of several signers. Each
// signer's chain runs through random owners below it, the apex with SOA
// and NS, some delegations (NS without SOA), DNAMEs and wildcards; then
// some records are dropped, as in a store that learned part of a
// chain, some get a random next name, so intervals overlap, and some
// have expired by now.
func randomDenialStore(rnd *rand.Rand, now time.Time, d *denialStore) []string {
	randName := func(under string, maxDepth int) string {
		n := under
		for i := 1 + rnd.Intn(maxDepth); i > 0; i-- {
			n = dnswire.Join(denialLabels[rnd.Intn(len(denialLabels))], n)
		}
		return n
	}
	signers := []string{".", "example.", "sub.example.", "_signal.ns1.op.net.", "op.net."}
	var names []string
	for _, signer := range signers[:2+rnd.Intn(len(signers)-1)] {
		owners := []string{signer}
		for i := rnd.Intn(12); i > 0; i-- {
			owners = append(owners, randName(signer, 3))
		}
		slices.SortFunc(owners, func(a, b string) int {
			switch {
			case dnswire.CanonicalNameLess(a, b):
				return -1
			case dnswire.CanonicalNameLess(b, a):
				return 1
			}
			return 0
		})
		owners = slices.Compact(owners)
		for i, owner := range owners {
			names = append(names, owner)
			next := owners[(i+1)%len(owners)]
			if rnd.Intn(6) == 0 {
				next = randName(signers[rnd.Intn(len(signers))], 3)
			}
			if rnd.Intn(8) == 0 {
				next = strings.ToUpper(next) // a next name as a server may spell it
			}
			types := []dnswire.Type{dnswire.TypeRRSIG, dnswire.TypeNSEC}
			switch {
			case owner == signer:
				types = append(types, dnswire.TypeNS, dnswire.TypeSOA)
			case rnd.Intn(4) == 0:
				types = append(types, dnswire.TypeNS)
			case rnd.Intn(6) == 0:
				types = append(types, dnswire.TypeDNAME)
			}
			if rnd.Intn(5) == 0 {
				continue
			}
			expires := now.Add(time.Minute)
			if rnd.Intn(8) == 0 {
				expires = now.Add(-time.Second)
			}
			d.add(signer, storedNSEC{
				rr:      dnswire.RR{Name: owner, Class: dnswire.ClassIN, TTL: 300, Data: &dnswire.NSEC{NextDomain: next, Types: types}},
				expires: expires,
			})
		}
	}
	return names
}

// TestDeniedMatchesOracle: over random stores, denied must return the
// same proof and signer as the oracle for names at, below, beside and
// between the stored owners, and under signers with no records.
func TestDeniedMatchesOracle(t *testing.T) {
	now := time.Date(2025, 4, 15, 12, 0, 0, 0, time.UTC)
	cache := resolver.NewCache(0)
	cache.SetClock(func() time.Time { return now })
	var proofs, shortcuts, searches int
	for seed := int64(1); seed <= 300; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		v := &Validator{R: &resolver.Resolver{Cache: cache}}
		owners := randomDenialStore(rnd, now, &v.denials)
		var names []string
		for _, o := range owners {
			names = append(names, o, dnswire.Join(denialLabels[rnd.Intn(len(denialLabels))], o),
				dnswire.Join("*", o), dnswire.Join("a.b", o))
		}
		names = append(names, "nothing.test.", "_dsboot.a.com._signal.ns1.op.net.", "x.ns1.op.net.")
		for _, name := range names {
			got, gotOK := v.denied(name)
			want, wantOK := oracleDenied(&v.denials, name, now)
			if gotOK != wantOK || !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, %s: denied = %v %v, oracle %v %v\nstore %s", seed, name, got, gotOK, want, wantOK, describeStore(&v.denials))
			}
			if gotOK {
				proofs++
				if got.Cover.Name == got.Wildcard.Name {
					shortcuts++
				} else {
					searches++
				}
			}
		}
	}
	t.Logf("%d proofs: %d by the covering NSEC alone, %d with a second record", proofs, shortcuts, searches)
	if shortcuts < 100 || searches < 100 {
		t.Errorf("%d proofs by one record and %d by two: the stores exercise too few of either", shortcuts, searches)
	}
}

func describeStore(d *denialStore) string {
	var b strings.Builder
	for signer, nsecs := range d.bySigner {
		for _, s := range nsecs {
			fmt.Fprintf(&b, "\n  %s: %s (expires %s)", signer, s.rr, s.expires.Format(time.TimeOnly))
		}
	}
	return b.String()
}
