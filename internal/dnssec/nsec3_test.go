package dnssec

import (
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dnssecboot/internal/dnswire"
)

// TestNSEC3HashRFC5155Vector checks the Appendix-A example of RFC 5155:
// H("example", salt=AABBCCDD, iterations=12) =
// 0p9mhaveqvm6t7vbl5lop2u3t2rp3tom.
func TestNSEC3HashRFC5155Vector(t *testing.T) {
	salt, _ := hex.DecodeString("AABBCCDD")
	label, err := NSEC3HashLabel("example.", 12, salt)
	if err != nil {
		t.Fatal(err)
	}
	if label != "0p9mhaveqvm6t7vbl5lop2u3t2rp3tom" {
		t.Errorf("hash label = %s, want 0p9mhaveqvm6t7vbl5lop2u3t2rp3tom", label)
	}
	// Second vector from the same appendix: a.example.
	label2, err := NSEC3HashLabel("a.example.", 12, salt)
	if err != nil {
		t.Fatal(err)
	}
	if label2 != "35mthgpgcu1qg68fab165klnsnk3dpvl" {
		t.Errorf("hash label = %s, want 35mthgpgcu1qg68fab165klnsnk3dpvl", label2)
	}
}

func TestNSEC3HashIterationsAndSaltMatter(t *testing.T) {
	a, _ := NSEC3Hash("example.com.", 0, nil)
	b, _ := NSEC3Hash("example.com.", 1, nil)
	c, _ := NSEC3Hash("example.com.", 0, []byte{1})
	if string(a) == string(b) || string(a) == string(c) {
		t.Error("iterations/salt do not change the hash")
	}
	// Case-insensitive: hashes the canonical form.
	d, _ := NSEC3Hash("EXAMPLE.com", 0, nil)
	if string(a) != string(d) {
		t.Error("hash is case-sensitive")
	}
}

func TestNSEC3Owner(t *testing.T) {
	owner, err := NSEC3Owner("alpha.n3.test.", "n3.test.", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dnswire.CountLabels(owner) != 3 || !dnswire.IsSubdomain(owner, "n3.test.") {
		t.Errorf("owner = %s", owner)
	}
}

func nsec3RR(t *testing.T, ownerOf, zoneOrigin, nextOf string, types []dnswire.Type) dnswire.RR {
	t.Helper()
	owner, err := NSEC3Owner(ownerOf, zoneOrigin, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	next, err := NSEC3Hash(nextOf, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return dnswire.RR{Name: owner, Class: dnswire.ClassIN, TTL: 300, Data: &dnswire.NSEC3{
		HashAlg: NSEC3HashAlgSHA1, NextHashed: next, Types: types,
	}}
}

func TestNSEC3MatchAndNoData(t *testing.T) {
	rr := nsec3RR(t, "alpha.z.", "z.", "beta.z.", []dnswire.Type{dnswire.TypeA})
	if !NSEC3Matches(rr, "alpha.z.") {
		t.Error("own name does not match")
	}
	if NSEC3Matches(rr, "gamma.z.") {
		t.Error("foreign name matches")
	}
	if !NSEC3ProvesNoData(rr, "alpha.z.", dnswire.TypeMX) {
		t.Error("NODATA for MX not proven")
	}
	if NSEC3ProvesNoData(rr, "alpha.z.", dnswire.TypeA) {
		t.Error("NODATA claimed for present type")
	}
}

func TestNSEC3CoversInterval(t *testing.T) {
	// Build an interval between two known hashes and test a name whose
	// hash falls inside/outside. We brute-force a name inside the
	// interval by scanning candidates.
	names := []string{"a.z.", "b.z.", "c.z.", "d.z.", "e.z.", "f.z.", "g.z.", "h.z."}
	labels := map[string]string{}
	for _, n := range names {
		l, _ := NSEC3HashLabel(n, 0, nil)
		labels[n] = l
	}
	// Pick the two extremes as the interval, then any other name is
	// covered by the wraparound record (ownerOf=max, nextOf=min).
	min, max := names[0], names[0]
	for _, n := range names[1:] {
		if labels[n] < labels[min] {
			min = n
		}
		if labels[n] > labels[max] {
			max = n
		}
	}
	wrap := nsec3RR(t, max, "z.", min, nil)
	for _, n := range names {
		if n == min || n == max {
			if NSEC3Covers(wrap, n) {
				t.Errorf("boundary %s covered", n)
			}
			continue
		}
		if NSEC3Covers(wrap, n) {
			t.Errorf("interior name %s covered by wraparound record", n)
		}
	}
	// The forward record min→max covers everything strictly between.
	fwd := nsec3RR(t, min, "z.", max, nil)
	inside := 0
	for _, n := range names {
		if n == min || n == max {
			continue
		}
		if NSEC3Covers(fwd, n) {
			inside++
		}
	}
	if inside != len(names)-2 {
		t.Errorf("forward record covered %d of %d interior names", inside, len(names)-2)
	}
}

func TestCheckDenialNSEC3Shapes(t *testing.T) {
	// NODATA shape.
	nodata := []dnswire.RR{nsec3RR(t, "www.z.", "z.", "x.z.", []dnswire.Type{dnswire.TypeA})}
	if !CheckDenialNSEC3(nodata, "www.z.", dnswire.TypeMX) {
		t.Error("NODATA shape not accepted")
	}
	if CheckDenialNSEC3(nodata, "www.z.", dnswire.TypeA) {
		t.Error("denial accepted for a present type")
	}
	if CheckDenialNSEC3(nil, "www.z.", dnswire.TypeA) {
		t.Error("empty authority accepted")
	}
}

// stringNSEC3Covers is NSEC3Covers as it was before it compared raw
// hashes: the name hashed and encoded again, and base32hex labels
// compared as strings.
func stringNSEC3Covers(rr dnswire.RR, name string) bool {
	n, ok := nsec3Params(rr)
	if !ok || n.HashAlg != NSEC3HashAlgSHA1 {
		return false
	}
	label, err := NSEC3HashLabel(name, n.Iterations, n.Salt)
	if err != nil {
		return false
	}
	owner := ownerHashLabel(rr)
	next := base32HexEncode(n.NextHashed)
	if label == owner || label == next {
		return false
	}
	if owner < next {
		return owner < label && label < next
	}
	return label > owner || label < next
}

// TestNSEC3CoversMatchesStrings: over random names and NSEC3 records —
// intervals forward and wrapping around, a one-record chain, owners and
// next hashes equal to the name's hash, owner labels in upper case —
// the raw-hash check gives the string comparison's answer.
func TestNSEC3CoversMatchesStrings(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	random := func() []byte {
		b := make([]byte, 20)
		rng.Read(b)
		return b
	}
	covered, wraps := 0, 0
	for i := range 20_000 {
		name := fmt.Sprintf("n%d-%d.zone.", i, rng.Intn(1000))
		iterations, salt := uint16(rng.Intn(3)), random()[:rng.Intn(4)]
		h, err := NSEC3Hash(name, iterations, salt)
		if err != nil {
			t.Fatal(err)
		}
		owner, next := random(), random()
		switch rng.Intn(8) {
		case 0:
			owner = h
		case 1:
			next = h
		case 2:
			next = owner // a chain of one record
		case 3: // the name's hash just inside the interval
			owner, next = slices.Clone(h), slices.Clone(h)
			owner[19]--
			next[19]++
		}
		label := base32HexEncode(owner)
		if rng.Intn(4) == 0 {
			label = strings.ToUpper(label)
		}
		rr := dnswire.RR{Name: label + ".zone.", Class: dnswire.ClassIN, Data: &dnswire.NSEC3{
			HashAlg: NSEC3HashAlgSHA1, Iterations: iterations, Salt: salt, NextHashed: next}}
		want := stringNSEC3Covers(rr, name)
		if got := NSEC3Covers(rr, name); got != want {
			t.Fatalf("NSEC3Covers(%s, %s) = %v, the string comparison %v", rr, name, got, want)
		}
		if got := NSEC3CoversHash(rr, h); got != want {
			t.Fatalf("NSEC3CoversHash(%s, hash of %s) = %v, the string comparison %v", rr, name, got, want)
		}
		if want {
			covered++
			if string(owner) > string(next) {
				wraps++
			}
		}
	}
	if covered < 5000 || wraps < 1000 {
		t.Errorf("only %d names covered, %d by a wrapping interval", covered, wraps)
	}
}
