package dnssec

import (
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"dnssecboot/internal/dnswire"
)

var testNow = time.Date(2025, 4, 15, 12, 0, 0, 0, time.UTC)

var allAlgorithms = []uint8{
	dnswire.AlgRSASHA256,
	dnswire.AlgRSASHA512,
	dnswire.AlgECDSAP256SHA256,
	dnswire.AlgECDSAP384SHA384,
	dnswire.AlgEd25519,
}

func genKey(t *testing.T, alg uint8, flags uint16) *Key {
	t.Helper()
	k, err := GenerateKey(alg, flags, nil)
	if err != nil {
		t.Fatalf("GenerateKey(%d): %v", alg, err)
	}
	return k
}

func aRRset(owner string) []dnswire.RR {
	return []dnswire.RR{
		{Name: owner, Class: dnswire.ClassIN, TTL: 3600, Data: &dnswire.A{Addr: netip.MustParseAddr("192.0.2.1")}},
		{Name: owner, Class: dnswire.ClassIN, TTL: 3600, Data: &dnswire.A{Addr: netip.MustParseAddr("192.0.2.2")}},
	}
}

func keyRR(owner string, k *Key) dnswire.RR {
	return dnswire.RR{Name: owner, Class: dnswire.ClassIN, TTL: 3600, Data: k.DNSKEY()}
}

func TestSignVerifyAllAlgorithms(t *testing.T) {
	for _, alg := range allAlgorithms {
		alg := alg
		t.Run(dnswire.AlgorithmName(alg), func(t *testing.T) {
			t.Parallel()
			k := genKey(t, alg, dnswire.DNSKEYFlagZone)
			rrset := aRRset("www.example.com.")
			sig, err := SignRRset(rrset, k, ValidityWindow(testNow, "example.com."))
			if err != nil {
				t.Fatalf("SignRRset: %v", err)
			}
			if err := VerifySig(rrset, sig, keyRR("example.com.", k), testNow); err != nil {
				t.Fatalf("VerifySig: %v", err)
			}
		})
	}
}

func TestVerifyRejectsTamperedData(t *testing.T) {
	k := genKey(t, dnswire.AlgEd25519, dnswire.DNSKEYFlagZone)
	rrset := aRRset("www.example.com.")
	sig, err := SignRRset(rrset, k, ValidityWindow(testNow, "example.com."))
	if err != nil {
		t.Fatal(err)
	}
	rrset[0].Data = &dnswire.A{Addr: netip.MustParseAddr("203.0.113.66")}
	if err := VerifySig(rrset, sig, keyRR("example.com.", k), testNow); err == nil {
		t.Error("tampered RRset verified")
	}
}

func TestVerifyRejectsWrongKey(t *testing.T) {
	k1 := genKey(t, dnswire.AlgEd25519, dnswire.DNSKEYFlagZone)
	k2 := genKey(t, dnswire.AlgEd25519, dnswire.DNSKEYFlagZone)
	rrset := aRRset("www.example.com.")
	sig, err := SignRRset(rrset, k1, ValidityWindow(testNow, "example.com."))
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySig(rrset, sig, keyRR("example.com.", k2), testNow); err == nil {
		t.Error("verified with the wrong key")
	}
}

func TestVerifyTimeWindows(t *testing.T) {
	k := genKey(t, dnswire.AlgECDSAP256SHA256, dnswire.DNSKEYFlagZone)
	rrset := aRRset("www.example.com.")
	sig, err := SignRRset(rrset, k, ValidityWindow(testNow, "example.com."))
	if err != nil {
		t.Fatal(err)
	}
	key := keyRR("example.com.", k)
	if err := VerifySig(rrset, sig, key, testNow.Add(90*24*time.Hour)); err == nil {
		t.Error("expired signature verified")
	}
	if err := VerifySig(rrset, sig, key, testNow.Add(-90*24*time.Hour)); err == nil {
		t.Error("not-yet-valid signature verified")
	}
	expSig, err := SignRRset(rrset, k, ExpiredWindow(testNow, "example.com."))
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySig(rrset, expSig, key, testNow); err == nil {
		t.Error("ExpiredWindow signature verified at now")
	}
}

func TestVerifyRejectsOutOfZoneData(t *testing.T) {
	k := genKey(t, dnswire.AlgEd25519, dnswire.DNSKEYFlagZone)
	rrset := aRRset("www.other.org.")
	sig, err := SignRRset(rrset, k, ValidityWindow(testNow, "example.com."))
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySig(rrset, sig, keyRR("example.com.", k), testNow); err == nil {
		t.Error("out-of-zone RRset verified")
	}
}

func TestVerifyRejectsRevokedZoneBit(t *testing.T) {
	k := genKey(t, dnswire.AlgEd25519, dnswire.DNSKEYFlagZone)
	rrset := aRRset("www.example.com.")
	sig, err := SignRRset(rrset, k, ValidityWindow(testNow, "example.com."))
	if err != nil {
		t.Fatal(err)
	}
	bad := k.DNSKEY()
	bad.Flags = 0 // clear ZONE bit
	badRR := dnswire.RR{Name: "example.com.", Class: dnswire.ClassIN, TTL: 3600, Data: bad}
	if err := VerifySig(rrset, sig, badRR, testNow); err == nil {
		t.Error("key without ZONE flag accepted")
	}
}

func TestWildcardSignatureLabels(t *testing.T) {
	k := genKey(t, dnswire.AlgEd25519, dnswire.DNSKEYFlagZone)
	// Sign the wildcard RRset, then verify an expanded name against it,
	// as a resolver does for wildcard answers.
	wild := aRRset("*.example.com.")
	sig, err := SignRRset(wild, k, ValidityWindow(testNow, "example.com."))
	if err != nil {
		t.Fatal(err)
	}
	if sig.Data.(*dnswire.RRSIG).Labels != 2 {
		t.Fatalf("wildcard labels = %d, want 2", sig.Data.(*dnswire.RRSIG).Labels)
	}
	expanded := aRRset("host.example.com.")
	sigCopy := sig
	if err := VerifySig(expanded, sigCopy, keyRR("example.com.", k), testNow); err != nil {
		t.Errorf("wildcard-expanded verification failed: %v", err)
	}
}

func TestVerifyRRsetMultipleKeys(t *testing.T) {
	ksk := genKey(t, dnswire.AlgEd25519, dnswire.DNSKEYFlagZone|dnswire.DNSKEYFlagSEP)
	zsk := genKey(t, dnswire.AlgEd25519, dnswire.DNSKEYFlagZone)
	rrset := aRRset("www.example.com.")
	sig, err := SignRRset(rrset, zsk, ValidityWindow(testNow, "example.com."))
	if err != nil {
		t.Fatal(err)
	}
	keys := []dnswire.RR{keyRR("example.com.", ksk), keyRR("example.com.", zsk)}
	if err := VerifyRRset(rrset, []dnswire.RR{sig}, keys, testNow); err != nil {
		t.Errorf("VerifyRRset: %v", err)
	}
	if err := VerifyRRset(rrset, nil, keys, testNow); err == nil {
		t.Error("VerifyRRset with no sigs succeeded")
	}
}

func TestKeyTagStability(t *testing.T) {
	k := genKey(t, dnswire.AlgECDSAP256SHA256, dnswire.DNSKEYFlagZone|dnswire.DNSKEYFlagSEP)
	tag1 := k.KeyTag()
	tag2 := KeyTag(k.DNSKEY())
	if tag1 != tag2 {
		t.Errorf("key tag unstable: %d vs %d", tag1, tag2)
	}
}

func TestDSFromKeyAndMatch(t *testing.T) {
	for _, dt := range []uint8{dnswire.DigestSHA256, dnswire.DigestSHA384} {
		k := genKey(t, dnswire.AlgECDSAP256SHA256, dnswire.DNSKEYFlagZone|dnswire.DNSKEYFlagSEP)
		ds, err := DSFromKey("example.com.", k.DNSKEY(), dt)
		if err != nil {
			t.Fatalf("DSFromKey(%d): %v", dt, err)
		}
		wantLen := 32
		if dt == dnswire.DigestSHA384 {
			wantLen = 48
		}
		if len(ds.Digest) != wantLen {
			t.Errorf("digest type %d length %d, want %d", dt, len(ds.Digest), wantLen)
		}
		if !DSMatchesKey("example.com.", ds, k.DNSKEY()) {
			t.Error("DS does not match its own key")
		}
		if DSMatchesKey("other.com.", ds, k.DNSKEY()) {
			t.Error("DS matched key at the wrong owner")
		}
		other := genKey(t, dnswire.AlgECDSAP256SHA256, dnswire.DNSKEYFlagZone)
		if DSMatchesKey("example.com.", ds, other.DNSKEY()) {
			t.Error("DS matched an unrelated key")
		}
	}
}

func TestVerifyChainLink(t *testing.T) {
	ksk := genKey(t, dnswire.AlgEd25519, dnswire.DNSKEYFlagZone|dnswire.DNSKEYFlagSEP)
	zsk := genKey(t, dnswire.AlgEd25519, dnswire.DNSKEYFlagZone)
	owner := "example.com."
	keySet := []dnswire.RR{keyRR(owner, ksk), keyRR(owner, zsk)}
	sig, err := SignRRset(keySet, ksk, ValidityWindow(testNow, owner))
	if err != nil {
		t.Fatal(err)
	}
	ds, err := DSFromKey(owner, ksk.DNSKEY(), dnswire.DigestSHA256)
	if err != nil {
		t.Fatal(err)
	}
	dsSet := []dnswire.RR{{Name: owner, Class: dnswire.ClassIN, TTL: 3600, Data: ds}}
	if err := VerifyChainLink(owner, dsSet, keySet, []dnswire.RR{sig}, testNow); err != nil {
		t.Errorf("VerifyChainLink: %v", err)
	}

	// DS pointing at a key not in the set must fail.
	stranger := genKey(t, dnswire.AlgEd25519, dnswire.DNSKEYFlagZone|dnswire.DNSKEYFlagSEP)
	strangerDS, _ := DSFromKey(owner, stranger.DNSKEY(), dnswire.DigestSHA256)
	badDS := []dnswire.RR{{Name: owner, Class: dnswire.ClassIN, TTL: 3600, Data: strangerDS}}
	if err := VerifyChainLink(owner, badDS, keySet, []dnswire.RR{sig}, testNow); err == nil {
		t.Error("chain link verified with non-matching DS")
	}

	// DNSKEY RRset signed only by the ZSK (no SEP path from DS) fails
	// when the DS names the KSK but the sig was made by the ZSK... that
	// is actually acceptable per RFC only if DS matches the signing key;
	// here DS matches KSK and the signature must be by KSK.
	zskSig, err := SignRRset(keySet, zsk, ValidityWindow(testNow, owner))
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyChainLink(owner, dsSet, keySet, []dnswire.RR{zskSig}, testNow); err == nil {
		t.Error("chain link verified though DNSKEY RRset not signed by DS-matched key")
	}
}

func TestCDSHelpers(t *testing.T) {
	k := genKey(t, dnswire.AlgECDSAP256SHA256, dnswire.DNSKEYFlagZone|dnswire.DNSKEYFlagSEP)
	cds, err := CDSFromKey("example.ch.", k.DNSKEY(), dnswire.DigestSHA256)
	if err != nil {
		t.Fatal(err)
	}
	if cds.Type() != dnswire.TypeCDS {
		t.Errorf("CDS type = %s", cds.Type())
	}
	keys := []dnswire.RR{keyRR("example.ch.", k)}
	cdsRRs := []dnswire.RR{{Name: "example.ch.", Class: dnswire.ClassIN, TTL: 3600, Data: cds}}
	matched, ok := CDSMatchesDNSKEYs("example.ch.", cdsRRs, keys)
	if !ok || len(matched) != 1 {
		t.Errorf("CDSMatchesDNSKEYs = %v, %v", matched, ok)
	}
	// A CDS for a key that is not in the zone must be rejected
	// (RFC 8078 §3 precondition; the paper found 2 854 such zones).
	other := genKey(t, dnswire.AlgECDSAP256SHA256, dnswire.DNSKEYFlagZone|dnswire.DNSKEYFlagSEP)
	orphan, _ := CDSFromKey("example.ch.", other.DNSKEY(), dnswire.DigestSHA256)
	orphanRRs := []dnswire.RR{{Name: "example.ch.", Class: dnswire.ClassIN, TTL: 3600, Data: orphan}}
	if _, ok := CDSMatchesDNSKEYs("example.ch.", orphanRRs, keys); ok {
		t.Error("orphan CDS accepted")
	}
}

func TestDeleteSentinels(t *testing.T) {
	cds := DeleteCDS()
	if !cds.IsDelete() {
		t.Error("DeleteCDS not a delete sentinel")
	}
	ck := DeleteCDNSKEY()
	if !ck.IsDelete() {
		t.Error("DeleteCDNSKEY not a delete sentinel")
	}
	set := []dnswire.RR{
		{Name: "x.se.", Class: dnswire.ClassIN, TTL: 0, Data: cds},
		{Name: "x.se.", Class: dnswire.ClassIN, TTL: 0, Data: ck},
	}
	if !IsDeleteSet(set) {
		t.Error("delete set not recognised")
	}
	k, _ := GenerateKey(dnswire.AlgEd25519, dnswire.DNSKEYFlagZone, nil)
	real, _ := CDSFromKey("x.se.", k.DNSKEY(), dnswire.DigestSHA256)
	mixed := append(set, dnswire.RR{Name: "x.se.", Class: dnswire.ClassIN, TTL: 0, Data: real})
	if IsDeleteSet(mixed) {
		t.Error("mixed delete+real set treated as delete")
	}
	if IsDeleteSet(nil) {
		t.Error("empty set treated as delete")
	}
}

func TestDSSetFromCDS(t *testing.T) {
	k, _ := GenerateKey(dnswire.AlgEd25519, dnswire.DNSKEYFlagZone|dnswire.DNSKEYFlagSEP, nil)
	cds, _ := CDSFromKey("y.ch.", k.DNSKEY(), dnswire.DigestSHA256)
	rrs := []dnswire.RR{
		{Name: "y.ch.", Class: dnswire.ClassIN, TTL: 300, Data: cds},
		{Name: "y.ch.", Class: dnswire.ClassIN, TTL: 300, Data: DeleteCDS()},
	}
	out := DSSetFromCDS(rrs)
	if len(out) != 1 {
		t.Fatalf("DSSetFromCDS produced %d records, want 1 (delete skipped)", len(out))
	}
	if out[0].Type() != dnswire.TypeDS {
		t.Errorf("converted type = %s", out[0].Type())
	}
	got := out[0].Data.(*dnswire.DS)
	if got.KeyTag != cds.KeyTag || string(got.Digest) != string(cds.Digest) {
		t.Error("converted DS differs from CDS content")
	}
}

func TestRSAPublicKeyRoundTrip(t *testing.T) {
	k := genKey(t, dnswire.AlgRSASHA256, dnswire.DNSKEYFlagZone)
	pub, err := unpackRSAPublicKey(k.DNSKEY().PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	if pub.E != 65537 {
		t.Errorf("exponent = %d", pub.E)
	}
	if _, err := unpackRSAPublicKey([]byte{1}); err == nil {
		t.Error("short RSA key accepted")
	}
}

func TestGenerateKeyUnknownAlgorithm(t *testing.T) {
	if _, err := GenerateKey(99, dnswire.DNSKEYFlagZone, nil); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestNSECCoversName(t *testing.T) {
	nsec := dnswire.RR{Name: "alpha.example.", Class: dnswire.ClassIN, TTL: 300,
		Data: &dnswire.NSEC{NextDomain: "delta.example.", Types: []dnswire.Type{dnswire.TypeA}}}
	if !NSECCoversName(nsec, "beta.example.") {
		t.Error("beta not covered by alpha..delta")
	}
	if NSECCoversName(nsec, "alpha.example.") {
		t.Error("owner itself covered")
	}
	if NSECCoversName(nsec, "zeta.example.") {
		t.Error("zeta covered by alpha..delta")
	}
	// Wraparound NSEC: last name → apex.
	wrap := dnswire.RR{Name: "zeta.example.", Class: dnswire.ClassIN, TTL: 300,
		Data: &dnswire.NSEC{NextDomain: "example.", Types: []dnswire.Type{dnswire.TypeA}}}
	if !NSECCoversName(wrap, "zzz.example.") {
		t.Error("wraparound interval does not cover zzz")
	}
	if NSECCoversName(wrap, "aaa.") || NSECCoversName(wrap, "zzz.other.") {
		t.Error("wraparound interval covers a name outside its zone")
	}
}

// TestProveNXDomain pins each clause of the NXDOMAIN proof rule on the
// zone example. = {example., a.example., b.c.example., d.example.
// (delegation), e.example. (DNAME)}.
func TestProveNXDomain(t *testing.T) {
	nsec := func(owner, next string, types ...dnswire.Type) dnswire.RR {
		return dnswire.RR{Name: owner, Class: dnswire.ClassIN, TTL: 300,
			Data: &dnswire.NSEC{NextDomain: next, Types: append(types, dnswire.TypeRRSIG, dnswire.TypeNSEC)}}
	}
	chain := []dnswire.RR{
		nsec("example.", "a.example.", dnswire.TypeNS, dnswire.TypeSOA),
		nsec("a.example.", "b.c.example.", dnswire.TypeA),
		nsec("b.c.example.", "d.example.", dnswire.TypeA),
		nsec("d.example.", "e.example.", dnswire.TypeNS),
		nsec("e.example.", "example.", dnswire.TypeDNAME),
	}
	held := func(rrs []dnswire.RR) func(string) (dnswire.RR, bool) {
		return func(n string) (dnswire.RR, bool) { return CoveringNSEC(rrs, n) }
	}
	for _, tc := range []struct {
		name string
		rrs  []dnswire.RR
		want bool
	}{
		{"ab.example.", chain, true},
		{"ab.example.", chain[1:2], false}, // wildcard *.example. unproven
		{"x.a.example.", chain, true},      // closest encloser a.example.
		{"c.example.", chain, false},       // empty non-terminal above b.c.example.
		{"x.c.example.", chain, true},      // wildcard *.c.example. covered too
		{"x.d.example.", chain, false},     // below the delegation
		{"da.example.", chain, true},       // after the cut's subtree
		{"x.e.example.", chain, false},     // below the DNAME
		{"zz.example.", chain, true},       // wraparound
		{"a.example.", chain, false},       // exists
		{"other.", chain, false},           // outside the zone
		{"zz.example.", chain[4:], false},  // wildcard *.example. unproven
		{"zz.example.", append(chain[4:], chain[0]), true},
	} {
		_, got := ProveNXDomain(tc.name, held(tc.rrs))
		if got != tc.want {
			t.Errorf("ProveNXDomain(%s) over %d NSECs = %t, want %t", tc.name, len(tc.rrs), got, tc.want)
		}
	}
}

func TestNSECProvesNoData(t *testing.T) {
	nsec := dnswire.RR{Name: "x.example.", Class: dnswire.ClassIN, TTL: 300,
		Data: &dnswire.NSEC{NextDomain: "y.example.", Types: []dnswire.Type{dnswire.TypeA, dnswire.TypeRRSIG}}}
	if !NSECProvesNoData(nsec, "x.example.", dnswire.TypeCDS) {
		t.Error("NODATA for CDS not proven")
	}
	if NSECProvesNoData(nsec, "x.example.", dnswire.TypeA) {
		t.Error("NODATA claimed for a present type")
	}
	if NSECProvesNoData(nsec, "q.example.", dnswire.TypeCDS) {
		t.Error("NODATA claimed at the wrong owner")
	}
}

func TestCheckDenial(t *testing.T) {
	auth := []dnswire.RR{
		{Name: "m.example.", Class: dnswire.ClassIN, TTL: 300,
			Data: &dnswire.NSEC{NextDomain: "p.example.", Types: []dnswire.Type{dnswire.TypeA}}},
	}
	if CheckDenial(auth, "n.example.", dnswire.TypeA) {
		t.Error("NXDOMAIN denial accepted without the wildcard proof")
	}
	// The apex NSEC covers *.example., the closest encloser's wildcard.
	auth = append(auth, dnswire.RR{Name: "example.", Class: dnswire.ClassIN, TTL: 300,
		Data: &dnswire.NSEC{NextDomain: "m.example.", Types: []dnswire.Type{dnswire.TypeNS, dnswire.TypeSOA}}})
	if !CheckDenial(auth, "n.example.", dnswire.TypeA) {
		t.Error("NXDOMAIN denial not found")
	}
	if !CheckDenial(auth, "m.example.", dnswire.TypeCDS) {
		t.Error("NODATA denial not found")
	}
	if CheckDenial(nil, "n.example.", dnswire.TypeA) {
		t.Error("denial found in empty authority")
	}
}

func TestVerifySigTypeMismatches(t *testing.T) {
	k := genKey(t, dnswire.AlgEd25519, dnswire.DNSKEYFlagZone)
	rrset := aRRset("www.example.com.")
	sig, err := SignRRset(rrset, k, ValidityWindow(testNow, "example.com."))
	if err != nil {
		t.Fatal(err)
	}
	// Not an RRSIG in the sig slot.
	notSig := dnswire.RR{Name: "example.com.", Class: dnswire.ClassIN, Data: dnswire.NewNS("x.")}
	if err := VerifySig(rrset, notSig, keyRR("example.com.", k), testNow); err == nil {
		t.Error("non-RRSIG accepted")
	}
	// Not a DNSKEY in the key slot.
	if err := VerifySig(rrset, sig, notSig, testNow); err == nil {
		t.Error("non-DNSKEY accepted")
	}
	// RRSIG covering a different type than the RRset.
	nsSet := []dnswire.RR{{Name: "www.example.com.", Class: dnswire.ClassIN, TTL: 1, Data: dnswire.NewNS("x.")}}
	if err := VerifySig(nsSet, sig, keyRR("example.com.", k), testNow); err == nil {
		t.Error("type-mismatched RRSIG accepted")
	}
	// Empty RRset.
	if err := VerifySig(nil, sig, keyRR("example.com.", k), testNow); err == nil {
		t.Error("empty RRset accepted")
	}
	// CDNSKEY works as the verification key (same key material).
	cdnskeyRR := dnswire.RR{Name: "example.com.", Class: dnswire.ClassIN, TTL: 1,
		Data: &dnswire.CDNSKEY{DNSKEY: *k.DNSKEY()}}
	if err := VerifySig(rrset, sig, cdnskeyRR, testNow); err != nil {
		t.Errorf("CDNSKEY key slot rejected: %v", err)
	}
}

func TestVerifyBytesMalformedKeys(t *testing.T) {
	rrset := aRRset("x.example.com.")
	k := genKey(t, dnswire.AlgECDSAP256SHA256, dnswire.DNSKEYFlagZone)
	sig, err := SignRRset(rrset, k, ValidityWindow(testNow, "example.com."))
	if err != nil {
		t.Fatal(err)
	}
	// Key with truncated public-key material.
	bad := k.DNSKEY()
	bad.PublicKey = bad.PublicKey[:10]
	badRR := dnswire.RR{Name: "example.com.", Class: dnswire.ClassIN, TTL: 1, Data: bad}
	if err := VerifySig(rrset, sig, badRR, testNow); err == nil {
		t.Error("truncated ECDSA key accepted")
	}
	// Key with a point not on the curve.
	offCurve := k.DNSKEY()
	offCurve.PublicKey = append([]byte(nil), offCurve.PublicKey...)
	offCurve.PublicKey[5] ^= 0xFF
	offRR := dnswire.RR{Name: "example.com.", Class: dnswire.ClassIN, TTL: 1, Data: offCurve}
	if err := VerifySig(rrset, sig, offRR, testNow); err == nil {
		t.Error("off-curve ECDSA key accepted")
	}
	// Unsupported algorithm.
	alien := k.DNSKEY()
	alien.Algorithm = 99
	alienSig := sig
	alienSigData := *sig.Data.(*dnswire.RRSIG)
	alienSigData.Algorithm = 99
	alienSig.Data = &alienSigData
	alienRR := dnswire.RR{Name: "example.com.", Class: dnswire.ClassIN, TTL: 1, Data: alien}
	if err := VerifySig(rrset, alienSig, alienRR, testNow); err == nil {
		t.Error("unsupported algorithm accepted")
	}
}

func TestSignRRsetRejectsMixedSets(t *testing.T) {
	k := genKey(t, dnswire.AlgEd25519, dnswire.DNSKEYFlagZone)
	mixed := []dnswire.RR{
		aRRset("a.example.com.")[0],
		aRRset("b.example.com.")[0],
	}
	if _, err := SignRRset(mixed, k, ValidityWindow(testNow, "example.com.")); err == nil {
		t.Error("mixed-owner RRset signed")
	}
	if _, err := SignRRset(nil, k, ValidityWindow(testNow, "example.com.")); err == nil {
		t.Error("empty RRset signed")
	}
}

func TestDSFromKeyUnsupportedDigest(t *testing.T) {
	k := genKey(t, dnswire.AlgEd25519, dnswire.DNSKEYFlagZone)
	if _, err := DSFromKey("x.", k.DNSKEY(), 99); err == nil {
		t.Error("unknown digest type accepted")
	}
}

// TestWildcardTestsMatchBuiltName: wildcardOrder and deniesWildcard,
// which judge "*."+ce without building it, must agree with
// CanonicalNameLess and denies on the built name, for names at, above,
// beside and below ce, the wildcard itself and names below it, and
// random NSEC intervals with and without wraparound, delegations and
// DNAMEs.
func TestWildcardTestsMatchBuiltName(t *testing.T) {
	labels := []string{"*", ")", "+", "a", "z", "0", "_dsboot", "ä"}
	rnd := rand.New(rand.NewSource(1))
	name := func(under string) string {
		for i := rnd.Intn(4); i > 0; i-- {
			under = dnswire.Join(labels[rnd.Intn(len(labels))], under)
		}
		return under
	}
	var ces []string
	for _, base := range []string{".", "example.", "a.example.", "_signal.ns1.op.net."} {
		ces = append(ces, base, name(base))
	}
	for i := 0; i < 200_000; i++ {
		ce := ces[rnd.Intn(len(ces))]
		wc := dnswire.Join("*", ce)
		pick := func() string {
			switch rnd.Intn(4) {
			case 0:
				return name(wc)
			case 1:
				return name(ce)
			default:
				return name(ces[rnd.Intn(len(ces))])
			}
		}
		x := pick()
		want := 0
		switch {
		case dnswire.CanonicalNameLess(x, wc):
			want = -1
		case x != wc:
			want = 1
		}
		if got := wildcardOrder(x, ce); got != want {
			t.Fatalf("wildcardOrder(%q, %q) = %d, comparing with %q says %d", x, ce, got, wc, want)
		}
		var types []dnswire.Type
		switch rnd.Intn(4) {
		case 0:
			types = []dnswire.Type{dnswire.TypeNS}
		case 1:
			types = []dnswire.Type{dnswire.TypeNS, dnswire.TypeSOA}
		case 2:
			types = []dnswire.Type{dnswire.TypeDNAME}
		}
		iv, _ := intervalOf(dnswire.RR{Name: x, Class: dnswire.ClassIN, Data: &dnswire.NSEC{NextDomain: pick(), Types: types}})
		if got, want := iv.deniesWildcard(ce), iv.denies(wc); got != want {
			t.Fatalf("NSEC %s -> %s %v: deniesWildcard(%q) = %v, denies(%q) = %v", iv.owner, iv.next, types, ce, got, wc, want)
		}
	}
}
