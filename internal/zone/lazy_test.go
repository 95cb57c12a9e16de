package zone

import (
	"fmt"
	"math/rand"
	"net/netip"
	"strings"
	"sync"
	"testing"

	"dnssecboot/internal/dnssec"
	"dnssecboot/internal/dnswire"
)

// randomSignedBase builds an unsigned zone with cuts, occluded glue and
// a wildcard, keyed with two Ed25519 SEP keys and a ZSK drawn from rng.
func randomSignedBase(t *testing.T, rng *rand.Rand) *Zone {
	t.Helper()
	z := New("example.")
	z.SetBasics("ns1.example.", []string{"ns1.example.", "ns2.example.net."}, 1)
	z.MustAdd(dnswire.RR{Name: "ns1.example.", TTL: 300, Data: &dnswire.A{Addr: netip.MustParseAddr("192.0.2.1")}})
	z.MustAdd(dnswire.RR{Name: "*.wild.example.", TTL: 300, Data: &dnswire.TXT{Strings: []string{"wild"}}})
	for i := range 3 + rng.Intn(6) {
		name := fmt.Sprintf("h%d.example.", i)
		if rng.Intn(3) == 0 {
			name = fmt.Sprintf("a.h%d.example.", i)
		}
		z.MustAdd(dnswire.RR{Name: name, TTL: 300, Data: &dnswire.A{Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(10 + i)})}})
		if rng.Intn(2) == 0 {
			z.MustAdd(dnswire.RR{Name: name, TTL: 600, Data: &dnswire.TXT{Strings: []string{name}}})
		}
	}
	for i := range 1 + rng.Intn(3) {
		cut := fmt.Sprintf("sub%d.example.", i)
		z.MustAdd(dnswire.RR{Name: cut, TTL: 3600, Data: dnswire.NewNS("ns." + cut)})
		z.MustAdd(dnswire.RR{Name: "ns." + cut, TTL: 3600, Data: &dnswire.A{Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(100 + i)})}})
		if rng.Intn(2) == 0 {
			z.MustAdd(dnswire.RR{Name: cut, TTL: 3600, Data: &dnswire.DS{KeyTag: uint16(i), Algorithm: dnswire.AlgEd25519, DigestType: dnswire.DigestSHA256, Digest: make([]byte, 32)}})
		}
	}
	for _, flags := range []uint16{dnswire.DNSKEYFlagZone | dnswire.DNSKEYFlagSEP, dnswire.DNSKEYFlagZone | dnswire.DNSKEYFlagSEP, dnswire.DNSKEYFlagZone} {
		k, err := dnssec.GenerateKey(dnswire.AlgEd25519, flags, rng)
		if err != nil {
			t.Fatal(err)
		}
		z.Keys = append(z.Keys, k)
	}
	return z
}

// randomSignConfig draws one of the four chain shapes, sometimes expired.
func randomSignConfig(rng *rand.Rand) SignConfig {
	cfg := SignConfig{Now: testNow, Expired: rng.Intn(4) == 0}
	switch rng.Intn(3) {
	case 0:
		cfg.SkipNSEC = true
	case 1:
		cfg.UseNSEC3 = true
	}
	return cfg
}

// twins applies every operation to a lazily signed zone and to its
// eager twin, whose every signature is read right after each Sign.
type twins struct {
	t           *testing.T
	lazy, eager *Zone
}

func (tw *twins) sign(cfg SignConfig) {
	for _, z := range []*Zone{tw.lazy, tw.eager} {
		if err := z.Sign(cfg); err != nil {
			tw.t.Fatal(err)
		}
	}
	tw.eager.All()
}

// same fails when two reads of the twins differ.
func (tw *twins) same(what string, lazy, eager []dnswire.RR) {
	tw.t.Helper()
	if l, e := rrText(lazy), rrText(eager); l != e {
		tw.t.Fatalf("%s differs:\nlazy\n%s\neager\n%s", what, l, e)
	}
}

func rrText(rrs []dnswire.RR) string {
	var sb strings.Builder
	for _, rr := range rrs {
		sb.WriteString(rr.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// step runs one random operation on both zones.
func (tw *twins) step(rng *rand.Rand) string {
	names := tw.eager.Names()
	name := names[rng.Intn(len(names))]
	types := tw.eager.TypesAt(name)
	typ := dnswire.TypeA
	if len(types) > 0 {
		typ = types[rng.Intn(len(types))]
	}
	switch op := rng.Intn(10); op {
	case 0:
		tw.same("Sigs "+name+" "+typ.String(), tw.lazy.AppendSigs(nil, name, typ), tw.eager.AppendSigs(nil, name, typ))
		return "Sigs"
	case 1:
		tw.same("RRset "+name+" "+typ.String(), tw.lazy.RRset(name, typ), tw.eager.RRset(name, typ))
		return "RRset"
	case 2:
		// A new member of an existing RRset, or an RRSIG the signer did
		// not make.
		rr := dnswire.RR{Name: name, TTL: 300, Data: &dnswire.TXT{Strings: []string{fmt.Sprint("added ", rng.Int())}}}
		if rng.Intn(3) == 0 {
			rr.Data = &dnswire.RRSIG{TypeCovered: typ, Algorithm: dnswire.AlgEd25519, Labels: 2, OrigTTL: 300,
				Expiration: 2, Inception: 1, KeyTag: uint16(rng.Int()), SignerName: "example.", Signature: []byte{byte(rng.Int())}}
		} else if typ == dnswire.TypeA {
			rr.Data = &dnswire.A{Addr: netip.AddrFrom4([4]byte{198, 51, 100, byte(rng.Int())})}
		}
		tw.lazy.MustAdd(rr)
		tw.eager.MustAdd(rr)
		return "Add " + rr.Type().String()
	case 3:
		if typ == dnswire.TypeSOA {
			return "skip" // the zone could not be signed again
		}
		tw.lazy.RemoveSet(name, typ)
		tw.eager.RemoveSet(name, typ)
		return "RemoveSet " + typ.String()
	case 4:
		if name == tw.eager.Origin {
			return "skip"
		}
		tw.lazy.RemoveName(name)
		tw.eager.RemoveName(name)
		return "RemoveName"
	case 5:
		tw.lazy, tw.eager = tw.lazy.Clone(), tw.eager.Clone()
		return "Clone"
	case 6:
		cfg := SignConfig{Now: testNow, Expired: rng.Intn(2) == 0}
		for _, z := range []*Zone{tw.lazy, tw.eager} {
			if err := z.ResignRRset(name, typ, cfg); err != nil {
				tw.t.Fatal(err)
			}
		}
		return "ResignRRset"
	case 7:
		for _, z := range []*Zone{tw.lazy, tw.eager} {
			if err := z.PublishCDS(dnswire.DigestSHA256); err != nil {
				tw.t.Fatal(err)
			}
		}
		return "PublishCDS"
	case 8:
		tw.sign(randomSignConfig(rng))
		return "Sign"
	default:
		if l, e := tw.lazy.Size(), tw.eager.Size(); l != e {
			tw.t.Fatalf("Size: lazy %d, eager %d", l, e)
		}
		return "Size"
	}
}

// TestLazySigningMatchesEager: whatever is read, written, cloned or
// re-signed, and in whatever order, a lazily signed zone ends holding
// exactly what eager signing would have left in it, stale signatures
// included.
func TestLazySigningMatchesEager(t *testing.T) {
	ops := map[string]int{}
	for seed := range int64(60) {
		rng := rand.New(rand.NewSource(seed))
		base := randomSignedBase(t, rng)
		tw := &twins{t: t, lazy: base.Clone(), eager: base.Clone()}
		tw.sign(randomSignConfig(rng))
		var trail []string
		for range 25 {
			trail = append(trail, tw.step(rng))
			ops[trail[len(trail)-1]]++
		}
		if l, e := tw.lazy.Size(), tw.eager.Size(); l != e {
			t.Fatalf("seed %d after %v: Size lazy %d, eager %d", seed, trail, l, e)
		}
		if l, e := tw.lazy.Text(), tw.eager.Text(); l != e {
			t.Fatalf("seed %d after %v: zones differ:\nlazy\n%s\neager\n%s", seed, trail, l, e)
		}
	}
	t.Logf("operations run: %v", ops)
}

// TestSignRefusesAKeyThatCannotSign: a key without a private part is
// refused by Sign itself, not on some later read, and the zone is left
// as it was.
func TestSignRefusesAKeyThatCannotSign(t *testing.T) {
	z := buildTestZone(t)
	z.Keys = []*dnssec.Key{{Flags: dnswire.DNSKEYFlagZone | dnswire.DNSKEYFlagSEP, Algorithm: dnswire.AlgEd25519}}
	before := z.Text()
	if err := z.Sign(SignConfig{Now: testNow}); err == nil || !strings.Contains(err.Error(), "no private part") {
		t.Fatalf("Sign with a public-only key: %v", err)
	}
	if z.Text() != before {
		t.Error("a refused Sign changed the zone")
	}
}

// TestConcurrentFirstReads: readers racing to make the same pending
// signatures all get the one that was stored. ECDSA signatures are
// random, so equal bytes show that exactly one was inserted.
func TestConcurrentFirstReads(t *testing.T) {
	z := buildTestZone(t)
	if err := z.GenerateKeys(SignConfig{}, nil); err != nil {
		t.Fatal(err)
	}
	if err := z.Sign(SignConfig{Now: testNow}); err != nil {
		t.Fatal(err)
	}
	type rrset struct {
		owner string
		typ   dnswire.Type
	}
	var sets []rrset
	for _, name := range z.Names() {
		for _, typ := range z.TypesAt(name) {
			sets = append(sets, rrset{name, typ})
		}
	}
	const readers = 16
	seen := make([][]string, readers)
	var wg sync.WaitGroup
	for r := range readers {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for _, k := range sets {
				seen[r] = append(seen[r], rrText(z.AppendSigs(nil, k.owner, k.typ)))
			}
		}(r)
	}
	wg.Wait()
	signed := 0
	for i, k := range sets {
		stored := rrText(z.AppendSigs(nil, k.owner, k.typ))
		for r := range readers {
			if seen[r][i] != stored {
				t.Fatalf("reader %d saw for %s/%s\n%s\nbut the zone holds\n%s", r, k.owner, k.typ, seen[r][i], stored)
			}
		}
		if stored != "" {
			signed++
		}
	}
	if signed == 0 {
		t.Fatal("no RRset was signed")
	}
}
