package zone

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"dnssecboot/internal/dnssec"
	"dnssecboot/internal/dnswire"
)

// The store is checked against model, a naive reference: a map from
// (name, type) to records in insertion order, signed eagerly. Keys are
// Ed25519, whose signatures are deterministic, so the zone's lazily
// made signatures and the model's eager ones are the same bytes.

// modelNames are the owners an op sequence works on: the apex, a
// wildcard, an empty non-terminal's child, and a name that becomes a
// cut when it gets NS, with glue and deeper data beneath it.
var modelNames = []string{
	"example.", "a.example.", "b.a.example.", "*.example.", "z.example.",
	"sub.example.", "ns.sub.example.", "deep.ns.sub.example.",
}

var (
	modelAddTypes = []dnswire.Type{dnswire.TypeA, dnswire.TypeTXT, dnswire.TypeNS, dnswire.TypeDS, dnswire.TypeMX, dnswire.TypeRRSIG}
	// modelTypes are the types removed and read: the added ones and
	// the ones only the zone and Sign make.
	modelTypes = append(slices.Clone(modelAddTypes), dnswire.TypeSOA, dnswire.TypeNSEC, dnswire.TypeDNSKEY)
)

// modelKeys are two SEP keys and a ZSK, so the DNSKEY RRset carries
// two signatures.
var modelKeys = sync.OnceValue(func() []*dnssec.Key {
	rng := rand.New(rand.NewSource(1))
	var keys []*dnssec.Key
	for _, flags := range []uint16{dnswire.DNSKEYFlagZone | dnswire.DNSKEYFlagSEP, dnswire.DNSKEYFlagZone | dnswire.DNSKEYFlagSEP, dnswire.DNSKEYFlagZone} {
		k, err := dnssec.GenerateKey(dnswire.AlgEd25519, flags, rng)
		if err != nil {
			panic(err)
		}
		keys = append(keys, k)
	}
	return keys
})

type model struct {
	origin string
	sets   map[string]map[dnswire.Type][]dnswire.RR
}

func newModel(origin string) *model {
	return &model{origin: origin, sets: map[string]map[dnswire.Type][]dnswire.RR{}}
}

func (m *model) add(rr dnswire.RR) {
	rr.Name = dnswire.CanonicalName(rr.Name)
	if rr.Class == 0 {
		rr.Class = dnswire.ClassIN
	}
	if m.sets[rr.Name] == nil {
		m.sets[rr.Name] = map[dnswire.Type][]dnswire.RR{}
	}
	set := m.sets[rr.Name][rr.Type()]
	for i := range set {
		if set[i].Equal(rr) {
			set[i] = rr
			return
		}
	}
	m.sets[rr.Name][rr.Type()] = append(set, rr)
}

func (m *model) removeSet(name string, typ dnswire.Type) {
	delete(m.sets[name], typ)
	if len(m.sets[name]) == 0 {
		delete(m.sets, name)
	}
}

func (m *model) set(name string, typ dnswire.Type) []dnswire.RR { return m.sets[name][typ] }

func (m *model) names() []string {
	var names []string
	for n := range m.sets {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return dnswire.CanonicalNameLess(names[i], names[j]) })
	return names
}

func (m *model) types(name string) []dnswire.Type {
	var types []dnswire.Type
	for t := range m.sets[name] {
		types = append(types, t)
	}
	slices.Sort(types)
	return types
}

func (m *model) exists(name string) bool {
	for n := range m.sets {
		if dnswire.IsSubdomain(n, name) {
			return true
		}
	}
	return false
}

func (m *model) cut(name string) bool {
	return name != m.origin && len(m.set(name, dnswire.TypeNS)) > 0
}

// occluded: some ancestor strictly between name and the apex is a cut.
func (m *model) occluded(name string) bool {
	for a := dnswire.Parent(name); a != m.origin && a != "."; a = dnswire.Parent(a) {
		if m.cut(a) {
			return true
		}
	}
	return false
}

func (m *model) size() int {
	n := 0
	for _, sets := range m.sets {
		for _, set := range sets {
			n += len(set)
		}
	}
	return n
}

func (m *model) unsign() {
	for _, name := range m.names() {
		for _, typ := range []dnswire.Type{dnswire.TypeRRSIG, dnswire.TypeNSEC, dnswire.TypeDNSKEY} {
			m.removeSet(name, typ)
		}
	}
}

// sign is Sign done the obvious way: every signature made at once.
func (m *model) sign(cfg SignConfig, keys []*dnssec.Key) {
	m.unsign()
	for _, k := range keys {
		m.add(dnswire.RR{Name: m.origin, TTL: 3600, Data: k.DNSKEY()})
	}
	var auth []string
	for _, n := range m.names() {
		if !m.occluded(n) {
			auth = append(auth, n)
		}
	}
	if !cfg.SkipNSEC {
		ttl := m.set(m.origin, dnswire.TypeSOA)[0].Data.(*dnswire.SOA).Minimum
		for i, name := range auth {
			var types []dnswire.Type
			for _, t := range append(m.types(name), dnswire.TypeRRSIG, dnswire.TypeNSEC) {
				cutType := t == dnswire.TypeNS || t == dnswire.TypeDS || t == dnswire.TypeNSEC || t == dnswire.TypeRRSIG
				if !m.cut(name) || cutType {
					types = append(types, t)
				}
			}
			slices.Sort(types)
			m.add(dnswire.RR{Name: name, TTL: ttl, Data: &dnswire.NSEC{NextDomain: auth[(i+1)%len(auth)], Types: slices.Compact(types)}})
		}
	}
	opts := dnssec.ValidityWindow(cfg.Now, m.origin)
	if cfg.Expired {
		opts = dnssec.ExpiredWindow(cfg.Now, m.origin)
	}
	var seps []*dnssec.Key
	for _, k := range keys {
		if k.IsSEP() {
			seps = append(seps, k)
		}
	}
	zsk := keys[len(keys)-1]
	for _, name := range auth {
		for _, typ := range m.types(name) {
			if typ == dnswire.TypeRRSIG || (m.cut(name) && typ == dnswire.TypeNS) {
				continue
			}
			signers := []*dnssec.Key{zsk}
			if typ == dnswire.TypeDNSKEY {
				signers = seps
			}
			for _, k := range signers {
				sig, err := dnssec.SignRRset(m.set(name, typ), k, opts)
				if err != nil {
					panic(err)
				}
				m.add(sig)
			}
		}
	}
}

// text is WriteTo's master file: headers, the SOA, then every other
// record by owner in canonical order, types ascending.
func (m *model) text() string {
	var sb strings.Builder
	sb.WriteString("$ORIGIN " + m.origin + "\n$TTL 3600\n")
	if soa := m.set(m.origin, dnswire.TypeSOA); len(soa) > 0 {
		sb.WriteString(soa[0].String() + "\n")
	}
	for _, name := range m.names() {
		for _, typ := range m.types(name) {
			if typ == dnswire.TypeSOA {
				continue
			}
			sb.WriteString(rrText(m.set(name, typ)))
		}
	}
	return sb.String()
}

// storeRun applies one op sequence, decoded from data, to a zone and to
// the model. After every op it compares every read that makes no
// signature; with eager set it also compares the RRSIG sets and the
// master file, which make every pending signature right away. Without
// it those are compared only by a read op and at the end, so pending
// signatures live on across writes and Clones.
type storeRun struct {
	t     *testing.T
	z     *Zone
	m     *model
	eager bool
}

func newStoreRun(t *testing.T, eager bool) *storeRun {
	r := &storeRun{t: t, z: New("example."), m: newModel("example."), eager: eager}
	r.z.Keys = modelKeys()
	t.Helper()
	for _, rr := range []dnswire.RR{
		{Name: "example.", TTL: 3600, Data: &dnswire.SOA{MName: "ns1.example.net.", RName: "hostmaster.example.", Serial: 1, Minimum: 300}},
		{Name: "example.", TTL: 3600, Data: dnswire.NewNS("ns1.example.net.")},
	} {
		r.z.MustAdd(rr)
		r.m.add(rr)
	}
	return r
}

// run applies the ops data encodes, four bytes each (op, owner, type,
// value), then compares every read. It returns the ops run.
func (r *storeRun) run(data []byte) []string {
	r.t.Helper()
	var trail []string
	for ; len(data) >= 4; data = data[4:] {
		var op string
		var read bool
		if data[0] >= 240 {
			op, data = r.addRecords(data)
		} else {
			op, read = r.step(data[0], modelNames[int(data[1])%len(modelNames)], data[2], data[3])
		}
		trail = append(trail, op)
		r.check(trail, r.eager || read)
	}
	r.check(trail, true)
	return trail
}

// addRecords runs the op an op byte of 240 or more picks: one
// AddRecords call with the records of the next value%8+1 groups (their
// owner, type and value; the op byte is not read), which the model adds
// one by one. Every other op is checked right after it, so this is the
// one that builds a zone from many records at once, in whatever
// stretches of owners the groups give. It returns the data left from
// its last group on.
func (r *storeRun) addRecords(data []byte) (string, []byte) {
	n := min(int(data[3])%8+1, len(data)/4-1)
	var recs []dnswire.RR
	for range n {
		data = data[4:]
		recs = append(recs, record(modelNames[int(data[1])%len(modelNames)], data[2], data[3]))
	}
	for _, rr := range recs {
		r.m.add(rr)
	}
	if err := r.z.AddRecords(recs); err != nil {
		r.t.Fatal(err)
	}
	return fmt.Sprintf("AddRecords %d", n), data
}

// record builds an rr of the add type picked by b at name, its RDATA
// picked by v from a small range so that duplicates happen.
func record(name string, b, v byte) dnswire.RR {
	rr := dnswire.RR{Name: name, TTL: 300 + 300*uint32(v>>7)}
	switch typ := modelAddTypes[int(b)%len(modelAddTypes)]; typ {
	case dnswire.TypeA:
		rr.Data = &dnswire.A{Addr: netip.AddrFrom4([4]byte{192, 0, 2, v % 4})}
	case dnswire.TypeTXT:
		rr.Data = &dnswire.TXT{Strings: []string{string(rune('a' + v%3))}}
	case dnswire.TypeNS:
		rr.Data = dnswire.NewNS(string(rune('a'+v%2)) + ".ns.example.net.")
	case dnswire.TypeDS:
		rr.Data = &dnswire.DS{KeyTag: uint16(v % 3), Algorithm: dnswire.AlgEd25519, DigestType: dnswire.DigestSHA256, Digest: make([]byte, 32)}
	case dnswire.TypeMX:
		rr.Data = &dnswire.MX{Preference: uint16(v % 2), Host: "mail.example."}
	default:
		rr.Data = &dnswire.RRSIG{TypeCovered: modelTypes[int(v)%len(modelTypes)], Algorithm: dnswire.AlgEd25519, Labels: 1,
			OrigTTL: 300, Expiration: 2, Inception: 1, KeyTag: uint16(v % 3), SignerName: "example.", Signature: []byte{v % 3}}
	}
	return rr
}

// step runs the op picked by op on both sides and reports its name and
// whether it was a read.
func (r *storeRun) step(op byte, name string, b, v byte) (string, bool) {
	typ := modelTypes[int(b)%len(modelTypes)]
	switch op % 10 {
	case 0, 1, 2:
		rr := record(name, b, v)
		r.z.MustAdd(rr)
		r.m.add(rr)
		return "Add " + rr.Type().String(), false
	case 3:
		r.z.RemoveSet(name, typ)
		r.m.removeSet(name, typ)
		return "RemoveSet " + typ.String(), false
	case 4:
		r.z.RemoveName(name)
		delete(r.m.sets, name)
		return "RemoveName", false
	case 5, 6:
		cfg := SignConfig{Now: testNow, SkipNSEC: v&1 == 1, Expired: v&2 == 2}
		err := r.z.Sign(cfg)
		if len(r.m.set(r.m.origin, dnswire.TypeSOA)) == 0 {
			if err == nil {
				r.t.Fatal("Sign accepted a zone without a SOA")
			}
			return "Sign refused", false
		}
		if err != nil {
			r.t.Fatal(err)
		}
		r.m.sign(cfg, r.z.Keys)
		if cfg.SkipNSEC {
			return "Sign SkipNSEC", false
		}
		return "Sign", false
	case 7:
		r.z = r.z.Clone()
		return "Clone", false
	case 8:
		r.z.Unsign()
		r.m.unsign()
		return "Unsign", false
	default:
		r.same("Sigs "+name+" "+typ.String(), r.z.AppendSigs(nil, name, typ), dnssec.SigsCovering(r.m.set(name, dnswire.TypeRRSIG), name, typ))
		return "read", true
	}
}

func (r *storeRun) same(what string, got, want []dnswire.RR) {
	r.t.Helper()
	if g, w := rrText(got), rrText(want); g != w {
		r.t.Fatalf("%s:\nzone\n%s\nmodel\n%s", what, g, w)
	}
}

// check compares the zone's reads with the model's; full adds the ones
// that make pending signatures.
func (r *storeRun) check(trail []string, full bool) {
	r.t.Helper()
	z, m := r.z, r.m
	fail := func(format string, args ...any) {
		r.t.Helper()
		r.t.Fatalf("after %v: "+format, append([]any{trail}, args...)...)
	}
	if got, want := z.Names(), m.names(); !slices.Equal(got, want) {
		fail("Names %v, model %v", got, want)
	}
	// WriteTo first: reading the RRSIG sets would make every pending
	// signature before it got to.
	if full {
		if got, want := z.Text(), m.text(); got != want {
			fail("WriteTo:\nzone\n%s\nmodel\n%s", got, want)
		}
	}
	if got, want := z.Size(), m.size(); got != want {
		fail("Size %d, model %d", got, want)
	}
	for _, name := range append(modelNames, "x.example.", "a.z.example.") {
		if got, want := z.TypesAt(name), m.types(name); !slices.Equal(got, want) {
			fail("TypesAt %s %v, model %v", name, got, want)
		}
		if got, want := z.NameExists(name), m.exists(name); got != want {
			fail("NameExists %s %v, model %v", name, got, want)
		}
		if got, want := z.DelegationAt(name), m.cut(name); got != want {
			fail("DelegationAt %s %v, model %v", name, got, want)
		}
		for _, typ := range modelTypes {
			if typ == dnswire.TypeRRSIG && !full {
				continue
			}
			want := m.set(name, typ)
			if got := rrText(z.RRset(name, typ)); got != rrText(want) {
				fail("RRset %s %s:\nzone\n%s\nmodel\n%s", name, typ, got, rrText(want))
			}
			if first, ok := z.First(name, typ); ok != (len(want) > 0) || ok && rrText([]dnswire.RR{first}) != rrText(want[:1]) {
				fail("First %s %s = %v, %v; model %v", name, typ, first, ok, want)
			}
		}
	}
}

// TestStoreMatchesModel runs random op sequences, each once with every
// read after every op and once leaving signatures pending between reads.
func TestStoreMatchesModel(t *testing.T) {
	ops := map[string]int{}
	for seed := range int64(80) {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 4*(10+rng.Intn(40)))
		rng.Read(data)
		newStoreRun(t, true).run(data)
		for _, op := range newStoreRun(t, false).run(data) {
			ops[op]++
		}
	}
	t.Logf("operations run: %v", ops)
}

// FuzzZoneOps is TestStoreMatchesModel over op sequences the fuzzer
// picks; its seeds are in testdata/fuzz/FuzzZoneOps. A run signs with
// Ed25519 on both sides, so sequences are capped at 32 ops and the
// length's parity picks whether reads are eager.
func FuzzZoneOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4*32+1 {
			return
		}
		newStoreRun(t, len(data)%2 == 1).run(data)
	})
}

// TestStoreConcurrentReaders: readers racing over a lazily signed zone
// each see what the model holds. Run under -race this is the store's
// locking check; the signatures made by racing first reads are
// deterministic, so any reader's view must be exactly the model's.
func TestStoreConcurrentReaders(t *testing.T) {
	for seed := range int64(8) {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 4*30)
		rng.Read(data)
		for i := 0; i < len(data); i += 4 {
			if data[i]%10 >= 4 { // adds and RemoveSets only: the zone is signed once, below
				data[i] = 0
			}
		}
		r := newStoreRun(t, false)
		r.run(data)
		cfg := SignConfig{Now: testNow, SkipNSEC: seed%2 == 1}
		if err := r.z.Sign(cfg); err != nil {
			t.Fatal(err)
		}
		r.m.sign(cfg, r.z.Keys)
		want := r.m.text()
		var wg sync.WaitGroup
		for reader := range 8 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				order := rand.New(rand.NewSource(int64(reader))).Perm(len(modelNames))
				for _, i := range order {
					name := modelNames[i]
					for _, typ := range modelTypes {
						if got, want := rrText(r.z.AppendSigs(nil, name, typ)), rrText(dnssec.SigsCovering(r.m.set(name, dnswire.TypeRRSIG), name, typ)); got != want {
							t.Errorf("reader %d: Sigs %s %s:\n%s\nmodel\n%s", reader, name, typ, got, want)
						}
					}
					if got, want := rrText(r.z.RRset(name, dnswire.TypeRRSIG)), rrText(r.m.set(name, dnswire.TypeRRSIG)); got != want {
						t.Errorf("reader %d: RRSIG %s:\n%s\nmodel\n%s", reader, name, got, want)
					}
					_ = r.z.TypesAt(name)
					_ = r.z.NameExists(name)
					_ = r.z.DelegationAt(name)
					_ = r.z.Size()
				}
				if got := r.z.Text(); got != want {
					t.Errorf("reader %d: WriteTo:\n%s\nmodel\n%s", reader, got, want)
				}
			}()
		}
		wg.Wait()
	}
}

// TestReadersDuringRebuild: readers race a writer that adds and removes
// sets, so reads keep finding the zone to rebuild. The writer touches
// only AAAA sets, which the model never holds, at existing owners, a
// new owner and a name below a cut, so every other read must give the
// model's answer whichever state the writer is in; a churned set is
// either empty or the one record added. Run it under -race.
func TestReadersDuringRebuild(t *testing.T) {
	churnOwners := []string{"a.example.", "churn.example.", "z.example.", "deep.ns.sub.example."}
	churn := func(owner string) dnswire.RR {
		return dnswire.RR{Name: owner, Class: dnswire.ClassIN, TTL: 300, Data: &dnswire.AAAA{Addr: netip.MustParseAddr("2001:db8::1")}}
	}
	for seed := range int64(4) {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 4*30)
		rng.Read(data)
		for i := 0; i < len(data); i += 4 {
			if data[i]%10 >= 4 { // adds and RemoveSets only: the zone is signed once, below
				data[i] = 0
			}
		}
		r := newStoreRun(t, false)
		r.run(data)
		cfg := SignConfig{Now: testNow, SkipNSEC: seed%2 == 1}
		if err := r.z.Sign(cfg); err != nil {
			t.Fatal(err)
		}
		r.m.sign(cfg, r.z.Keys)
		z, m := r.z, r.m
		base := m.names()
		names := append(slices.Clone(modelNames), "x.example.", "churn.example.")

		done := make(chan struct{})
		var writer sync.WaitGroup
		writer.Add(1)
		go func() {
			defer writer.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				owner := churnOwners[i%len(churnOwners)]
				z.MustAdd(churn(owner))
				z.RemoveSet(owner, dnswire.TypeAAAA)
			}
		}()
		var readers sync.WaitGroup
		for reader := range 4 {
			readers.Add(1)
			go func() {
				defer readers.Done()
				rng := rand.New(rand.NewSource(int64(reader)))
				for range 10 * len(names) {
					name := names[rng.Intn(len(names))]
					for _, typ := range modelTypes {
						if got, want := rrText(z.AppendRRset(nil, name, typ)), rrText(m.set(name, typ)); got != want {
							t.Errorf("reader %d: RRset %s %s:\n%s\nmodel\n%s", reader, name, typ, got, want)
						}
						if got, want := rrText(z.AppendSigs(nil, name, typ)), rrText(dnssec.SigsCovering(m.set(name, dnswire.TypeRRSIG), name, typ)); got != want {
							t.Errorf("reader %d: Sigs %s %s:\n%s\nmodel\n%s", reader, name, typ, got, want)
						}
					}
					if got := rrText(z.AppendRRset(nil, name, dnswire.TypeAAAA)); got != "" && got != rrText([]dnswire.RR{churn(name)}) {
						t.Errorf("reader %d: churned AAAA at %s:\n%s", reader, name, got)
					}
					if got, want := z.FindCut(name), m.findCut(name); got != want {
						t.Errorf("reader %d: FindCut %s = %q, model %q", reader, name, got, want)
					}
					got := z.Names()
					if extra := slices.DeleteFunc(slices.Clone(got), func(n string) bool { return slices.Contains(base, n) }); len(extra) > 1 ||
						len(extra) == 1 && !slices.Contains(churnOwners, extra[0]) || len(got)-len(extra) != len(base) ||
						!slices.IsSortedFunc(got, compareOwners) {
						t.Errorf("reader %d: Names %v, model %v", reader, got, base)
					}
				}
			}()
		}
		readers.Wait()
		close(done)
		writer.Wait()
	}
}

// findCut is FindCut on the model: the shallowest cut at or above
// name, below the apex.
func (m *model) findCut(name string) string {
	cut := ""
	for n := name; n != m.origin && n != "."; n = dnswire.Parent(n) {
		if m.cut(n) {
			cut = n
		}
	}
	return cut
}
