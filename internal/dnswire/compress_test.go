package dnswire

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// packNameMap is name compression with a map from suffix to offset,
// the table the codec used before compTable. It is the oracle
// FuzzPackCompression holds the codec to.
func packNameMap(buf []byte, base int, name string, cmap map[string]int) ([]byte, error) {
	name = CanonicalName(name)
	if _, err := canonicalWireLength(name); err != nil {
		return nil, err
	}
	for name != "." {
		if off, ok := cmap[name]; ok {
			return append(buf, byte(0xC0|off>>8), byte(off)), nil
		}
		if len(buf)-base < 0x3FFF {
			cmap[name] = len(buf) - base
		}
		label := name
		if i := strings.IndexByte(name, '.'); i >= 0 {
			label, name = name[:i], name[i+1:]
		}
		if name == "" {
			name = "."
		}
		buf = append(buf, byte(len(label)))
		buf = append(buf, label...)
	}
	return append(buf, 0), nil
}

// packMapOracle packs m as AppendPack does, compressing its question and
// owner names with packNameMap. The rest of a message does not depend
// on the compression table: the header is the 12 octets header of
// AppendPack's output and every RDATA is packed by AppendRDataWire.
func packMapOracle(m *Message, header []byte) ([]byte, error) {
	if len(m.Question) > 0xFFFF || len(m.Answer) > 0xFFFF || len(m.Authority) > 0xFFFF || len(m.Additional) > 0xFFFF {
		return nil, ErrTooManyRecords
	}
	out := append([]byte(nil), header[:12]...)
	cmap := map[string]int{}
	var err error
	for _, q := range m.Question {
		if out, err = packNameMap(out, 0, q.Name, cmap); err != nil {
			return nil, err
		}
		out = append(out, byte(q.Type>>8), byte(q.Type), byte(q.Class>>8), byte(q.Class))
	}
	for _, sec := range [][]RR{m.Answer, m.Authority, m.Additional} {
		for _, rr := range sec {
			if rr.Data == nil {
				return nil, errors.New("dnswire: RR with nil data")
			}
			if out, err = packNameMap(out, 0, rr.Name, cmap); err != nil {
				return nil, err
			}
			ttl := rr.TTL
			if rr.Type() == TypeOPT {
				ttl = ttl&0x00FFFFFF | uint32(m.Rcode>>4)<<24
			}
			out = append(out, byte(rr.Type()>>8), byte(rr.Type()), byte(rr.Class>>8), byte(rr.Class),
				byte(ttl>>24), byte(ttl>>16), byte(ttl>>8), byte(ttl))
			rdata, err := AppendRDataWire(nil, rr.Data)
			if err != nil {
				return nil, err
			}
			out = append(out, byte(len(rdata)>>8), byte(len(rdata)))
			out = append(out, rdata...)
		}
	}
	return out, nil
}

// checkPackMatchesOracle packs m with the codec and with the map
// oracle; both must fail with the same error or agree on every byte.
func checkPackMatchesOracle(t *testing.T, m *Message) {
	t.Helper()
	got, err := m.Pack()
	header := got
	if err != nil {
		header = make([]byte, 12)
	}
	want, oerr := packMapOracle(m, header)
	if err != nil || oerr != nil {
		if fmt.Sprint(err) != fmt.Sprint(oerr) {
			t.Fatalf("%q: the codec fails with %v, the map oracle with %v", m.Summary(), err, oerr)
		}
		return
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("%q packs to %d octets, the map oracle to %d; first difference at octet %d", m.Summary(), len(got), len(want), i)
	}
}

// manyNames builds a message of hundreds of records from seed: owner
// names drawn from a small label set, so most share suffixes with
// earlier ones, and TXT padding that pushes later names past the 16 KiB
// a compression pointer can reach. One message in four ends with a
// name the codec must refuse: an empty label, a 64-octet label (in a
// name that is too long as well, which must not change the error), or
// a name of 264 octets whose 200-octet tail an earlier record has put
// in the compression table.
func manyNames(seed []byte) *Message {
	rnd := rand.New(rand.NewSource(int64(crc32.ChecksumIEEE(seed))))
	labels := []string{"a", "b", "ns1", "example", "com", "net", "x-y", "_dsboot", "_signal", "*", "www"}
	name := func() string {
		n := 1 + rnd.Intn(6)
		parts := make([]string, n)
		for i := range parts {
			parts[i] = labels[rnd.Intn(len(labels))]
		}
		return strings.Join(parts, ".") + "."
	}
	m := &Message{ID: uint16(rnd.Intn(1 << 16)), Response: true,
		Question: []Question{{Name: name(), Type: TypeA, Class: ClassIN}}}
	for i, n := 0, 100+rnd.Intn(900); i < n; i++ {
		rr := RR{Name: name(), Class: ClassIN, TTL: 60}
		switch rnd.Intn(3) {
		case 0:
			rr.Data = &A{Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(i)})}
		case 1:
			rr.Data = NewNS(name())
		default:
			rr.Data = &TXT{Strings: []string{strings.Repeat("p", rnd.Intn(64))}}
		}
		switch rnd.Intn(3) {
		case 0:
			m.Answer = append(m.Answer, rr)
		case 1:
			m.Authority = append(m.Authority, rr)
		default:
			m.Additional = append(m.Additional, rr)
		}
	}
	long := strings.Repeat(strings.Repeat("l", 63)+".", 3) + "example."
	a := &A{Addr: netip.AddrFrom4([4]byte{192, 0, 2, 1})}
	switch rnd.Intn(12) {
	case 0:
		m.Answer = append(m.Answer, RR{Name: "a..example.", Class: ClassIN, Data: a})
	case 1:
		m.Answer = append(m.Answer, RR{Name: strings.Repeat("l", 64) + "." + long, Class: ClassIN, Data: a})
	case 2:
		m.Answer = append(m.Answer, RR{Name: long, Class: ClassIN, Data: a}, RR{Name: strings.Repeat("m", 63) + "." + long, Class: ClassIN, Data: a})
	}
	return m
}

// readCorpus returns the inputs of a checked-in corpus of a fuzz target
// that takes one []byte.
func readCorpus(t testing.TB, target string) [][]byte {
	dir := filepath.Join("testdata", "fuzz", target)
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, f := range files {
		raw, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		header, value, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		quoted, ok := strings.CutPrefix(value, "[]byte(")
		if header != "go test fuzz v1" || !ok {
			t.Fatalf("%s: not a one-[]byte corpus entry", f.Name())
		}
		s, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		out = append(out, []byte(s))
	}
	return out
}

// FuzzPackCompression holds the codec's compression table to the map it
// replaced: every message Unpack accepts, and a message of hundreds of
// names built from the same input, must pack to the same bytes under
// both. Seeded from FuzzUnpack's corpus.
func FuzzPackCompression(f *testing.F) {
	for _, in := range readCorpus(f, "FuzzUnpack") {
		f.Add(in)
	}
	f.Add([]byte("many names"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if m, err := Unpack(data); err == nil {
			checkPackMatchesOracle(t, m)
		}
		checkPackMatchesOracle(t, manyNames(data))
	})
}

// TestCompTableAcrossIndexThreshold packs messages whose tables end just
// below, at and beyond the size at which compTable starts its map, and
// then a small message with the same builder, against the map oracle.
func TestCompTableAcrossIndexThreshold(t *testing.T) {
	for _, n := range []int{compIndexAt - 2, compIndexAt - 1, compIndexAt, compIndexAt + 1, 3 * compIndexAt, 1000} {
		m := &Message{Response: true, Question: []Question{{Name: "example.", Type: TypeA, Class: ClassIN}}}
		a := &A{Addr: netip.AddrFrom4([4]byte{10, 0, 0, 1})}
		for i := 0; i < n; i++ {
			// Each new name registers one suffix; every third record
			// repeats an earlier name, which must be found again.
			m.Answer = append(m.Answer, RR{Name: fmt.Sprintf("h%d.example.", i), Class: ClassIN, TTL: 1, Data: a})
			if i%3 == 2 {
				m.Answer = append(m.Answer, RR{Name: fmt.Sprintf("h%d.example.", i/2), Class: ClassIN, TTL: 1, Data: a})
			}
		}
		checkPackMatchesOracle(t, m)
		checkPackMatchesOracle(t, sampleHotpathMessage())
	}
}
