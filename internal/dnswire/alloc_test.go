//go:build !race

// Allocation-regression tests for the codec hot path. Excluded under
// the race detector: race instrumentation adds bookkeeping allocations
// that would make the zero-alloc assertions meaningless.
package dnswire

import "testing"

// TestAppendPackAllocFree pins the pooled-builder pack path at zero
// allocations once the output buffer has grown to size.
func TestAppendPackAllocFree(t *testing.T) {
	m := sampleHotpathMessage()
	var buf []byte
	var err error
	if buf, err = m.AppendPack(buf[:0]); err != nil { // warm the buffer
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		out, err := m.AppendPack(buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		buf = out
	})
	if avg > 0.1 {
		t.Errorf("AppendPack allocates %.2f/op in steady state, want 0", avg)
	}
}

// TestUnpackFromAllocFree pins the pooled-parser unpack-into path at
// zero allocations once the reused Message's storage matches the shape.
func TestUnpackFromAllocFree(t *testing.T) {
	wire, err := sampleHotpathMessage().Pack()
	if err != nil {
		t.Fatal(err)
	}
	var m Message
	if err := m.UnpackFrom(wire); err != nil { // warm the storage
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := m.UnpackFrom(wire); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0.1 {
		t.Errorf("UnpackFrom allocates %.2f/op in steady state, want 0", avg)
	}
}

// TestCanonicalNameLessAllocFree pins the NSEC-search and zone-sort
// comparison at zero allocations for ASCII names.
func TestCanonicalNameLessAllocFree(t *testing.T) {
	pairs := [][2]string{
		{"a.example.", "Z.a.Example"},
		{"example.com.", "example.com."},
		{"_dsboot.example.co.uk._signal.ns1.example.net.", "ns1.example.net."},
		{"a..b", "."},
		{"", "-."},
	}
	avg := testing.AllocsPerRun(200, func() {
		for _, p := range pairs {
			CanonicalNameLess(p[0], p[1])
			CanonicalNameLess(p[1], p[0])
		}
	})
	if avg > 0 {
		t.Errorf("CanonicalNameLess allocates %.2f per %d comparisons, want 0", avg, 2*len(pairs))
	}
}

// TestAppendRDataWireAllocFree pins the RDATA encode used by RRset
// canonical ordering and signing at zero steady-state allocations.
func TestAppendRDataWireAllocFree(t *testing.T) {
	d := &DS{KeyTag: 4711, Algorithm: 13, DigestType: 2, Digest: make([]byte, 32)}
	var buf []byte
	var err error
	if buf, err = AppendRDataWire(buf[:0], d); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		out, err := AppendRDataWire(buf[:0], d)
		if err != nil {
			t.Fatal(err)
		}
		buf = out
	})
	if avg > 0.1 {
		t.Errorf("AppendRDataWire allocates %.2f/op in steady state, want 0", avg)
	}
}
