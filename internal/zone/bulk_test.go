package zone

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dnssecboot/internal/dnswire"
)

// stored returns every record the zone holds, of every class, with its
// signatures made, in stored order, and checks the owner index finds
// each owner's first record.
func stored(t *testing.T, z *Zone) []dnswire.RR {
	t.Helper()
	z.signAll()
	z.rlock()
	defer z.mu.RUnlock()
	for i := 0; i < len(z.recs); i = ownerEnd(z.recs, i) {
		if got := z.find(z.recs[i].Name); got != i {
			t.Fatalf("index finds %s at %d, its records start at %d", z.recs[i].Name, got, i)
		}
	}
	return slices.Clone(z.recs)
}

// randomRecords draws n records at owners of modelNames, in upper or
// lower case, of two classes, with few distinct RDATA so that
// duplicates happen, an owner's records scattered over the list.
func randomRecords(rng *rand.Rand, n int) []dnswire.RR {
	recs := make([]dnswire.RR, 0, n)
	for range n {
		name := modelNames[rng.Intn(len(modelNames))]
		if rng.Intn(4) == 0 {
			name = strings.ToUpper(name)
		}
		rr := record(name, byte(rng.Intn(256)), byte(rng.Intn(256)))
		switch rng.Intn(5) {
		case 0:
			rr.Class = dnswire.ClassCH
		case 1:
			rr.Class = dnswire.ClassIN
		}
		recs = append(recs, rr)
	}
	return recs
}

// TestAddRecordsMatchesAdd: for random record sets, adding them in one
// AddRecords call and one Add at a time give the same zone, unsigned
// and after Sign, into an empty zone, into one holding records, and
// into a lazily signed one. The sets hold duplicates, two classes and
// an owner's records in runs far apart; an out-of-zone record fails
// the whole call and leaves the zone as it was.
func TestAddRecordsMatchesAdd(t *testing.T) {
	for seed := range int64(200) {
		rng := rand.New(rand.NewSource(seed))
		one, bulk := New("example."), New("example.")
		one.Keys, bulk.Keys = modelKeys(), modelKeys()
		var trail []string
		for step := range 3 {
			what := fmt.Sprintf("seed %d step %d", seed, step)
			recs := randomRecords(rng, 1+rng.Intn(30))
			if step == 0 {
				recs = append(recs, NewSOA("example.", "ns1.example.net.", 1))
				rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
			}
			before := rrText(stored(t, bulk))
			outside := slices.Clone(recs)
			outside = slices.Insert(outside, rng.Intn(len(outside)+1), dnswire.RR{Name: "example.net.", TTL: 300, Data: strayA})
			if err := bulk.AddRecords(outside); err == nil {
				t.Fatalf("%s: AddRecords accepted a record out of zone", what)
			}
			if after := rrText(stored(t, bulk)); after != before {
				t.Fatalf("%s: a refused AddRecords changed the zone:\n%s\nwas\n%s", what, after, before)
			}
			for _, rr := range recs {
				// A read after each Add builds one record in at a
				// time, so no merge of one sees two runs.
				one.MustAdd(rr)
				one.Names()
			}
			if err := bulk.AddRecords(slices.Clone(recs)); err != nil {
				t.Fatal(err)
			}
			trail = append(trail, fmt.Sprintf("%d records", len(recs)))
			if got, want := rrText(stored(t, bulk)), rrText(stored(t, one)); got != want {
				t.Fatalf("%s after %v: AddRecords\n%s\nAdd\n%s", what, trail, got, want)
			}
			if rng.Intn(2) == 0 {
				cfg := randomSignConfig(rng)
				for _, z := range []*Zone{one, bulk} {
					if err := z.Sign(cfg); err != nil {
						t.Fatal(err)
					}
				}
				trail = append(trail, "Sign")
				// Make one zone's signatures now and leave the other's
				// pending, so the next AddRecords meets placeholders.
				stored(t, one)
			}
		}
		if got, want := bulk.Text(), one.Text(); got != want {
			t.Fatalf("seed %d after %v: AddRecords\n%s\nAdd\n%s", seed, trail, got, want)
		}
	}
}

var strayA = &dnswire.A{}

// TestSortRunsMergesStretches: runs arriving in ascending stretches,
// one owner's runs in several of them, come out sorted by owner and,
// for one owner, by position.
func TestSortRunsMergesStretches(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for range 500 {
		var added []dnswire.RR
		for range 1 + rng.Intn(8) {
			// One ascending stretch: a sorted sample of the names.
			names := slices.Clone(modelNames)
			slices.SortFunc(names, compareOwners)
			for _, n := range names {
				for k := rng.Intn(3); k > 0; k-- {
					added = append(added, dnswire.RR{Name: n})
				}
			}
		}
		runs := sortRuns(added, nil)
		for i := 1; i < len(runs); i++ {
			a, b := runs[i-1], runs[i]
			if c := compareOwners(added[a.lo].Name, added[b.lo].Name); c > 0 || c == 0 && a.lo > b.lo {
				t.Fatalf("run %v (%s) before %v (%s)", a, added[a.lo].Name, b, added[b.lo].Name)
			}
		}
		n := 0
		for _, r := range runs {
			n += r.hi - r.lo
		}
		if n != len(added) {
			t.Fatalf("runs cover %d of %d records", n, len(added))
		}
	}
}
