package report

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"dnssecboot/internal/classify"
	"dnssecboot/internal/scan"
)

// populatedAggregate fills every field the checkpoint wire form must
// carry, with distinct values so a dropped or swapped field shows up.
func populatedAggregate() *Aggregate {
	a := NewAggregate()
	a.Total = 100
	a.Unresolved = 7
	a.ByStatus[classify.StatusUnsigned] = 60
	a.ByStatus[classify.StatusSecured] = 20
	a.ByStatus[classify.StatusInvalid] = 5
	a.ByStatus[classify.StatusIsland] = 8
	a.ByBucket[classify.PotentialAlreadySecured] = 20
	a.ByBucket[classify.PotentialIslandDelete] = 3
	a.Operators["cloudflare"] = &OperatorStats{
		Name: "cloudflare", Domains: 40, Unsigned: 10, Secured: 20,
		Invalid: 2, Islands: 8, CDS: 25, DeleteIslands: 6,
		WithSignal: 12, AlreadySecured: 5, CannotBootstrap: 1,
		DeletionRequest: 2, InvalidDNSSEC: 1, Potential: 3,
		Incorrect: 1, Correct: 2,
	}
	a.CDSPresent = 30
	a.CDSQueryFailed = 4
	a.CDSInconsistent = 3
	a.CDSInconsistentMO = 2
	a.CDSInUnsigned = 9
	a.CDSDeleteUnsigned = 1
	a.CDSDeleteSecured = 2
	a.CDSDeleteIslands = 6
	a.CDSOrphan = 5
	a.CDSBadSig = 4
	a.Queries = 12345
	a.Retries = 67
	a.GaveUp = 8
	a.CacheHits = 900
	a.CacheMisses = 450
	a.Coalesced = 33
	return a
}

func TestAggregateStateRoundTrip(t *testing.T) {
	a := populatedAggregate()
	data, err := a.MarshalState()
	if err != nil {
		t.Fatalf("MarshalState: %v", err)
	}
	got, err := UnmarshalState(data)
	if err != nil {
		t.Fatalf("UnmarshalState: %v", err)
	}
	if !reflect.DeepEqual(got, a) {
		t.Errorf("round trip changed the aggregate:\n got %+v\nwant %+v", got, a)
	}
	// The rendered artefacts must agree too — they are what a resumed
	// run ultimately prints.
	for name, render := range map[string]func(*Aggregate) string{
		"headline": (*Aggregate).Headline,
		"table3":   (*Aggregate).Table3,
		"cds":      (*Aggregate).CDSFindings,
	} {
		if g, w := render(got), render(a); g != w {
			t.Errorf("%s differs after round trip:\n got: %s\nwant: %s", name, g, w)
		}
	}
}

func TestAggregateStateEmptyRoundTrip(t *testing.T) {
	data, err := NewAggregate().MarshalState()
	if err != nil {
		t.Fatalf("MarshalState: %v", err)
	}
	got, err := UnmarshalState(data)
	if err != nil {
		t.Fatalf("UnmarshalState: %v", err)
	}
	if !reflect.DeepEqual(got, NewAggregate()) {
		t.Errorf("empty aggregate changed: %+v", got)
	}
}

func TestAggregateStateUsesStableEnumNames(t *testing.T) {
	data, err := populatedAggregate().MarshalState()
	if err != nil {
		t.Fatalf("MarshalState: %v", err)
	}
	var wire struct {
		ByStatus map[string]int `json:"by_status"`
		ByBucket map[string]int `json:"by_bucket"`
	}
	if err := json.Unmarshal(data, &wire); err != nil {
		t.Fatalf("parsing wire form: %v", err)
	}
	if _, ok := wire.ByStatus["secured"]; !ok {
		t.Errorf("by_status keys are not status names: %v", wire.ByStatus)
	}
	if len(wire.ByBucket) != 2 {
		t.Errorf("by_bucket = %v, want 2 entries", wire.ByBucket)
	}
}

func TestUnmarshalStateRefusesUnknownNames(t *testing.T) {
	for _, bad := range []string{
		`{"state_version":1,"by_status":{"quantum":1}}`,
		`{"state_version":1,"by_bucket":{"quantum":1}}`,
	} {
		if _, err := UnmarshalState([]byte(bad)); err == nil {
			t.Errorf("UnmarshalState(%s) accepted an unknown enum name", bad)
		}
	}
	if _, err := UnmarshalState([]byte(`{not json`)); err == nil {
		t.Error("UnmarshalState accepted malformed JSON")
	}
}

func TestUnmarshalStateRefusesVersions(t *testing.T) {
	// Missing, zero, stale and future versions are all refused: tallies
	// whose meaning drifted between binaries must not be merged or
	// resumed.
	for _, bad := range []string{
		`{"total":10}`,
		`{"state_version":0,"total":10}`,
		`{"state_version":99,"total":10}`,
	} {
		if _, err := UnmarshalState([]byte(bad)); err == nil {
			t.Errorf("UnmarshalState(%s) accepted a mismatched state version", bad)
		} else if !strings.Contains(err.Error(), "version") {
			t.Errorf("UnmarshalState(%s) refusal does not name the version: %v", bad, err)
		}
	}
}

// TestUnmarshalStateReadsParentFormat is the compatibility pin: states
// written before Aggregate became its own wire form (checked in as
// fuzz seeds) still decode to the aggregates that wrote them, so a run
// directory from that binary resumes and merges.
func TestUnmarshalStateReadsParentFormat(t *testing.T) {
	for name, want := range map[string]*Aggregate{
		"parent_populated": populatedAggregate(),
		"parent_empty":     NewAggregate(),
	} {
		got, err := UnmarshalState(fuzzSeed(t, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mergedEqual(t, name, got, want)
	}
}

// fuzzSeed reads one []byte seed of FuzzUnmarshalState's corpus.
func fuzzSeed(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzUnmarshalState", name))
	if err != nil {
		t.Fatal(err)
	}
	_, arg, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(arg, "[]byte("), ")"))
	if err != nil {
		t.Fatalf("seed %s: %v", name, err)
	}
	return []byte(s)
}

// FuzzUnmarshalState: the state decoder reads checkpoint files, which a
// crash, a disk or a hand can damage. It must never panic, and any state
// it accepts must survive MarshalState and decode to the same aggregate
// and the same rendered artefacts.
func FuzzUnmarshalState(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := UnmarshalState(data)
		if err != nil {
			return
		}
		enc, err := a.MarshalState()
		if err != nil {
			t.Fatalf("MarshalState of an accepted state: %v", err)
		}
		b, err := UnmarshalState(enc)
		if err != nil {
			t.Fatalf("re-encoded state refused: %v\n%s", err, enc)
		}
		mergedEqual(t, "re-encoded", b, a)
	})
}

// randomResults synthesizes n classification results covering every
// tally the accumulator keeps, from a seeded source so failures replay.
func randomResults(rnd *rand.Rand, n int) []*classify.Result {
	operators := []string{"cloudflare", "godaddy", "hetzner", "OtherDNS", "wix"}
	results := make([]*classify.Result, n)
	for i := range results {
		r := &classify.Result{
			Zone:   fmt.Sprintf("zone-%d.example.", i),
			Status: classify.Statuses[rnd.Intn(len(classify.Statuses))],
			Bucket: classify.Potentials[rnd.Intn(len(classify.Potentials))],
			Cost: scan.Cost{
				Queries:     rnd.Int63n(50),
				Retries:     rnd.Int63n(5),
				GaveUp:      rnd.Int63n(2),
				CacheHits:   rnd.Int63n(30),
				CacheMisses: rnd.Int63n(30),
				Coalesced:   rnd.Int63n(10),
			},
		}
		r.Operator.Operator = operators[rnd.Intn(len(operators))]
		r.Operator.MultiOperator = rnd.Intn(4) == 0
		r.CDS = classify.CDSInfo{
			Present:        rnd.Intn(2) == 0,
			QueryFailed:    rnd.Intn(8) == 0,
			Consistent:     rnd.Intn(4) != 0,
			Delete:         rnd.Intn(6) == 0,
			MatchesDNSKEY:  rnd.Intn(3) != 0,
			SigValid:       rnd.Intn(3) != 0,
			InUnsignedZone: rnd.Intn(5) == 0,
		}
		r.Signal = classify.SignalInfo{
			Probed:          true,
			HasSignal:       rnd.Intn(2) == 0,
			AlreadySecured:  rnd.Intn(5) == 0,
			DeletionRequest: rnd.Intn(7) == 0,
			InvalidDNSSEC:   rnd.Intn(7) == 0,
			Potential:       rnd.Intn(3) == 0,
			Correct:         rnd.Intn(2) == 0,
		}
		results[i] = r
	}
	return results
}

// splitBuild partitions results by a random assignment into parts
// accumulators.
func splitBuild(rnd *rand.Rand, results []*classify.Result, parts int) []*Aggregate {
	aggs := make([]*Aggregate, parts)
	for i := range aggs {
		aggs[i] = NewAggregate()
	}
	for _, r := range results {
		aggs[rnd.Intn(parts)].Add(r)
	}
	return aggs
}

// mergedEqual compares two aggregates structurally and through every
// rendered artefact — byte-equal tables are the property sharding
// actually depends on.
func mergedEqual(t *testing.T, label string, got, want *Aggregate) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: merged aggregate differs structurally:\n got %+v\nwant %+v", label, got, want)
		return
	}
	for name, render := range map[string]func(*Aggregate) string{
		"headline": (*Aggregate).Headline,
		"table3":   (*Aggregate).Table3,
		"cds":      (*Aggregate).CDSFindings,
		"queries":  (*Aggregate).QueryStats,
	} {
		if g, w := render(got), render(want); g != w {
			t.Errorf("%s: %s differs after merge:\n got: %s\nwant: %s", label, name, g, w)
		}
	}
}

// TestMergeEqualsUnifiedBuild is the core soundness property: however a
// result set is partitioned, merging the per-part accumulators equals
// accumulating the whole set directly.
func TestMergeEqualsUnifiedBuild(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		results := randomResults(rnd, 50+rnd.Intn(200))
		want := build(results)
		parts := 2 + rnd.Intn(5)
		aggs := splitBuild(rnd, results, parts)
		got := NewAggregate()
		for _, a := range aggs {
			got.Merge(a)
		}
		mergedEqual(t, fmt.Sprintf("trial %d (%d parts)", trial, parts), got, want)
	}
}

// TestMergeCommutativeAssociative: fold order must not matter — the
// coordinator merges shard states in whatever order they land.
func TestMergeCommutativeAssociative(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	results := randomResults(rnd, 300)
	want := build(results)
	aggs := splitBuild(rnd, results, 4)

	orders := [][]int{
		{0, 1, 2, 3},
		{3, 2, 1, 0},
		{2, 0, 3, 1},
	}
	for _, order := range orders {
		got := NewAggregate()
		for _, i := range order {
			got.Merge(aggs[i])
		}
		mergedEqual(t, fmt.Sprintf("order %v", order), got, want)
	}

	// Associativity: (a·b)·(c·d) == ((a·b)·c)·d. Merge mutates the
	// receiver, so rebuild intermediates from fresh copies via the wire
	// form.
	rebuild := func(idx ...int) *Aggregate {
		out := NewAggregate()
		for _, i := range idx {
			data, err := aggs[i].MarshalState()
			if err != nil {
				t.Fatalf("MarshalState: %v", err)
			}
			a, err := UnmarshalState(data)
			if err != nil {
				t.Fatalf("UnmarshalState: %v", err)
			}
			out.Merge(a)
		}
		return out
	}
	left := rebuild(0, 1)
	right := rebuild(2, 3)
	left.Merge(right)
	mergedEqual(t, "grouped (ab)(cd)", left, want)
}

func TestMergeEmptyIsIdentity(t *testing.T) {
	a := populatedAggregate()
	want := populatedAggregate()
	a.Merge(NewAggregate())
	if !reflect.DeepEqual(a, want) {
		t.Errorf("merging an empty aggregate changed the receiver:\n got %+v\nwant %+v", a, want)
	}
	b := NewAggregate()
	b.Merge(want)
	mergedEqual(t, "empty receiver", b, want)
}
