// Table-driven unit tests for the scanner's pure helpers:
// aggregateSignalOutcome (the per-signal-type outcome fold described in
// §4.3 — the worst server failure dominates, otherwise presence of
// records decides) and intermediateNames (the names between a signal
// owner and the signal zone apex that the RFC 9615 CDS/CDNSKEY walk
// must prove empty).
package scan

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"dnssecboot/internal/dnswire"
)

// outcomes lists every Outcome in severity order; the fold's "worst"
// relation is exactly this ordering.
var outcomes = []Outcome{
	OutcomeOK, OutcomeNoData, OutcomeNXDomain,
	OutcomeError, OutcomeTimeout, OutcomeUnreachable,
}

func TestAggregateSignalOutcomeAllCombos(t *testing.T) {
	for _, cds := range outcomes {
		for _, cdnskey := range outcomes {
			worst := cds
			if cdnskey > worst {
				worst = cdnskey
			}
			for _, haveRecords := range []bool{false, true} {
				// Expected per the paper's rule: any server failure or
				// NXDOMAIN on either signal type taints the pair; only a
				// clean pair is judged by whether records were returned.
				want := worst
				if !worst.Failed() && worst != OutcomeNXDomain {
					if haveRecords {
						want = OutcomeOK
					} else {
						want = OutcomeNoData
					}
				}
				got := aggregateSignalOutcome(cds, cdnskey, haveRecords)
				if got != want {
					t.Errorf("aggregateSignalOutcome(%s, %s, records=%t) = %s, want %s",
						cds, cdnskey, haveRecords, got, want)
				}
			}
		}
	}
}

func TestAggregateSignalOutcomeSpotChecks(t *testing.T) {
	// A handful of hand-written cases guard the loop above against a
	// shared blind spot with the implementation.
	tests := []struct {
		name         string
		cds, cdnskey Outcome
		haveRecords  bool
		want         Outcome
	}{
		{"both clean with records", OutcomeOK, OutcomeOK, true, OutcomeOK},
		{"both clean without records", OutcomeNoData, OutcomeNoData, false, OutcomeNoData},
		{"records override nodata pair", OutcomeOK, OutcomeNoData, true, OutcomeOK},
		{"nxdomain dominates records", OutcomeOK, OutcomeNXDomain, true, OutcomeNXDomain},
		{"timeout dominates nxdomain", OutcomeNXDomain, OutcomeTimeout, true, OutcomeTimeout},
		{"unreachable dominates everything", OutcomeUnreachable, OutcomeError, true, OutcomeUnreachable},
		{"error on one side taints the pair", OutcomeError, OutcomeOK, false, OutcomeError},
	}
	for _, tc := range tests {
		if got := aggregateSignalOutcome(tc.cds, tc.cdnskey, tc.haveRecords); got != tc.want {
			t.Errorf("%s: got %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestIntermediateNamesEdges(t *testing.T) {
	tests := []struct {
		name        string
		owner, apex string
		want        []string
	}{
		{
			name:  "owner equals apex",
			owner: "example.com.", apex: "example.com.",
			want: nil,
		},
		{
			name:  "owner directly under apex",
			owner: "www.example.com.", apex: "example.com.",
			want: nil,
		},
		{
			name:  "one intermediate label",
			owner: "_dsboot.example.com._signal.ns1.example.net.", apex: "ns1.example.net.",
			want: []string{"example.com._signal.ns1.example.net.", "com._signal.ns1.example.net.", "_signal.ns1.example.net."},
		},
		{
			name:  "owner not under apex",
			owner: "www.example.org.", apex: "example.com.",
			want: nil,
		},
		{
			name:  "single-label owner under root apex",
			owner: "com.", apex: ".",
			want: nil,
		},
		{
			name:  "deep owner under root apex stops above the root",
			owner: "a.b.com.", apex: ".",
			want: []string{"b.com.", "com."},
		},
		{
			name:  "single-label apex",
			owner: "a.b.com.", apex: "com.",
			want: []string{"b.com."},
		},
		{
			name:  "non-canonical input is normalised",
			owner: "A.B.example.COM", apex: "example.com.",
			want: []string{"b.example.com."},
		},
	}
	for _, tc := range tests {
		got := intermediateNames(tc.owner, tc.apex)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: intermediateNames(%q, %q) = %v, want %v",
				tc.name, tc.owner, tc.apex, got, tc.want)
		}
	}
}

// TestDenialStoreShare holds a signer's full share of the denial store
// to its rules: while every record is live a new one is not wanted, so
// it is never validated; once they expire the share makes room.
func TestDenialStoreShare(t *testing.T) {
	t0 := time.Unix(1_000_000, 0)
	var d denialStore
	for i := 0; i < maxDenialsPerSigner; i++ {
		owner := fmt.Sprintf("n%05d.example.", i)
		if !d.wants("example.", owner, t0) {
			t.Fatalf("record %d not wanted below the cap", i)
		}
		d.add("example.", storedNSEC{rr: dnswire.RR{Name: owner}, expires: t0.Add(time.Minute)})
	}
	if d.wants("example.", "n00000.example.", t0) {
		t.Error("a live record's owner is wanted again")
	}
	if d.wants("example.", "zzz.example.", t0) {
		t.Error("a full share of live records wants more")
	}
	if !d.wants("x.other.", "a.x.other.", t0) {
		t.Error("another signer's empty share is full")
	}
	if !d.wants("example.", "zzz.example.", t0.Add(time.Minute)) {
		t.Error("a full share of expired records makes no room")
	}
	if n := len(d.bySigner["example."]); n != 0 {
		t.Errorf("%d expired records left", n)
	}
}
