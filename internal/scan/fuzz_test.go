package scan

import (
	"bytes"
	"encoding/json"
	"net/netip"
	"os"
	"testing"

	"dnssecboot/internal/dnswire"
)

// FuzzObservationRoundTrip throws arbitrary bytes at the JSONL import
// path. The decoder must never panic, and any record it accepts must
// re-export canonically: FromJSON → ToJSON must be a fixed point from
// the first export onwards, or a checkpoint-resumed dump could not be
// identical to an uninterrupted one. Body must never panic either, and
// on every export it must cut exactly the cost object: the export is
// its body plus its cost, and the body does not move when only the
// cost does. JSONLWriter must write every accepted record as exactly
// json.Marshal of its ToJSON form and a newline, also with the fuzz
// input's raw bytes in its string members.
func FuzzObservationRoundTrip(f *testing.F) {
	// Seed with real records from a scan dump (a full observation with
	// per-NS views and signal probes exercises every branch of the
	// RR-string codec).
	if sample, err := os.ReadFile("testdata/observation_sample.jsonl"); err == nil {
		f.Add(sample)
		for _, line := range bytes.Split(sample, []byte("\n")) {
			if len(line) > 0 {
				f.Add(append(line, '\n'))
				// A truncated record must be rejected, not crash.
				f.Add(line[:len(line)/2])
			}
		}
	}
	// Degenerate and hostile shapes.
	f.Add([]byte(""))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte("{}\n"))
	f.Add([]byte(`{"zone":"a."}` + "\n"))
	f.Add([]byte(`{"zone":"a.","ds":["not a record at all"]}` + "\n"))
	f.Add([]byte(`{"zone":"a.","per_ns":[{"host":"ns1.a.","addr":"not-an-ip","cds_outcome":"ok","cdnskey_outcome":"ok"}]}` + "\n"))
	f.Add([]byte(`{"zone":"a.","signals":[{"ns_host":"ns1.a.","outcome":"wat"}]}` + "\n"))
	f.Add([]byte(`{"zone":"` + string(bytes.Repeat([]byte("a"), 300)) + `."}` + "\n"))
	// The cost object: full, empty, absent with old-format counters, and
	// imitated inside a string.
	f.Add([]byte(`{"zone":"a.","chain_valid":true,"cost":{"queries":31,"retries":4,"gave_up":1,"cache_hits":2,"cache_misses":9,"coalesced":1}}` + "\n"))
	f.Add([]byte(`{"zone":"a.","cost":{}}` + "\n"))
	f.Add([]byte(`{"zone":"a.","chain_valid":false,"queries":22,"cache_hits":3}` + "\n"))
	f.Add([]byte(`{"zone":"a.","chain_err":"x,\"cost\":{\"queries\":1}}","cost":{"queries":-5}}` + "\n"))
	// Strings encoding/json escapes: HTML-sensitive characters, the
	// JavaScript line terminators, a control byte, invalid UTF-8 (the
	// decoder turns it into U+FFFD), quotes and backslashes.
	f.Add([]byte(`{"zone":"a<b>&c.","chain_err":"x < y && y > z","parent_ns":["ns<1>.a."]}` + "\n"))
	f.Add([]byte(`{"zone":"a.","chain_err":"line\u2028sep\u2029para","signals":[{"ns_host":"ns1.a.","outcome":"ok","validation_err":"\u2028"}]}` + "\n"))
	f.Add([]byte(`{"zone":"a.","chain_err":"ctrl\u0001byte\u001f\u007f\b\f\t"}` + "\n"))
	f.Add([]byte("{\"zone\":\"a.\",\"chain_err\":\"bad \xff\xfe utf8 \xe2\x80\"}\n"))
	f.Add([]byte(`{"zone":"a.","chain_err":"say \"hi\" to C:\\path\\","per_ns":[{"host":"ns\"1\\.a.","addr":"::1","cds_outcome":"ok","cdnskey_outcome":"ok"}]}` + "\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, line := range bytes.Split(data, []byte("\n")) {
			if body := Body(line); len(body) > len(line) {
				t.Fatalf("body longer than its line:\n line: %s\n body: %s", line, body)
			}
		}
		records, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return // malformed streams are rejected, never crash
		}
		for _, o := range records {
			zo, err := FromJSON(o)
			if err != nil {
				continue // individually malformed records are rejected
			}
			b1, err := json.Marshal(zo.ToJSON())
			if err != nil {
				t.Fatalf("marshalling export of %q: %v", o.Zone, err)
			}
			var o2 ObservationJSON
			if err := json.Unmarshal(b1, &o2); err != nil {
				t.Fatalf("export of %q is not valid JSON: %v\n%s", o.Zone, err, b1)
			}
			zo2, err := FromJSON(o2)
			if err != nil {
				t.Fatalf("export of %q does not re-import: %v\n%s", o.Zone, err, b1)
			}
			b2, err := json.Marshal(zo2.ToJSON())
			if err != nil {
				t.Fatalf("re-marshalling export of %q: %v", o.Zone, err)
			}
			if !bytes.Equal(b1, b2) {
				t.Errorf("export of %q is not a fixed point:\n first: %s\nsecond: %s", o.Zone, b1, b2)
			}

			body := Body(b1)
			cost, err := json.Marshal(zo.Cost)
			if err != nil {
				t.Fatalf("marshalling cost of %q: %v", o.Zone, err)
			}
			if whole := string(body[:len(body)-1]) + `,"cost":` + string(cost) + "}"; whole != string(b1) {
				t.Errorf("export of %q is not its body plus its cost:\nexport: %s\n  body: %s", o.Zone, b1, body)
			}
			zo2.Cost.Queries += 7
			zo2.Cost.Coalesced++
			b3, err := json.Marshal(zo2.ToJSON())
			if err != nil {
				t.Fatalf("re-marshalling export of %q: %v", o.Zone, err)
			}
			if !bytes.Equal(Body(b3), body) {
				t.Errorf("body of %q moved with its cost:\n%s\n%s", o.Zone, body, Body(b3))
			}

			assertEncodesLikeJSON(t, zo)
			zo.ChainErr = string(data)
			zo.ParentNS = append(zo.ParentNS, string(data))
			assertEncodesLikeJSON(t, zo)
		}
	})
}

// assertEncodesLikeJSON fails unless JSONLWriter writes zo as exactly
// json.Marshal of its ToJSON form followed by a newline.
func assertEncodesLikeJSON(t *testing.T, zo *ZoneObservation) {
	t.Helper()
	want, err := json.Marshal(zo.ToJSON())
	if err != nil {
		t.Fatalf("marshalling %q: %v", zo.Zone, err)
	}
	var got bytes.Buffer
	if err := WriteJSONL(&got, []*ZoneObservation{zo}); err != nil {
		t.Fatalf("writing %q: %v", zo.Zone, err)
	}
	if got.String() != string(want)+"\n" {
		t.Errorf("JSONLWriter and encoding/json disagree on %q:\n   got: %q\n  want: %q", zo.Zone, got.String(), string(want)+"\n")
	}
}

// TestJSONLWriterMatchesEncodingJSON holds the direct encoder to
// encoding/json on observations the scanner never produces: every
// optional member set and unset, every escaped character in every kind
// of string member, addresses without a valid form, and negative costs.
func TestJSONLWriterMatchesEncodingJSON(t *testing.T) {
	const nasty = "q\"b\\ <tag> & \u2028\u2029 \x00\x01\x1f\x7f \b\f\n\r\t é 😀 \xff\xfe \xe2\x80"
	ds := dnswire.RR{Name: "Ex<am>ple.", TTL: 3600, Class: dnswire.ClassIN,
		Data: &dnswire.DS{KeyTag: 4711, Algorithm: 13, DigestType: 2, Digest: []byte{0xAB, 0x01}}}
	sig := dnswire.RR{Name: "example.", TTL: 3600, Class: dnswire.ClassIN,
		Data: &dnswire.RRSIG{TypeCovered: dnswire.TypeDS, Algorithm: 13, Labels: 1, OrigTTL: 3600,
			Expiration: 4294967295, Inception: 1, KeyTag: 4711, SignerName: "a&b.", Signature: []byte{0xFB, 0xFF}}}
	key := dnswire.RR{Name: "example.", TTL: 60, Class: dnswire.ClassIN,
		Data: &dnswire.CDNSKEY{DNSKEY: dnswire.DNSKEY{Flags: 257, Protocol: 3, Algorithm: 13, PublicKey: []byte{1, 2, 3}}}}
	txt := dnswire.RR{Name: "example.", TTL: 60, Class: dnswire.ClassIN,
		Data: &dnswire.TXT{Strings: []string{nasty}}}
	full := &ZoneObservation{
		Zone: nasty, ResolveErr: nasty, ParentZone: nasty,
		ParentNS: []string{nasty, ""}, ChildNS: []string{"ns1.example."},
		DS: []dnswire.RR{ds}, DSSigs: []dnswire.RR{sig, sig},
		DNSKEY: []dnswire.RR{key}, DNSKEYSigs: []dnswire.RR{txt},
		ChainValid: true, ChainErr: nasty, SampledNS: true,
		PerNS: []NSObservation{
			{Host: nasty, Addr: netip.MustParseAddr("192.0.2.1"), CDS: []dnswire.RR{ds},
				CDNSKEY: []dnswire.RR{key}, CDSSigs: []dnswire.RR{sig}, CDNSKEYSigs: []dnswire.RR{sig},
				CDSOutcome: OutcomeTimeout, CDNSKEYOutcome: Outcome(99)},
			{Host: "ns2.", Addr: netip.MustParseAddr("fe80::1%eth<0>")},
			{Host: "ns3.", Addr: netip.MustParseAddr("::ffff:192.0.2.7")},
			{},
		},
		Signals: []SignalObservation{
			{NSHost: nasty, Owner: nasty, Records: []dnswire.RR{ds, txt}, Sigs: []dnswire.RR{sig},
				Outcome: OutcomeNXDomain, CDSOutcome: OutcomeNoData, CDNSKEYOutcome: OutcomeUnreachable,
				NameTooLong: true, Secure: true, ValidationErr: nasty, ZoneCut: true},
			{},
		},
		Cost: Cost{Queries: -1, Retries: 2, GaveUp: -3, CacheHits: 4, CacheMisses: 5, Coalesced: 6},
	}
	empty := &ZoneObservation{ParentNS: []string{}, DS: []dnswire.RR{}, PerNS: []NSObservation{}, Signals: []SignalObservation{}}
	for _, zo := range []*ZoneObservation{full, empty, {}, {Zone: "a.", Cost: Cost{Queries: 7}}} {
		assertEncodesLikeJSON(t, zo)
	}
}
