package scan

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// FuzzObservationRoundTrip throws arbitrary bytes at the JSONL import
// path. The decoder must never panic, and any record it accepts must
// re-export canonically: FromJSON → ToJSON must be a fixed point from
// the first export onwards, or a checkpoint-resumed dump could not be
// identical to an uninterrupted one. Body must never panic either, and
// on every export it must cut exactly the cost object: the export is
// its body plus its cost, and the body does not move when only the
// cost does.
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
		}
	})
}
