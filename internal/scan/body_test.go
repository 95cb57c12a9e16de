package scan

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestBody(t *testing.T) {
	for _, tc := range []struct {
		name, line, want string
	}{
		{
			name: "cost cut, newline dropped",
			line: `{"zone":"a.","chain_valid":false,"cost":{"queries":12,"cache_hits":3}}` + "\n",
			want: `{"zone":"a.","chain_valid":false}`,
		},
		{
			name: "cost after nested members",
			line: `{"zone":"a.","chain_valid":true,"signals":[{"ns_host":"ns1.a.","outcome":"ok","secure":true}],"cost":{"queries":1}}`,
			want: `{"zone":"a.","chain_valid":true,"signals":[{"ns_host":"ns1.a.","outcome":"ok","secure":true}]}`,
		},
		{
			name: "record without cost is its own body",
			line: `{"zone":"a.","chain_valid":false}` + "\n",
			want: `{"zone":"a.","chain_valid":false}`,
		},
		{
			// Written before the cost object existed: the counters are
			// ordinary top-level members and nothing trails the record.
			name: "old-format record is its own body",
			line: `{"zone":"a.","chain_valid":false,"queries":22,"cache_hits":3,"per_ns":[{"host":"ns1.a.","addr":"10.0.0.1","cds_outcome":"ok","cdnskey_outcome":"ok"}]}`,
			want: `{"zone":"a.","chain_valid":false,"queries":22,"cache_hits":3,"per_ns":[{"host":"ns1.a.","addr":"10.0.0.1","cds_outcome":"ok","cdnskey_outcome":"ok"}]}`,
		},
		{
			// Inside a JSON string the key's quotes are escaped, so text
			// that reads like a cost object is never taken for one.
			name: "cost-like text inside an RR string",
			line: `{"zone":"a.","ds":["a.\t1\tIN\tTXT\t\",\"cost\":{\"queries\":1}}"],"chain_valid":false,"cost":{"queries":7}}`,
			want: `{"zone":"a.","ds":["a.\t1\tIN\tTXT\t\",\"cost\":{\"queries\":1}}"],"chain_valid":false}`,
		},
		{
			name: "cost-like text in the last string, no cost object",
			line: `{"zone":"a.","chain_valid":false,"chain_err":"x,\"cost\":{}}"}`,
			want: `{"zone":"a.","chain_valid":false,"chain_err":"x,\"cost\":{}}"}`,
		},
		{
			name: "a nested cost member is not the record's",
			line: `{"zone":"a.","signals":[{"ns_host":"n.","cost":{"queries":1}}]}`,
			want: `{"zone":"a.","signals":[{"ns_host":"n.","cost":{"queries":1}}]}`,
		},
		{name: "empty line", line: "\n", want: ""},
		{name: "truncated line", line: `{"zone":"a.","cost":{`, want: `{"zone":"a.","cost":{`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := string(Body([]byte(tc.line))); got != tc.want {
				t.Errorf("Body:\n got: %s\nwant: %s", got, tc.want)
			}
		})
	}
}

// TestBodyIgnoresCost: what JSONLWriter writes for two observations that
// differ only in cost has one body, which decodes back to the record
// with a zero Cost.
func TestBodyIgnoresCost(t *testing.T) {
	cheap := &ZoneObservation{Zone: "a.com.", ParentZone: "com.", ChainErr: "x", Cost: Cost{Queries: 3}}
	dear := *cheap
	dear.Cost = Cost{Queries: 31, Retries: 4, GaveUp: 1, CacheHits: 2, CacheMisses: 9, Coalesced: 1}
	var a, b bytes.Buffer
	if err := WriteJSONL(&a, []*ZoneObservation{cheap}); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&b, []*ZoneObservation{&dear}); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("records differing in cost encode identically — cost is not exported")
	}
	if !strings.HasSuffix(b.String(), `,"cost":{"queries":31,"retries":4,"gave_up":1,"cache_hits":2,"cache_misses":9,"coalesced":1}}`+"\n") {
		t.Errorf("cost is not the record's last member: %s", b.String())
	}
	if !bytes.Equal(Body(a.Bytes()), Body(b.Bytes())) {
		t.Errorf("bodies differ:\n%s\n%s", Body(a.Bytes()), Body(b.Bytes()))
	}
	var o ObservationJSON
	if err := json.Unmarshal(Body(b.Bytes()), &o); err != nil {
		t.Fatalf("body is not a JSON object: %v", err)
	}
	if o.Zone != "a.com." || o.ChainErr != "x" || o.Cost != (Cost{}) {
		t.Errorf("body decoded to %+v", o)
	}
}

// TestFromJSONOldFormat: a dump line written before the cost object
// existed still decodes and reconstructs; its top-level counters are
// not read, so the observation's cost is zero.
func TestFromJSONOldFormat(t *testing.T) {
	const line = `{"zone":"a.com.","parent_zone":"com.","parent_ns":["ns1.op.net."],"chain_valid":false,"queries":22,"retries":2,"cache_hits":3,` +
		`"per_ns":[{"host":"ns1.op.net.","addr":"10.0.0.1","cds_outcome":"nodata","cdnskey_outcome":"timeout"}]}`
	records, err := ReadJSONL(strings.NewReader(line + "\n"))
	if err != nil || len(records) != 1 {
		t.Fatalf("ReadJSONL: %d records, err %v", len(records), err)
	}
	zo, err := FromJSON(records[0])
	if err != nil {
		t.Fatal(err)
	}
	if zo.Zone != "a.com." || zo.ParentZone != "com." || len(zo.PerNS) != 1 || zo.PerNS[0].CDNSKEYOutcome != OutcomeTimeout {
		t.Errorf("old-format record reconstructed as %+v", zo)
	}
	if zo.Cost != (Cost{}) {
		t.Errorf("old-format counters leaked into cost: %+v", zo.Cost)
	}
}
