package report

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"
)

// foldRecords are three records of a generated world's dump: two
// unsigned zones around one whose DS has no DNSKEY behind it.
var foldRecords = []string{
	`{"zone":"ovh-z000005.com.","parent_zone":"com.","parent_ns":["ns1.ovh.net.","ns2.ovh.net."],"child_ns":["ns1.ovh.net.","ns2.ovh.net."],"chain_valid":false,"per_ns":[{"host":"ns1.ovh.net.","addr":"10.1.19.1","cds_outcome":"nodata","cdnskey_outcome":"nodata"},{"host":"ns2.ovh.net.","addr":"10.1.19.2","cds_outcome":"nodata","cdnskey_outcome":"nodata"}],"signals":[{"ns_host":"ns1.ovh.net.","owner":"_dsboot.ovh-z000005.com._signal.ns1.ovh.net.","outcome":"nxdomain","cds_outcome":"nxdomain","cdnskey_outcome":"nxdomain","secure":false},{"ns_host":"ns2.ovh.net.","owner":"_dsboot.ovh-z000005.com._signal.ns2.ovh.net.","outcome":"nxdomain","cds_outcome":"nxdomain","cdnskey_outcome":"nxdomain","secure":false}],"cost":{"queries":8,"cache_hits":5}}`,
	`{"zone":"ali-z000002.biz.","parent_zone":"biz.","parent_ns":["ns1.alidns.com.","ns2.alidns.com."],"child_ns":["ns1.alidns.com.","ns2.alidns.com."],"ds":["ali-z000002.biz.\t86400\tIN\tDS\t23053 15 2 E06F2D7437174B67C1549B5780C5F044BDD6E1A3C8DBB1B27F18E5AC33C30A8C"],"ds_sigs":["ali-z000002.biz.\t86400\tIN\tRRSIG\tDS 15 2 86400 1747310400 1744714800 64876 biz. jRzeqycGDBkznNs6Uym4uetpChv+j5BiAHVmMSCTsdvwb3KxOjk1eM6QoVdWCblxsFfZ+5liWwtEyERXrf3cDA=="],"chain_valid":false,"per_ns":[{"host":"ns1.alidns.com.","addr":"10.1.23.1","cds_outcome":"nodata","cdnskey_outcome":"nodata"},{"host":"ns2.alidns.com.","addr":"10.1.23.2","cds_outcome":"nodata","cdnskey_outcome":"nodata"}],"signals":[{"ns_host":"ns1.alidns.com.","owner":"_dsboot.ali-z000002.biz._signal.ns1.alidns.com.","outcome":"nxdomain","cds_outcome":"nxdomain","cdnskey_outcome":"nxdomain","secure":false},{"ns_host":"ns2.alidns.com.","owner":"_dsboot.ali-z000002.biz._signal.ns2.alidns.com.","outcome":"nxdomain","cds_outcome":"nxdomain","cdnskey_outcome":"nxdomain","secure":false}],"cost":{"queries":8,"cache_hits":5}}`,
	`{"zone":"ovh-z000004.co.uk.","parent_zone":"co.uk.","parent_ns":["ns1.ovh.net.","ns2.ovh.net."],"child_ns":["ns1.ovh.net.","ns2.ovh.net."],"chain_valid":false,"per_ns":[{"host":"ns1.ovh.net.","addr":"10.1.19.1","cds_outcome":"nodata","cdnskey_outcome":"nodata"},{"host":"ns2.ovh.net.","addr":"10.1.19.2","cds_outcome":"nodata","cdnskey_outcome":"nodata"}],"signals":[{"ns_host":"ns1.ovh.net.","owner":"_dsboot.ovh-z000004.co.uk._signal.ns1.ovh.net.","outcome":"nxdomain","cds_outcome":"nxdomain","cdnskey_outcome":"nxdomain","secure":false},{"ns_host":"ns2.ovh.net.","owner":"_dsboot.ovh-z000004.co.uk._signal.ns2.ovh.net.","outcome":"nxdomain","cds_outcome":"nxdomain","cdnskey_outcome":"nxdomain","secure":false}],"cost":{"queries":8,"cache_hits":5}}`,
}

// foldNow is the clock of the world foldRecords come from.
var foldNow = time.Date(2025, 4, 15, 12, 0, 0, 0, time.UTC)

// FuzzFold: a fold stops at the first line that is not a complete
// record and never panics; the offset it returns is 0 or follows a
// newline, the records it counts are the newlines before that offset,
// and folding just the bytes before the offset gives the same count and
// offset without an error. A nil error means every byte was folded.
func FuzzFold(f *testing.F) {
	dump := strings.Join(foldRecords, "\n") + "\n"
	f.Add([]byte(dump))
	f.Add([]byte(dump[:len(dump)-1]))
	for at := 0; ; {
		next := strings.IndexByte(dump[at:], '\n')
		if next < 0 {
			break
		}
		f.Add([]byte(dump[:at+next/2]))
		at += next + 1
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		records, offset, err := NewAggregate().Fold(bytes.NewReader(data), foldNow, nil)
		if err != nil && !errors.Is(err, ErrIncomplete) {
			t.Fatalf("a fold of bytes in memory failed with %v", err)
		}
		if offset < 0 || offset > int64(len(data)) || offset > 0 && data[offset-1] != '\n' {
			t.Fatalf("offset %d of %d bytes does not follow a newline", offset, len(data))
		}
		if n := bytes.Count(data[:offset], []byte{'\n'}); records != n {
			t.Fatalf("%d records counted before offset %d, which holds %d newlines", records, offset, n)
		}
		if (err == nil) != (offset == int64(len(data))) {
			t.Fatalf("error %v at offset %d of %d bytes", err, offset, len(data))
		}
		again, end, err := NewAggregate().Fold(bytes.NewReader(data[:offset]), foldNow, nil)
		if again != records || end != offset || err != nil {
			t.Fatalf("folding the first %d bytes again: %d records to offset %d (%v), want %d", offset, again, end, err, records)
		}
	})
}
