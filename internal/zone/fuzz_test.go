package zone

import (
	"errors"
	"strings"
	"testing"
)

// FuzzParseZone drives the master-file parser with arbitrary text. The
// parser must reject garbage with an error, never a panic, and any
// accepted zone must render back to text without panicking. The same
// text also goes through a LineReader capped at 4 KiB, so over-long
// physical lines and joins are reached with small inputs: every line
// it returns or refuses must lie within the lines it has read, and no
// returned line may outgrow two caps (a join under the cap plus one
// physical line).
func FuzzParseZone(f *testing.F) {
	seeds := []string{
		"",
		"example.com. 3600 IN SOA ns1.example.com. hostmaster.example.com. 1 7200 3600 1209600 300\n",
		"$ORIGIN example.com.\n$TTL 3600\n@ IN NS ns1\nns1 IN A 192.0.2.1\n",
		"www 300 IN A 192.0.2.80\nwww 300 IN AAAA 2001:db8::80\n",
		"alias IN CNAME www.example.com.\n",
		"example.com. IN DS 4711 13 2 000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f\n",
		"example.com. IN DNSKEY 257 3 13 AwEAAa==\n",
		"example.com. IN TXT \"v=spf1 -all\"\n",
		"; comment only\n\n\n",
		"( multi\nline )\n",
		"$INCLUDE other.zone\n",
		"\x00\x01\x02",
		"@ IN NS ns1.example.com.\n@ IN CDS 0 0 0 00\n",
		"big IN TXT \"" + strings.Repeat("a", 5000) + "\"\nwww IN A 192.0.2.1\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		const limit = 4096
		rd := NewLineReader(strings.NewReader(text), "example.com.", limit)
		for {
			l, err := rd.Next()
			var le *LineError
			if err != nil && !errors.As(err, &le) {
				break // the end, or $INCLUDE ended the file
			}
			if le != nil {
				l.Num = le.Line
			} else if len(l.Text) > 2*limit+1 {
				t.Fatalf("line %d is %d bytes long", l.Num, len(l.Text))
			} else {
				_, _ = l.Record()
			}
			if physical, _, _ := rd.Counts(); l.Num < 1 || l.Num > physical {
				t.Fatalf("line %d (%v) outside the %d lines read", l.Num, err, physical)
			}
		}

		z, err := ParseString(text, "example.com.")
		if err != nil {
			return
		}
		if z == nil {
			t.Fatal("ParseString returned nil zone with nil error")
		}
		// Accepted zones must be walkable without panics.
		for _, rr := range z.All() {
			_ = rr.Type()
		}
	})
}
