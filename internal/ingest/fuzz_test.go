package ingest

import (
	"bytes"
	"compress/gzip"
	"context"
	"reflect"
	"testing"
)

// FuzzIngest drives arbitrary bytes — garbage, near-valid master files,
// corrupt gzip — through the full pipeline and holds two invariants:
// no panic ever, and the outcome is identical for 1 and 2 workers
// (same error-ness, same targets, same stats). Three-line batches put
// batch boundaries inside small inputs, and the 4KiB line cap keeps
// a hostile input (one endless line, unterminated parens) from turning
// the fuzzer's memory limit into flakiness: the pipeline must hold its
// own bound, not inherit the harness's.
func FuzzIngest(f *testing.F) {
	seeds := []string{
		mixedDump,
		"",
		"$ORIGIN test.\na.test. IN NS ns1.a.test.\n",
		"$INCLUDE other.zone\n",
		"$ORIGIN\n$TTL x\n$BOGUS 1\n",
		"a.test. IN SOA ns0.test. h.test. ( 1 ; c\n 2 3 4 5 )\n",
		"a.test. IN TXT \"unterminated\nb.test. IN NS ns1.b.test.\n",
		")\n(\n((((\n",
		"\tIN NS ns1.test.\n",
		"a.test. 3600 IN TXT \"\\\"esc\\\" ; not a comment\"\n",
		"mixed.test. IN NS ns1.mixed.test.\r\nlf.test. IN NS ns1.lf.test.\n",
		"\x1f\x8b\x08\x00garbage-after-magic",
		"co.uk.. IN NS ns1.test.\n.co.uk IN NS ns1.test.\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Add(gzipSeed(mixedDump))
	f.Add(gzipSeed(mixedDump)[:20]) // truncated gzip

	f.Fuzz(func(t *testing.T, data []byte) {
		var r1, r2 *Result
		var err1, err2 error
		withProcs(1, func() {
			r1, err1 = ingest(context.Background(), bytes.NewReader(data), Config{}, 4096, 3)
		})
		withProcs(2, func() {
			r2, err2 = ingest(context.Background(), bytes.NewReader(data), Config{}, 4096, 3)
		})
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("worker count changed error-ness: %v vs %v", err1, err2)
		}
		if err1 != nil {
			return
		}
		if !reflect.DeepEqual(r1.Targets, r2.Targets) {
			t.Fatalf("worker count changed targets: %v vs %v", r1.Targets, r2.Targets)
		}
		if !reflect.DeepEqual(r1.Stats, r2.Stats) {
			t.Fatalf("worker count changed stats: %+v vs %+v", r1.Stats, r2.Stats)
		}
	})
}

func gzipSeed(s string) []byte {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	_, _ = zw.Write([]byte(s))
	_ = zw.Close()
	return buf.Bytes()
}
