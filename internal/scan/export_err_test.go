package scan

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// Regression tests for WriteJSONL's failure behaviour: errors must name
// the zone and record index they interrupted, and a failing writer must
// never be left holding a partial trailing line.

// failAfterWriter accepts whole writes until limit bytes have been
// taken, then rejects every further write outright (n=0). Each Write is
// atomic — all or nothing — modelling a full disk or closed pipe at a
// write boundary.
type failAfterWriter struct {
	limit int
	buf   bytes.Buffer
	err   error
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.buf.Len()+len(p) > w.limit {
		return 0, w.err
	}
	return w.buf.Write(p)
}

func exportObservations(n int, padding int) []*ZoneObservation {
	out := make([]*ZoneObservation, n)
	for i := range out {
		out[i] = &ZoneObservation{
			Zone:       fmt.Sprintf("zone%06d.example.", i),
			ParentZone: "example.",
			// ResolveErr pads the record so a few thousand records
			// overflow WriteJSONL's 1 MiB buffer.
			ResolveErr: strings.Repeat("x", padding),
			Cost:       Cost{Queries: int64(i)},
		}
	}
	return out
}

func TestWriteJSONLErrorNamesZoneAndIndex(t *testing.T) {
	obs := exportObservations(5, 0)
	w := &failAfterWriter{limit: 0, err: errors.New("disk full")}
	err := WriteJSONL(w, obs)
	if err == nil {
		t.Fatal("WriteJSONL succeeded against a dead writer")
	}
	if !errors.Is(err, w.err) {
		t.Fatalf("error chain lost the writer's error: %v", err)
	}
	// With a 1 MiB buffer and 5 tiny records the failure surfaces at
	// the final flush; the error must still say what was being written.
	if !strings.Contains(err.Error(), "record") {
		t.Fatalf("error does not identify the failing record: %v", err)
	}
}

func TestWriteJSONLErrorAtRecordBoundaryNamesZone(t *testing.T) {
	// Records of ~64 KiB each: the 1 MiB buffer fills after ~16
	// records, so the failing flush happens mid-stream, attributable to
	// a specific record.
	obs := exportObservations(64, 64*1024)
	w := &failAfterWriter{limit: 1 << 20, err: errors.New("disk full")}
	err := WriteJSONL(w, obs)
	if err == nil {
		t.Fatal("WriteJSONL succeeded past the writer's limit")
	}
	if !strings.Contains(err.Error(), "zone") || !strings.Contains(err.Error(), "record") {
		t.Fatalf("mid-stream error does not carry zone/record context: %v", err)
	}
}

func TestWriteJSONLNoPartialTrailingLine(t *testing.T) {
	// Enough data to overflow the internal buffer several times against
	// a writer that dies partway: whatever the writer accepted must end
	// exactly at a record boundary. The pre-fix code flushed whenever
	// the encoder crossed the 1 MiB mark, splitting a record across two
	// writes — the first half survives in the output when the second
	// write fails.
	obs := exportObservations(256, 64*1024)
	for _, limit := range []int{1 << 20, 3 << 20, 5 << 20} {
		w := &failAfterWriter{limit: limit, err: errors.New("disk full")}
		if err := WriteJSONL(w, obs); err == nil {
			t.Fatalf("limit %d: WriteJSONL succeeded past the writer's limit", limit)
		}
		got := w.buf.Bytes()
		if len(got) == 0 {
			continue
		}
		if got[len(got)-1] != '\n' {
			tail := got[len(got)-min(len(got), 80):]
			t.Fatalf("limit %d: output ends mid-record: ...%q", limit, tail)
		}
		// Every accepted line must be complete, parseable JSON.
		if _, err := ReadJSONL(bytes.NewReader(got)); err != nil {
			t.Fatalf("limit %d: accepted output does not re-parse: %v", limit, err)
		}
	}
}
