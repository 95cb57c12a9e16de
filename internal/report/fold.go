package report

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"dnssecboot/internal/classify"
	"dnssecboot/internal/ordered"
	"dnssecboot/internal/scan"
)

// A scan's JSONL dump is its only record of progress. Every record
// carries its own cost object, so folding a dump's first k records
// gives the accumulator a live scan held after k zones: a resumed scan
// continues from it, a sharded run renders from its shards' dumps, and
// reanalyze re-runs the classification offline with it.

// ErrIncomplete marks the line a fold stopped at: a final line without
// its newline (a write cut short), or one that does not decode as a
// record.
var ErrIncomplete = errors.New("not a complete record")

// folded is one dump line after decoding and classification.
type folded struct {
	size int
	res  *classify.Result
	err  error
}

// Fold classifies the records at the head of a JSONL dump, with the
// validation time now, and adds them to a in dump order. The lines are
// decoded, reconstructed and classified on GOMAXPROCS workers. each,
// when not nil, sees record k's classification before the record is
// added; an error from it stops the fold and is returned as is.
//
// Fold returns the number of records added and the byte offset just
// past the last of them. It stops at the first line that is not a
// complete, decodable record, with an error wrapping ErrIncomplete, and
// at a read error with that error; a dump that ends after a record's
// newline gives a nil error.
func (a *Aggregate) Fold(r io.Reader, now time.Time, each func(k int, res *classify.Result) error) (records int, offset int64, err error) {
	br := bufio.NewReaderSize(r, 64<<10)
	var torn bool // the dump ends inside a line
	var readErr error
	next := func() ([]byte, bool) {
		line, err := br.ReadBytes('\n')
		if err == nil {
			return line, true
		}
		torn = len(line) > 0
		if err != io.EOF {
			readErr = err
		}
		return nil, false
	}
	classifier := classify.New(now)
	decode := func(_ context.Context, line []byte) folded {
		var o scan.ObservationJSON
		if err := json.Unmarshal(line, &o); err != nil {
			return folded{err: err}
		}
		zo, err := scan.FromJSON(o)
		if err != nil {
			return folded{err: err}
		}
		return folded{size: len(line), res: classifier.Classify(zo)}
	}
	incomplete := func(k int, err error) error {
		return fmt.Errorf("record %d at byte %d is %w: %v", k, offset, ErrIncomplete, err)
	}
	res, err := ordered.Map(context.Background(), runtime.GOMAXPROCS(0), next, decode, func(k int, f folded) error {
		if f.err != nil {
			return incomplete(k, f.err)
		}
		if each != nil {
			if err := each(k, f.res); err != nil {
				return err
			}
		}
		a.Add(f.res)
		offset += int64(f.size)
		return nil
	})
	switch {
	case err != nil:
	case readErr != nil:
		err = fmt.Errorf("report: reading the dump: %w", readErr)
	case torn:
		err = incomplete(res.Emitted, errors.New("the dump ends inside it"))
	}
	return res.Emitted, offset, err
}
