package zone

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"dnssecboot/internal/dnswire"
)

// The master-file reader: the one place RFC 1035 master-file text is
// read line by line, for Parse and for the streaming zone-dump ingest.
// Physical lines come through a fixed bufio window under a hard length
// cap, LF and CRLF endings alike; a logical line joins a parenthesised
// record's physical lines with comments stripped (quotes respected).
// The reader holds the file's order-dependent state — $ORIGIN, $TTL
// and the owner a blank-owner line continues — so every Line it returns
// parses on its own (Line.Record), in any order or in parallel.

// A Line is one logical record line of a master file with the state it
// parses in.
type Line struct {
	// Num is the physical line the record starts on (1-based).
	Num int
	// Text is the record, its lines joined and its comments stripped.
	Text string
	// Origin and TTL are the $ORIGIN and $TTL in force.
	Origin string
	TTL    uint32
	// Owner is the absolute name a Text starting with a blank owner
	// continues: the last owner stated before it, "" if none was.
	Owner string
}

// A LineError is a problem confined to one line of a master file.
type LineError struct {
	Line int
	Msg  string
}

func (e *LineError) Error() string { return fmt.Sprintf("zone: line %d: %s", e.Line, e.Msg) }

// errLineTooLong marks a physical line over the cap, read past without
// being kept.
var errLineTooLong = errors.New("zone: line exceeds the cap")

// A LineReader reads the logical record lines of a master file in order.
type LineReader struct {
	br   *bufio.Reader
	max  int
	phys []byte // a physical line longer than the bufio window
	join []byte // the logical line being joined
	n    int    // physical lines read

	origin string
	ttl    uint32
	// The last stated owner as written and the origin it was written
	// under; owner is its absolute name once a blank owner asked.
	ownerTok, ownerOrigin, owner string

	logical, directives int
}

// NewLineReader returns a LineReader of r. origin is in force until a $ORIGIN
// replaces it ("" is the root) and the TTL is 3600 until a $TTL.
// maxLine caps a physical line, and a joined logical line, in bytes: a
// longer one is a *LineError, read past without being buffered.
func NewLineReader(r io.Reader, origin string, maxLine int) *LineReader {
	return &LineReader{
		br:     bufio.NewReaderSize(r, 64<<10),
		max:    maxLine,
		origin: dnswire.CanonicalName(origin),
		ttl:    3600,
	}
}

// Counts reports the physical lines read so far, the non-empty logical
// lines among them (records, directives and broken lines) and the
// $ORIGIN and $TTL directives.
func (r *LineReader) Counts() (physical, logical, directives int) {
	return r.n, r.logical, r.directives
}

// Next returns the next record line, or io.EOF after the last. A
// *LineError is confined to one line, which Next has passed: the
// caller may count it and read on. Any other error — the input failed,
// or it asked for $INCLUDE — ends the file.
func (r *LineReader) Next() (Line, error) {
	for {
		text, start, err := r.logicalLine()
		if err != nil {
			var le *LineError
			if errors.As(err, &le) {
				r.logical++
			}
			return Line{}, err
		}
		trimmed := strings.TrimLeft(text, " \t")
		if trimmed == "" {
			continue
		}
		r.logical++
		if trimmed[0] == '$' {
			if err := r.directive(trimmed, start); err != nil {
				return Line{}, err
			}
			continue
		}
		l := Line{Num: start, Text: text, Origin: r.origin, TTL: r.ttl}
		if len(trimmed) < len(text) {
			// RFC 1035 §5.1: a blank owner is the last stated owner,
			// resolved against the origin it was stated under.
			if r.owner == "" && r.ownerTok != "" {
				r.owner = absName(r.ownerTok, r.ownerOrigin)
			}
			l.Owner = r.owner
		} else {
			r.ownerTok, _ = nextField(text, 0)
			r.ownerOrigin, r.owner = r.origin, ""
		}
		return l, nil
	}
}

// directive applies a $ORIGIN or $TTL line; $INCLUDE ends the file.
func (r *LineReader) directive(text string, start int) error {
	f := strings.Fields(text)
	switch strings.ToUpper(f[0]) {
	case "$ORIGIN":
		if len(f) != 2 {
			return &LineError{start, "$ORIGIN wants one argument"}
		}
		r.origin = absName(f[1], r.origin)
	case "$TTL":
		if len(f) != 2 {
			return &LineError{start, "$TTL wants one argument"}
		}
		v, err := strconv.ParseUint(f[1], 10, 32)
		if err != nil {
			return &LineError{start, fmt.Sprintf("$TTL: %v", err)}
		}
		r.ttl = uint32(v)
	case "$INCLUDE":
		// Never skipped: the included records would silently go
		// missing, and the reader opens no file a master file names.
		return fmt.Errorf("zone: line %d: $INCLUDE is not supported", start)
	default:
		return &LineError{start, "unknown directive " + f[0]}
	}
	r.directives++
	return nil
}

// logicalLine joins physical lines while inside parentheses and strips
// comments, respecting quoted strings. start is the physical line the
// logical line begins on.
func (r *LineReader) logicalLine() (text string, start int, err error) {
	r.join = r.join[:0]
	start = r.n + 1
	depth := 0
	for {
		line, err := r.physical()
		switch {
		case errors.Is(err, io.EOF):
			if depth > 0 {
				return "", 0, &LineError{start, "EOF inside '('"}
			}
			return "", 0, io.EOF
		case errors.Is(err, errLineTooLong):
			return "", 0, &LineError{r.n, fmt.Sprintf("line exceeds %d bytes", r.max)}
		case err != nil:
			return "", 0, fmt.Errorf("zone: line %d: %w", r.n+1, err)
		}
		inQuote := false
	scan:
		for i, c := range line {
			switch {
			case c == '"' && (i == 0 || line[i-1] != '\\'):
				inQuote = !inQuote
				r.join = append(r.join, c)
			case c == ';' && !inQuote:
				break scan // a comment runs to the end of the physical line
			case c == '(' && !inQuote:
				depth++
				r.join = append(r.join, ' ')
			case c == ')' && !inQuote:
				depth--
				if depth < 0 {
					return "", 0, &LineError{r.n, "unbalanced ')'"}
				}
				r.join = append(r.join, ' ')
			default:
				r.join = append(r.join, c)
			}
		}
		if inQuote {
			return "", 0, &LineError{r.n, "unterminated quoted string"}
		}
		if depth == 0 {
			return strings.TrimRight(string(r.join), " \t"), start, nil
		}
		if len(r.join) > r.max {
			return "", 0, &LineError{start, fmt.Sprintf("logical line exceeds %d bytes", r.max)}
		}
		r.join = append(r.join, ' ')
	}
}

// physical returns the next physical line without its terminator, valid
// until the next call. It returns io.EOF at the end of input and
// errLineTooLong for a line over the cap, whose rest it reads past in
// constant memory; any other error is the input's (gzip corruption or
// truncation surfaces here).
func (r *LineReader) physical() ([]byte, error) {
	line, err := r.br.ReadSlice('\n')
	if errors.Is(err, bufio.ErrBufferFull) {
		// Longer than the window: gather it, up to the cap.
		r.phys = append(r.phys[:0], line...)
		for errors.Is(err, bufio.ErrBufferFull) && len(r.phys) <= r.max {
			line, err = r.br.ReadSlice('\n')
			r.phys = append(r.phys, line...)
		}
		line = r.phys
	}
	if len(line) > r.max {
		r.n++
		for errors.Is(err, bufio.ErrBufferFull) {
			_, err = r.br.ReadSlice('\n')
		}
		if err != nil && !errors.Is(err, io.EOF) {
			return nil, err
		}
		return nil, errLineTooLong
	}
	if err != nil && (!errors.Is(err, io.EOF) || len(line) == 0) {
		return nil, err // io.EOF at the end, or the input failed
	}
	r.n++
	// One LF and, under it, one CR go: LF and CRLF files read alike.
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}
