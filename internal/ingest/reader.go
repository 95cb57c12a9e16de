package ingest

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"dnssecboot/internal/dnswire"
)

// The chunked line layer. Real zone dumps are too large to buffer and
// too dirty to trust: physical lines are read through a fixed-size
// bufio window with a hard per-line cap, logical lines are assembled by
// joining parenthesised continuations with comments stripped (quotes
// respected, CRLF and LF endings mixed freely), and every stateful
// master-file feature — $ORIGIN/$TTL tracking, blank-owner
// continuation — is resolved here, sequentially, so that each emitted
// lineItem is self-contained and the parse stage can run in parallel.

// errLineTooLong marks a physical line over the cap. It is recoverable:
// the reader discards the remainder of the line in O(1) memory and
// continues with the next one.
var errLineTooLong = errors.New("ingest: line exceeds maximum length")

// lineItem is one fully-contextualised logical line, ready for
// zone.ParseRecord with no shared state.
type lineItem struct {
	// line is the 1-based physical line the logical line starts on.
	line int
	// origin and ttl are the $ORIGIN / $TTL values in effect.
	origin string
	ttl    uint32
	// text is the joined, comment-stripped record line with the owner
	// made explicit (blank-owner continuation already substituted).
	text string
	// err, when non-empty, marks a line that failed structurally
	// (over-long, unbalanced parentheses, bad directive); text is then
	// empty. The emitter counts it, or aborts the run in strict mode.
	err string
}

// lineReader yields physical lines with a hard length cap and CRLF
// tolerance, reusing one accumulation buffer.
type lineReader struct {
	br   *bufio.Reader
	max  int
	buf  []byte
	line int // physical lines consumed so far
}

// next returns the next physical line without its terminator. It
// returns io.EOF at clean end of input, errLineTooLong for an over-long
// line (after discarding the remainder), and any other error verbatim
// (gzip corruption or truncation surfaces here).
func (lr *lineReader) next() ([]byte, error) {
	lr.buf = lr.buf[:0]
	for {
		chunk, err := lr.br.ReadSlice('\n')
		lr.buf = append(lr.buf, chunk...)
		switch {
		case len(lr.buf) > lr.max:
			lr.line++
			if err == nil {
				return nil, errLineTooLong
			}
			// Still inside the over-long line: drain it without
			// accumulating so memory stays bounded.
			for errors.Is(err, bufio.ErrBufferFull) {
				_, err = lr.br.ReadSlice('\n')
			}
			if err != nil && !errors.Is(err, io.EOF) {
				return nil, err
			}
			return nil, errLineTooLong
		case err == nil:
			lr.line++
			return trimEOL(lr.buf), nil
		case errors.Is(err, bufio.ErrBufferFull):
			continue
		case errors.Is(err, io.EOF):
			if len(lr.buf) == 0 {
				return nil, io.EOF
			}
			lr.line++
			return trimEOL(lr.buf), nil // final line without terminator
		default:
			return nil, err
		}
	}
}

// trimEOL strips one trailing LF and, under it, one trailing CR, so LF
// and CRLF files (and mixtures of both) read identically.
func trimEOL(b []byte) []byte {
	if n := len(b); n > 0 && b[n-1] == '\n' {
		b = b[:n-1]
	}
	if n := len(b); n > 0 && b[n-1] == '\r' {
		b = b[:n-1]
	}
	return b
}

// assembler turns physical lines into lineItems. It is the single
// sequential stage of the pipeline: everything it emits is
// order-dependent (directive state, blank owners), and everything after
// it is order-free.
type assembler struct {
	lr        *lineReader
	origin    string
	ttl       uint32
	lastOwner string
	max       int // logical-line cap

	physical   int // physical lines consumed (for stats)
	logical    int // non-empty logical lines (records + directives + bad lines)
	directives int
}

// next assembles the next non-empty logical line. ok is false at end of
// input. A non-nil error is fatal for the whole ingest ($INCLUDE, gzip
// corruption, read errors); recoverable problems come back as items
// with err set.
func (a *assembler) next() (item lineItem, ok bool, fatal error) {
	for {
		text, start, err := a.logicalLine()
		a.physical = a.lr.line
		if errors.Is(err, io.EOF) {
			return lineItem{}, false, nil
		}
		if err != nil {
			var bad badLine
			if errors.As(err, &bad) {
				a.logical++
				return lineItem{line: bad.line, err: bad.msg}, true, nil
			}
			return lineItem{}, false, fmt.Errorf("ingest: line %d: %w", a.lr.line+1, err)
		}
		if strings.TrimLeft(text, " \t") == "" {
			continue
		}
		a.logical++
		if item, handled, err := a.directive(text, start); handled || err != nil {
			if err != nil {
				return lineItem{}, false, err
			}
			if item.err != "" {
				return item, true, nil
			}
			continue
		}
		// Blank owner: substitute the previous explicit owner so the
		// line parses in isolation.
		if text[0] == ' ' || text[0] == '\t' {
			if a.lastOwner == "" {
				return lineItem{line: start, err: "record with blank owner before any owner"}, true, nil
			}
			text = a.lastOwner + text
		} else {
			a.lastOwner = ownerToken(text)
		}
		return lineItem{line: start, origin: a.origin, ttl: a.ttl, text: text}, true, nil
	}
}

// badLine is a recoverable structural problem in one logical line.
type badLine struct {
	line int
	msg  string
}

func (b badLine) Error() string { return fmt.Sprintf("line %d: %s", b.line, b.msg) }

// logicalLine joins continuation lines while inside parentheses and
// strips comments, respecting quoted strings — the streaming sibling of
// the zone package's in-memory joiner. start is the physical line the
// logical line began on.
func (a *assembler) logicalLine() (text string, start int, err error) {
	var sb strings.Builder
	depth := 0
	start = a.lr.line + 1
	for {
		raw, rerr := a.lr.next()
		if rerr != nil {
			switch {
			case errors.Is(rerr, io.EOF):
				if depth > 0 {
					return "", 0, badLine{start, "EOF inside '('"}
				}
				if sb.Len() > 0 {
					// Unreachable today (depth 0 returns below), kept
					// for safety: flush a trailing partial join.
					return strings.TrimRight(sb.String(), " \t"), start, nil
				}
				return "", 0, io.EOF
			case errors.Is(rerr, errLineTooLong):
				return "", 0, badLine{a.lr.line, fmt.Sprintf("physical line exceeds %d bytes", a.max)}
			default:
				return "", 0, rerr
			}
		}
		line := raw
		inQuote := false
	scan:
		for i := 0; i < len(line); i++ {
			c := line[i]
			switch {
			case c == '"' && (i == 0 || line[i-1] != '\\'):
				inQuote = !inQuote
				sb.WriteByte(c)
			case c == ';' && !inQuote:
				break scan // comment runs to end of physical line
			case c == '(' && !inQuote:
				depth++
				sb.WriteByte(' ')
			case c == ')' && !inQuote:
				depth--
				if depth < 0 {
					return "", 0, badLine{a.lr.line, "unbalanced ')'"}
				}
				sb.WriteByte(' ')
			default:
				sb.WriteByte(c)
			}
		}
		if inQuote {
			return "", 0, badLine{a.lr.line, "unterminated quoted string"}
		}
		if depth == 0 {
			return strings.TrimRight(sb.String(), " \t"), start, nil
		}
		if sb.Len() > a.max {
			return "", 0, badLine{start, fmt.Sprintf("logical line exceeds %d bytes", a.max)}
		}
		sb.WriteByte(' ')
	}
}

// directive consumes $ORIGIN/$TTL lines (updating assembler state) and
// rejects $INCLUDE. handled is true when the line was a directive.
func (a *assembler) directive(text string, start int) (item lineItem, handled bool, fatal error) {
	trimmed := strings.TrimLeft(text, " \t")
	if !strings.HasPrefix(trimmed, "$") {
		return lineItem{}, false, nil
	}
	fieldsOf := strings.Fields(trimmed)
	switch strings.ToUpper(fieldsOf[0]) {
	case "$ORIGIN":
		if len(fieldsOf) != 2 {
			return lineItem{line: start, err: "$ORIGIN wants one argument"}, true, nil
		}
		a.origin = dnswire.CanonicalName(fieldsOf[1])
		a.directives++
		return lineItem{}, true, nil
	case "$TTL":
		if len(fieldsOf) != 2 {
			return lineItem{line: start, err: "$TTL wants one argument"}, true, nil
		}
		v, err := strconv.ParseUint(fieldsOf[1], 10, 32)
		if err != nil {
			return lineItem{line: start, err: fmt.Sprintf("$TTL: %v", err)}, true, nil
		}
		a.ttl = uint32(v)
		a.directives++
		return lineItem{}, true, nil
	case "$INCLUDE":
		// Never recoverable: silently skipping an include would
		// truncate the target list, and opening caller-controlled
		// paths from inside a dump is a non-starter.
		return lineItem{}, true, fmt.Errorf("ingest: line %d: $INCLUDE is not supported (ingest never opens secondary files)", start)
	default:
		return lineItem{line: start, err: fmt.Sprintf("unknown directive %s", fieldsOf[0])}, true, nil
	}
}

// ownerToken extracts the owner (first whitespace-delimited token) of a
// record line that starts in column one.
func ownerToken(text string) string {
	if i := strings.IndexAny(text, " \t"); i >= 0 {
		return text[:i]
	}
	return text
}
