package scan

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/netip"
	"strconv"
	"unicode/utf8"

	"dnssecboot/internal/dnswire"
	"dnssecboot/internal/zone"
)

// JSON export of observations, one object per line (JSONL). The paper
// retained every raw DNS message of its 6.5 TiB campaign; this export
// keeps the analysis-relevant view: all records in presentation form,
// per-NS outcomes, validation results and query accounting, so the
// classification can be re-run offline.
//
// A line is the record's body — everything the scan observed, a pure
// function of (zone, world, seed) — followed by one trailing member,
// "cost":{…}, the query accounting that depends on how the scan was
// laid out. Dumps written before the cost object existed carry the
// counters at the top level; they still decode, with a zero Cost.

// ObservationJSON is the decoded form of one exported line. JSONLWriter
// writes a ZoneObservation's members directly, in this order and with
// these names, omissions and escapes, exactly as encoding/json would
// marshal this struct.
type ObservationJSON struct {
	Zone       string   `json:"zone"`
	ResolveErr string   `json:"resolve_err,omitempty"`
	ParentZone string   `json:"parent_zone,omitempty"`
	ParentNS   []string `json:"parent_ns,omitempty"`
	ChildNS    []string `json:"child_ns,omitempty"`
	DS         []string `json:"ds,omitempty"`
	DSSigs     []string `json:"ds_sigs,omitempty"`
	DNSKEY     []string `json:"dnskey,omitempty"`
	DNSKEYSigs []string `json:"dnskey_sigs,omitempty"`
	ChainValid bool     `json:"chain_valid"`
	ChainErr   string   `json:"chain_err,omitempty"`
	SampledNS  bool     `json:"sampled_ns,omitempty"`

	PerNS   []NSObservationJSON     `json:"per_ns,omitempty"`
	Signals []SignalObservationJSON `json:"signals,omitempty"`

	// Cost must stay the last member: Body cuts it off the line.
	Cost `json:"cost"`
}

// NSObservationJSON serialises one nameserver's view.
type NSObservationJSON struct {
	Host           string   `json:"host"`
	Addr           string   `json:"addr"`
	CDSOutcome     string   `json:"cds_outcome"`
	CDNSKEYOutcome string   `json:"cdnskey_outcome"`
	CDS            []string `json:"cds,omitempty"`
	CDNSKEY        []string `json:"cdnskey,omitempty"`
	CDSSigs        []string `json:"cds_sigs,omitempty"`
	CDNSKEYSigs    []string `json:"cdnskey_sigs,omitempty"`
}

// SignalObservationJSON serialises one RFC 9615 probe.
type SignalObservationJSON struct {
	NSHost         string   `json:"ns_host"`
	Owner          string   `json:"owner,omitempty"`
	Outcome        string   `json:"outcome"`
	CDSOutcome     string   `json:"cds_outcome,omitempty"`
	CDNSKEYOutcome string   `json:"cdnskey_outcome,omitempty"`
	Records        []string `json:"records,omitempty"`
	Sigs           []string `json:"sigs,omitempty"`
	Secure         bool     `json:"secure"`
	ValidationErr  string   `json:"validation_err,omitempty"`
	ZoneCut        bool     `json:"zone_cut,omitempty"`
	NameTooLong    bool     `json:"name_too_long,omitempty"`
}

// costKey opens the trailing cost member of an exported line.
const costKey = `,"cost":{`

// Body returns the deterministic part of one exported JSONL line: the
// record with its trailing cost object cut, still a JSON object, without
// the newline. It is the one definition of what two runs of the same
// (world, seed) must agree on byte for byte, whatever their concurrency,
// shard layout or resume points. A line that does not end in a cost
// object as JSONLWriter writes it (an old-format record, a foreign one)
// is its own body.
func Body(line []byte) []byte {
	line = bytes.TrimRight(line, "\r\n")
	// The cost object is flat and holds integers only, so its opening
	// brace is the last one in the line, its closing brace the first
	// after that, and only the record's own closing brace follows. A raw
	// quote cannot occur inside a JSON string, so costKey matched here is
	// never text inside an RR or an error message.
	start := bytes.LastIndexByte(line, '{') + 1 - len(costKey)
	if start < 1 || !bytes.HasPrefix(line[start:], []byte(costKey)) {
		return line
	}
	tail := line[start+len(costKey):] // `"queries":12}}`
	if bytes.IndexByte(tail, '}') != len(tail)-2 || tail[len(tail)-1] != '}' {
		return line
	}
	body := make([]byte, 0, start+1)
	return append(append(body, line[:start]...), '}')
}

// Bodies copies a JSONL export from r to w with every line reduced to
// its Body — the form in which two dumps are compared (`reanalyze -out
// body`).
func Bodies(w io.Writer, r io.Reader) error {
	br := bufio.NewReaderSize(r, 1<<20)
	bw := bufio.NewWriterSize(w, 1<<20)
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			bw.Write(Body(line))
			// bufio errors are sticky: this reports a failed Write too.
			if werr := bw.WriteByte('\n'); werr != nil {
				return werr
			}
		}
		if err == io.EOF {
			return bw.Flush()
		}
		if err != nil {
			return err
		}
	}
}

// JSONLWriter incrementally exports observations as JSONL, one record
// per Write call — the streaming sink behind `dnssec-scan -dump`.
// Writes reach the underlying writer at record boundaries only, so a
// failing writer never leaves a partial trailing line in the output,
// and every error carries the zone name and record index of the record
// it interrupted. The buffer is small enough that complete records
// reach a dump file every few dozen zones without a Flush: the dump is
// a running scan's record of progress (see report.Aggregate.Fold).
type JSONLWriter struct {
	bw    *bufio.Writer
	count int
	bytes int64
	// line holds the record being written; text one record's or
	// address's presentation form before it is escaped into line.
	line []byte
	text []byte
}

// jsonlBuffer is JSONLWriter's buffer size: about 68 records of a
// generated world.
const jsonlBuffer = 64 << 10

// NewJSONLWriter wraps w for incremental JSONL export.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	return &JSONLWriter{bw: bufio.NewWriterSize(w, jsonlBuffer)}
}

// Write appends one observation as a JSON line.
func (jw *JSONLWriter) Write(obs *ZoneObservation) error {
	jw.line = jw.appendRecord(jw.line[:0], obs)
	line := jw.line
	// Make room for the whole line before buffering any of it: a
	// mid-line flush that fails would otherwise have emitted a
	// fragment of this record.
	if jw.bw.Buffered() > 0 && jw.bw.Available() < len(line) {
		if err := jw.bw.Flush(); err != nil {
			return fmt.Errorf("scan: writing record %d (zone %s): %w", jw.count, obs.Zone, err)
		}
	}
	if _, err := jw.bw.Write(line); err != nil {
		return fmt.Errorf("scan: writing record %d (zone %s): %w", jw.count, obs.Zone, err)
	}
	jw.count++
	jw.bytes += int64(len(line))
	return nil
}

// appendRecord appends z as one line: the bytes encoding/json marshals
// for its ObservationJSON form, then a newline.
func (jw *JSONLWriter) appendRecord(b []byte, z *ZoneObservation) []byte {
	b = appendJSONString(append(b, `{"zone":`...), z.Zone)
	b = appendOptString(b, `,"resolve_err":`, z.ResolveErr)
	b = appendOptString(b, `,"parent_zone":`, z.ParentZone)
	b = appendStrings(b, `,"parent_ns":`, z.ParentNS)
	b = appendStrings(b, `,"child_ns":`, z.ChildNS)
	b = jw.appendRRs(b, `,"ds":`, z.DS)
	b = jw.appendRRs(b, `,"ds_sigs":`, z.DSSigs)
	b = jw.appendRRs(b, `,"dnskey":`, z.DNSKEY)
	b = jw.appendRRs(b, `,"dnskey_sigs":`, z.DNSKEYSigs)
	b = strconv.AppendBool(append(b, `,"chain_valid":`...), z.ChainValid)
	b = appendOptString(b, `,"chain_err":`, z.ChainErr)
	b = appendOptTrue(b, `,"sampled_ns":true`, z.SampledNS)
	if len(z.PerNS) > 0 {
		b = append(b, `,"per_ns":[`...)
		for i := range z.PerNS {
			if i > 0 {
				b = append(b, ',')
			}
			b = jw.appendNS(b, &z.PerNS[i])
		}
		b = append(b, ']')
	}
	if len(z.Signals) > 0 {
		b = append(b, `,"signals":[`...)
		for i := range z.Signals {
			if i > 0 {
				b = append(b, ',')
			}
			b = jw.appendSignal(b, &z.Signals[i])
		}
		b = append(b, ']')
	}
	c := &z.Cost
	b = strconv.AppendInt(append(b, costKey+`"queries":`...), c.Queries, 10)
	b = appendOptInt(b, `,"retries":`, c.Retries)
	b = appendOptInt(b, `,"gave_up":`, c.GaveUp)
	b = appendOptInt(b, `,"cache_hits":`, c.CacheHits)
	b = appendOptInt(b, `,"cache_misses":`, c.CacheMisses)
	b = appendOptInt(b, `,"coalesced":`, c.Coalesced)
	return append(b, "}}\n"...)
}

// appendNS appends one per-NS view as a JSON object.
func (jw *JSONLWriter) appendNS(b []byte, ns *NSObservation) []byte {
	b = appendJSONString(append(b, `{"host":`...), ns.Host)
	// netip.Addr.AppendTo writes nothing for the zero Addr, whose
	// String is "invalid IP".
	if ns.Addr.IsValid() {
		jw.text = ns.Addr.AppendTo(jw.text[:0])
	} else {
		jw.text = append(jw.text[:0], ns.Addr.String()...)
	}
	b = appendJSONString(append(b, `,"addr":`...), jw.text)
	b = appendJSONString(append(b, `,"cds_outcome":`...), ns.CDSOutcome.String())
	b = appendJSONString(append(b, `,"cdnskey_outcome":`...), ns.CDNSKEYOutcome.String())
	b = jw.appendRRs(b, `,"cds":`, ns.CDS)
	b = jw.appendRRs(b, `,"cdnskey":`, ns.CDNSKEY)
	b = jw.appendRRs(b, `,"cds_sigs":`, ns.CDSSigs)
	b = jw.appendRRs(b, `,"cdnskey_sigs":`, ns.CDNSKEYSigs)
	return append(b, '}')
}

// appendSignal appends one signal probe as a JSON object.
func (jw *JSONLWriter) appendSignal(b []byte, so *SignalObservation) []byte {
	b = appendJSONString(append(b, `{"ns_host":`...), so.NSHost)
	b = appendOptString(b, `,"owner":`, so.Owner)
	b = appendJSONString(append(b, `,"outcome":`...), so.Outcome.String())
	b = appendOptString(b, `,"cds_outcome":`, so.CDSOutcome.String())
	b = appendOptString(b, `,"cdnskey_outcome":`, so.CDNSKEYOutcome.String())
	b = jw.appendRRs(b, `,"records":`, so.Records)
	b = jw.appendRRs(b, `,"sigs":`, so.Sigs)
	b = strconv.AppendBool(append(b, `,"secure":`...), so.Secure)
	b = appendOptString(b, `,"validation_err":`, so.ValidationErr)
	b = appendOptTrue(b, `,"zone_cut":true`, so.ZoneCut)
	b = appendOptTrue(b, `,"name_too_long":true`, so.NameTooLong)
	return append(b, '}')
}

// appendRRs appends key and the records' presentation forms as a JSON
// array, or nothing for no records (omitempty).
func (jw *JSONLWriter) appendRRs(b []byte, key string, rrs []dnswire.RR) []byte {
	if len(rrs) == 0 {
		return b
	}
	b = append(append(b, key...), '[')
	for i := range rrs {
		if i > 0 {
			b = append(b, ',')
		}
		jw.text = rrs[i].AppendText(jw.text[:0])
		b = appendJSONString(b, jw.text)
	}
	return append(b, ']')
}

// appendStrings appends key and ss as a JSON array, or nothing for an
// empty ss (omitempty).
func appendStrings(b []byte, key string, ss []string) []byte {
	if len(ss) == 0 {
		return b
	}
	b = append(append(b, key...), '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, s)
	}
	return append(b, ']')
}

// appendOptString appends key and s, or nothing for "" (omitempty).
func appendOptString(b []byte, key, s string) []byte {
	if s == "" {
		return b
	}
	return appendJSONString(append(b, key...), s)
}

// appendOptInt appends key and v, or nothing for 0 (omitempty).
func appendOptInt(b []byte, key string, v int64) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendInt(append(b, key...), v, 10)
}

// appendOptTrue appends member, a key with its true value, when v is
// set (omitempty).
func appendOptTrue(b []byte, member string, v bool) []byte {
	if !v {
		return b
	}
	return append(b, member...)
}

// appendJSONString appends s as a JSON string escaped as encoding/json
// escapes it by default: quote, backslash and control characters, the
// HTML-sensitive <, > and &, U+2028 and U+2029, and every invalid UTF-8
// byte as U+FFFD.
func appendJSONString[T string | []byte](b []byte, s T) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

// Flush forces every buffered record to the underlying writer.
func (jw *JSONLWriter) Flush() error {
	if err := jw.bw.Flush(); err != nil {
		return fmt.Errorf("scan: flushing %d records: %w", jw.count, err)
	}
	return nil
}

// Bytes returns the total encoded size of the records written so far.
func (jw *JSONLWriter) Bytes() int64 { return jw.bytes }

// DecodeJSONL streams a JSONL export through fn, one record at a time,
// without materialising the whole dump. A decode error or a fn error
// stops the scan and is returned. The program's own reads of a dump go
// through report.Aggregate.Fold, which also finds where a torn dump
// stops being whole.
func DecodeJSONL(r io.Reader, fn func(ObservationJSON) error) error {
	dec := json.NewDecoder(bufio.NewReaderSize(r, 1<<20))
	for dec.More() {
		var o ObservationJSON
		if err := dec.Decode(&o); err != nil {
			return err
		}
		if err := fn(o); err != nil {
			return err
		}
	}
	return nil
}

// FromJSON reconstructs a typed observation from its export form,
// re-parsing every record's presentation string. Outcome strings map
// back to their enum values; unknown strings become OutcomeError.
func FromJSON(o ObservationJSON) (*ZoneObservation, error) {
	obs := &ZoneObservation{
		Zone:       o.Zone,
		ResolveErr: o.ResolveErr,
		ParentZone: o.ParentZone,
		ParentNS:   o.ParentNS,
		ChildNS:    o.ChildNS,
		ChainValid: o.ChainValid,
		ChainErr:   o.ChainErr,
		SampledNS:  o.SampledNS,
		Cost:       o.Cost,
	}
	var err error
	if obs.DS, err = parseRRs(o.DS); err != nil {
		return nil, err
	}
	if obs.DSSigs, err = parseRRs(o.DSSigs); err != nil {
		return nil, err
	}
	if obs.DNSKEY, err = parseRRs(o.DNSKEY); err != nil {
		return nil, err
	}
	if obs.DNSKEYSigs, err = parseRRs(o.DNSKEYSigs); err != nil {
		return nil, err
	}
	for _, ns := range o.PerNS {
		addr, _ := netip.ParseAddr(ns.Addr)
		n := NSObservation{
			Host:           ns.Host,
			Addr:           addr,
			CDSOutcome:     outcomeFromString(ns.CDSOutcome),
			CDNSKEYOutcome: outcomeFromString(ns.CDNSKEYOutcome),
		}
		if n.CDS, err = parseRRs(ns.CDS); err != nil {
			return nil, err
		}
		if n.CDNSKEY, err = parseRRs(ns.CDNSKEY); err != nil {
			return nil, err
		}
		if n.CDSSigs, err = parseRRs(ns.CDSSigs); err != nil {
			return nil, err
		}
		if n.CDNSKEYSigs, err = parseRRs(ns.CDNSKEYSigs); err != nil {
			return nil, err
		}
		obs.PerNS = append(obs.PerNS, n)
	}
	for _, sj := range o.Signals {
		// Exports written before the per-type outcomes existed carry
		// only the aggregate; fall back to it rather than inventing an
		// error.
		cdsOutcome, cdnskeyOutcome := sj.CDSOutcome, sj.CDNSKEYOutcome
		if cdsOutcome == "" {
			cdsOutcome = sj.Outcome
		}
		if cdnskeyOutcome == "" {
			cdnskeyOutcome = sj.Outcome
		}
		so := SignalObservation{
			NSHost:         sj.NSHost,
			Owner:          sj.Owner,
			Outcome:        outcomeFromString(sj.Outcome),
			CDSOutcome:     outcomeFromString(cdsOutcome),
			CDNSKEYOutcome: outcomeFromString(cdnskeyOutcome),
			Secure:         sj.Secure,
			ValidationErr:  sj.ValidationErr,
			ZoneCut:        sj.ZoneCut,
			NameTooLong:    sj.NameTooLong,
		}
		if so.Records, err = parseRRs(sj.Records); err != nil {
			return nil, err
		}
		if so.Sigs, err = parseRRs(sj.Sigs); err != nil {
			return nil, err
		}
		obs.Signals = append(obs.Signals, so)
	}
	return obs, nil
}

func parseRRs(lines []string) ([]dnswire.RR, error) {
	if len(lines) == 0 {
		return nil, nil
	}
	out := make([]dnswire.RR, 0, len(lines))
	for _, l := range lines {
		rr, err := zone.ParseRR(l)
		if err != nil {
			return nil, fmt.Errorf("scan: re-parsing %q: %w", l, err)
		}
		out = append(out, rr)
	}
	return out, nil
}

func outcomeFromString(s string) Outcome {
	for _, o := range []Outcome{OutcomeOK, OutcomeNoData, OutcomeNXDomain, OutcomeError, OutcomeTimeout, OutcomeUnreachable} {
		if o.String() == s {
			return o
		}
	}
	return OutcomeError
}
