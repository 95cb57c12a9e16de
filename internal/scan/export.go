package scan

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/netip"

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

// ObservationJSON is the serialised form of a ZoneObservation.
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

func rrStrings(rrs []dnswire.RR) []string {
	if len(rrs) == 0 {
		return nil
	}
	out := make([]string, len(rrs))
	for i, rr := range rrs {
		out[i] = rr.String()
	}
	return out
}

// ToJSON converts an observation into its export form.
func (z *ZoneObservation) ToJSON() ObservationJSON {
	out := ObservationJSON{
		Zone:       z.Zone,
		ResolveErr: z.ResolveErr,
		ParentZone: z.ParentZone,
		ParentNS:   z.ParentNS,
		ChildNS:    z.ChildNS,
		DS:         rrStrings(z.DS),
		DSSigs:     rrStrings(z.DSSigs),
		DNSKEY:     rrStrings(z.DNSKEY),
		DNSKEYSigs: rrStrings(z.DNSKEYSigs),
		ChainValid: z.ChainValid,
		ChainErr:   z.ChainErr,
		SampledNS:  z.SampledNS,
		Cost:       z.Cost,
	}
	for _, ns := range z.PerNS {
		out.PerNS = append(out.PerNS, NSObservationJSON{
			Host:           ns.Host,
			Addr:           ns.Addr.String(),
			CDSOutcome:     ns.CDSOutcome.String(),
			CDNSKEYOutcome: ns.CDNSKEYOutcome.String(),
			CDS:            rrStrings(ns.CDS),
			CDNSKEY:        rrStrings(ns.CDNSKEY),
			CDSSigs:        rrStrings(ns.CDSSigs),
			CDNSKEYSigs:    rrStrings(ns.CDNSKEYSigs),
		})
	}
	for _, so := range z.Signals {
		out.Signals = append(out.Signals, SignalObservationJSON{
			NSHost:         so.NSHost,
			Owner:          so.Owner,
			Outcome:        so.Outcome.String(),
			CDSOutcome:     so.CDSOutcome.String(),
			CDNSKEYOutcome: so.CDNSKEYOutcome.String(),
			Records:        rrStrings(so.Records),
			Sigs:           rrStrings(so.Sigs),
			Secure:         so.Secure,
			ValidationErr:  so.ValidationErr,
			ZoneCut:        so.ZoneCut,
			NameTooLong:    so.NameTooLong,
		})
	}
	return out
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
// it interrupted. Byte accounting (Bytes) lets a checkpoint record the
// exact durable offset of the last flushed record.
type JSONLWriter struct {
	bw    *bufio.Writer
	count int
	bytes int64
	// line holds the record being written; enc encodes into it, with
	// json.Marshal's escaping and the newline appended.
	line bytes.Buffer
	enc  *json.Encoder
}

// NewJSONLWriter wraps w for incremental JSONL export.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	jw := &JSONLWriter{bw: bufio.NewWriterSize(w, 1<<20)}
	jw.enc = json.NewEncoder(&jw.line)
	return jw
}

// Write appends one observation as a JSON line.
func (jw *JSONLWriter) Write(obs *ZoneObservation) error {
	jw.line.Reset()
	if err := jw.enc.Encode(obs.ToJSON()); err != nil {
		return fmt.Errorf("scan: encoding record %d (zone %s): %w", jw.count, obs.Zone, err)
	}
	line := jw.line.Bytes()
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

// Flush forces every buffered record to the underlying writer.
func (jw *JSONLWriter) Flush() error {
	if err := jw.bw.Flush(); err != nil {
		return fmt.Errorf("scan: flushing %d records: %w", jw.count, err)
	}
	return nil
}

// Count returns how many records have been written.
func (jw *JSONLWriter) Count() int { return jw.count }

// Bytes returns the total encoded size of the records written so far
// (only durable in the underlying writer after a successful Flush).
func (jw *JSONLWriter) Bytes() int64 { return jw.bytes }

// WriteJSONL streams a batch of observations to w, one JSON object per
// line, through a JSONLWriter (same flushing and error guarantees).
func WriteJSONL(w io.Writer, observations []*ZoneObservation) error {
	jw := NewJSONLWriter(w)
	for _, obs := range observations {
		if err := jw.Write(obs); err != nil {
			return err
		}
	}
	return jw.Flush()
}

// DecodeJSONL streams a JSONL export through fn, one record at a time,
// without materialising the whole dump — the memory-bounded read side
// of the pipeline (reanalyze at full scale). A decode error or a fn
// error stops the scan and is returned.
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

// ReadJSONL parses a JSONL export back into the serialised form (for
// offline analysis tooling and tests).
func ReadJSONL(r io.Reader) ([]ObservationJSON, error) {
	var out []ObservationJSON
	err := DecodeJSONL(r, func(o ObservationJSON) error {
		out = append(out, o)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
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
