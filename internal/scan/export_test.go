package scan

import (
	"io"

	"dnssecboot/internal/dnswire"
)

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

// NSSetsDiffer reports whether the parent and child disagree about the
// NS set — the misconfiguration behind 33 of the signal-violation
// zones in §4.4.
func (z *ZoneObservation) NSSetsDiffer() bool {
	if len(z.ParentNS) == 0 || len(z.ChildNS) == 0 {
		return false
	}
	norm := func(in []string) map[string]bool {
		m := make(map[string]bool, len(in))
		for _, h := range in {
			m[dnswire.CanonicalName(h)] = true
		}
		return m
	}
	p, c := norm(z.ParentNS), norm(z.ChildNS)
	if len(p) != len(c) {
		return true
	}
	for h := range p {
		if !c[h] {
			return true
		}
	}
	return false
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

// ToJSON converts an observation into its ObservationJSON form: the
// oracle JSONLWriter is held to, which must write json.Marshal of it
// byte for byte.
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
