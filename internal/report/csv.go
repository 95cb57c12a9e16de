package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"

	"dnssecboot/internal/classify"
)

// CSV series export: every table/figure as machine-readable data, so
// the paper's plots can be regenerated with any plotting tool.

// WriteCSV emits one artefact as CSV. Artefacts: table1, table2,
// table3, figure1.
func (a *Aggregate) WriteCSV(w io.Writer, artefact string) error {
	cw := csv.NewWriter(w)
	defer cw.Flush()
	switch artefact {
	case "table1":
		return a.writeTable1CSV(cw)
	case "table2":
		return a.writeTable2CSV(cw)
	case "table3":
		return a.writeTable3CSV(cw)
	case "figure1":
		return a.writeFigure1CSV(cw)
	default:
		return fmt.Errorf("report: unknown CSV artefact %q", artefact)
	}
}

func (a *Aggregate) writeTable1CSV(cw *csv.Writer) error {
	if err := cw.Write([]string{"operator", "domains", "unsigned", "secured", "invalid", "islands"}); err != nil {
		return err
	}
	for _, s := range a.topOperators(20, func(s *OperatorStats) int { return s.Domains }) {
		if err := cw.Write([]string{
			s.Name, itoa(s.Domains), itoa(s.Unsigned), itoa(s.Secured), itoa(s.Invalid), itoa(s.Islands),
		}); err != nil {
			return err
		}
	}
	return nil
}

func (a *Aggregate) writeTable2CSV(cw *csv.Writer) error {
	if err := cw.Write([]string{"operator", "domains_with_cds", "share_of_operator_pct"}); err != nil {
		return err
	}
	for _, s := range a.topOperators(20, func(s *OperatorStats) int { return s.CDS }) {
		if s.CDS == 0 {
			break
		}
		if err := cw.Write([]string{
			s.Name, itoa(s.CDS), fmt.Sprintf("%.2f", pct(s.CDS, s.Domains)),
		}); err != nil {
			return err
		}
	}
	return nil
}

func (a *Aggregate) writeTable3CSV(cw *csv.Writer) error {
	if err := cw.Write([]string{"operator", "with_signal", "already_secured", "cannot_bootstrap",
		"deletion_request", "invalid_dnssec", "potential", "incorrect", "correct"}); err != nil {
		return err
	}
	names := make([]string, 0, len(a.Operators))
	for name := range a.Operators {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := a.Operators[name]
		if s.WithSignal == 0 {
			continue
		}
		if err := cw.Write([]string{
			name, itoa(s.WithSignal), itoa(s.AlreadySecured), itoa(s.CannotBootstrap),
			itoa(s.DeletionRequest), itoa(s.InvalidDNSSEC), itoa(s.Potential),
			itoa(s.Incorrect), itoa(s.Correct),
		}); err != nil {
			return err
		}
	}
	return nil
}

func (a *Aggregate) writeFigure1CSV(cw *csv.Writer) error {
	if err := cw.Write([]string{"bucket", "zones"}); err != nil {
		return err
	}
	for _, b := range classify.Potentials {
		if err := cw.Write([]string{b.String(), itoa(a.ByBucket[b])}); err != nil {
			return err
		}
	}
	return nil
}

func itoa(n int) string { return strconv.Itoa(n) }
