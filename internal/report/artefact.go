package report

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// The printable artefacts, in the order "all" prints them. The three
// binaries that take -out (dnssec-scan, scanctl, reanalyze) share this
// table, and check the name against it before doing any work.
var artefacts = []struct {
	name   string
	render func(*Aggregate) string
}{
	{"headline", (*Aggregate).Headline},
	{"figure1", (*Aggregate).Figure1},
	{"table1", func(a *Aggregate) string { return a.Table1(20) }},
	{"table2", func(a *Aggregate) string { return a.Table2(20) }},
	{"cds", (*Aggregate).CDSFindings},
	{"table3", (*Aggregate).Table3},
	{"queries", (*Aggregate).QueryStats},
}

// artefactNames lists "all", every single artefact, then the extra
// values (such as "none") a binary's -out flag handles itself.
func artefactNames(extra []string) []string {
	names := []string{"all"}
	for _, a := range artefacts {
		names = append(names, a.name)
	}
	return append(names, extra...)
}

// ArtefactChoices is the value list for a binary's -out help text.
func ArtefactChoices(extra ...string) string {
	return strings.Join(artefactNames(extra), "|")
}

// CheckArtefact reports whether name is one WriteArtefact accepts or
// one of the extra values. It needs no report, so a typo fails before
// the scan starts.
func CheckArtefact(name string, extra ...string) error {
	if slices.Contains(artefactNames(extra), name) {
		return nil
	}
	return fmt.Errorf("unknown artefact %q (want %s)", name, ArtefactChoices(extra...))
}

// WriteArtefact prints one artefact followed by a newline, or for "all"
// every artefact followed by a blank line.
func (a *Aggregate) WriteArtefact(w io.Writer, name string) error {
	if err := CheckArtefact(name); err != nil {
		return err
	}
	for _, art := range artefacts {
		switch name {
		case art.name:
			_, err := fmt.Fprintln(w, art.render(a))
			return err
		case "all":
			if _, err := fmt.Fprintf(w, "%s\n\n", art.render(a)); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteCSVDir writes table1/2/3 and figure1 as <dir>/<artefact>.csv.
func (a *Aggregate) WriteCSVDir(dir string) error {
	for _, name := range []string{"table1", "table2", "table3", "figure1"} {
		f, err := os.Create(filepath.Join(dir, name+".csv"))
		if err != nil {
			return err
		}
		err = a.WriteCSV(f, name)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}
