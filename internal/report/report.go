// Package report aggregates classification results and renders the
// paper's evaluation artefacts: the §4.1 headline statistics, Table 1
// (DNSSEC among the top-20 operators), Table 2 (top-20 CDS
// publishers), Figure 1 (bootstrapping-possibility breakdown) and
// Table 3 (signal-zone publication ladder).
package report

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"dnssecboot/internal/classify"
	"dnssecboot/internal/operator"
	"dnssecboot/internal/scan"
)

// OperatorStats accumulates per-operator counts.
type OperatorStats struct {
	Name     string
	Domains  int
	Unsigned int
	Secured  int
	Invalid  int
	Islands  int
	CDS      int
	// DeleteIslands counts this operator's secure islands publishing a
	// deletion request (§4.2: 96.7 % of these are Cloudflare's).
	DeleteIslands int

	// Table-3 ladder (zones with signal records).
	WithSignal      int
	AlreadySecured  int
	CannotBootstrap int
	DeletionRequest int
	InvalidDNSSEC   int
	Potential       int
	Incorrect       int
	Correct         int
}

// add sums another operator's counts into s, for Table 3's Others and
// Total columns.
func (s *OperatorStats) add(o *OperatorStats) {
	s.Domains += o.Domains
	s.Unsigned += o.Unsigned
	s.Secured += o.Secured
	s.Invalid += o.Invalid
	s.Islands += o.Islands
	s.CDS += o.CDS
	s.DeleteIslands += o.DeleteIslands
	s.WithSignal += o.WithSignal
	s.AlreadySecured += o.AlreadySecured
	s.CannotBootstrap += o.CannotBootstrap
	s.DeletionRequest += o.DeletionRequest
	s.InvalidDNSSEC += o.InvalidDNSSEC
	s.Potential += o.Potential
	s.Incorrect += o.Incorrect
	s.Correct += o.Correct
}

// Aggregate is the rollup of a whole scan.
type Aggregate struct {
	Total      int
	Unresolved int
	ByStatus   map[classify.Status]int
	ByBucket   map[classify.Potential]int
	Operators  map[string]*OperatorStats

	CDSCounts
	// Cost sums every zone's query, resilience (E-chaos) and
	// shared-cache (E-cache) accounting, for the Appendix-D line.
	scan.Cost
}

// CDSCounts are the §4.2 details.
type CDSCounts struct {
	CDSPresent        int
	CDSQueryFailed    int
	CDSInconsistent   int
	CDSInconsistentMO int // inconsistent zones with multiple operators
	CDSInUnsigned     int
	CDSDeleteUnsigned int
	CDSDeleteSecured  int
	CDSDeleteIslands  int
	CDSOrphan         int // CDS not matching any DNSKEY (islands)
	CDSBadSig         int // invalid signatures over in-zone CDS (islands)
}

// NewAggregate returns an empty streaming accumulator. Feed it one
// classification at a time with Add; every table and figure renders
// from the running tallies, so a scan never has to retain its
// observations or results.
func NewAggregate() *Aggregate {
	return &Aggregate{
		ByStatus:  make(map[classify.Status]int),
		ByBucket:  make(map[classify.Potential]int),
		Operators: make(map[string]*OperatorStats),
	}
}

// Add folds one zone's classification into the running tallies.
func (a *Aggregate) Add(r *classify.Result) {
	a.Total++
	a.Cost.Add(r.Cost)
	if r.Status == classify.StatusUnresolved {
		a.Unresolved++
		return
	}
	a.ByStatus[r.Status]++
	a.ByBucket[r.Bucket]++

	op := a.op(r.Operator.Operator)
	op.Domains++
	switch r.Status {
	case classify.StatusUnsigned:
		op.Unsigned++
	case classify.StatusSecured:
		op.Secured++
	case classify.StatusInvalid:
		op.Invalid++
	case classify.StatusIsland:
		op.Islands++
	case classify.StatusUnresolved:
		// Unreachable: unresolved results return before the per-operator
		// accounting above. Kept so the Status switch stays exhaustive.
	}

	if r.CDS.QueryFailed {
		a.CDSQueryFailed++
	}
	if r.CDS.Present {
		a.CDSPresent++
		op.CDS++
		if !r.CDS.Consistent {
			a.CDSInconsistent++
			if r.Operator.MultiOperator {
				a.CDSInconsistentMO++
			}
		}
		if r.CDS.InUnsignedZone {
			a.CDSInUnsigned++
			if r.CDS.Delete {
				a.CDSDeleteUnsigned++
			}
		}
		if r.CDS.Delete {
			switch r.Status {
			case classify.StatusSecured:
				a.CDSDeleteSecured++
			case classify.StatusIsland:
				a.CDSDeleteIslands++
				op.DeleteIslands++
			default:
				// Delete records in unsigned or invalid zones are already
				// counted by CDSDeleteUnsigned / the invalid totals.
			}
		}
		if r.Status == classify.StatusIsland && !r.CDS.Delete && r.CDS.Consistent {
			if !r.CDS.MatchesDNSKEY {
				a.CDSOrphan++
			} else if !r.CDS.SigValid {
				a.CDSBadSig++
			}
		}
	}

	if r.Signal.HasSignal {
		op.WithSignal++
		switch {
		case r.Signal.AlreadySecured:
			op.AlreadySecured++
		case r.Signal.DeletionRequest:
			op.CannotBootstrap++
			op.DeletionRequest++
		case r.Signal.InvalidDNSSEC:
			op.CannotBootstrap++
			op.InvalidDNSSEC++
		case r.Signal.Potential:
			op.Potential++
			if r.Signal.Correct {
				op.Correct++
			} else {
				op.Incorrect++
			}
		}
	}
}

func (a *Aggregate) op(name string) *OperatorStats {
	s, ok := a.Operators[name]
	if !ok {
		s = &OperatorStats{Name: name}
		a.Operators[name] = s
	}
	return s
}

// Resolved returns the population size excluding unresolved zones.
func (a *Aggregate) Resolved() int { return a.Total - a.Unresolved }

func pct(n, total int) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(total)
}

// Headline renders the §4.1 aggregate line.
func (a *Aggregate) Headline() string {
	res := a.Resolved()
	return fmt.Sprintf(
		"resolved %d zones: %d (%.1f%%) unsigned, %d (%.1f%%) secured, %d (%.1f%%) invalid, %d (%.1f%%) secure islands",
		res,
		a.ByStatus[classify.StatusUnsigned], pct(a.ByStatus[classify.StatusUnsigned], res),
		a.ByStatus[classify.StatusSecured], pct(a.ByStatus[classify.StatusSecured], res),
		a.ByStatus[classify.StatusInvalid], pct(a.ByStatus[classify.StatusInvalid], res),
		a.ByStatus[classify.StatusIsland], pct(a.ByStatus[classify.StatusIsland], res),
	)
}

// aggregateTails are the synthetic stand-ins for populations the paper
// does not attribute to a named operator; they are excluded from the
// per-operator tables (but still counted in every aggregate).
var aggregateTails = map[string]bool{
	operator.Unknown: true,
	"OtherDNS":       true,
	"LegacyDNS":      true,
	"PartnerDNS":     true,
	"SignalMisc":     true,
	"MultiSigner":    true,
}

// topOperators returns operator stats sorted by a metric, excluding
// the unattributed aggregates, capped at n.
func (a *Aggregate) topOperators(n int, metric func(*OperatorStats) int) []*OperatorStats {
	var ops []*OperatorStats
	for name, s := range a.Operators {
		if aggregateTails[name] {
			continue
		}
		ops = append(ops, s)
	}
	sort.Slice(ops, func(i, j int) bool {
		mi, mj := metric(ops[i]), metric(ops[j])
		if mi != mj {
			return mi > mj
		}
		return ops[i].Name < ops[j].Name
	})
	if len(ops) > n {
		ops = ops[:n]
	}
	return ops
}

// Table1 renders the DNSSEC-deployment table for the top-n operators
// by domain count (paper Table 1).
func (a *Aggregate) Table1(n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: DNSSEC amongst the top %d DNS operators\n", n)
	fmt.Fprintf(&b, "%-16s %10s %10s %6s %9s %6s %8s %6s %8s %6s\n",
		"Operator", "Domains", "Unsigned", "%", "Secured", "%", "Invalid", "%", "Islands", "%")
	for _, s := range a.topOperators(n, func(s *OperatorStats) int { return s.Domains }) {
		fmt.Fprintf(&b, "%-16s %10d %10d %6.2f %9d %6.2f %8d %6.3f %8d %6.3f\n",
			s.Name, s.Domains,
			s.Unsigned, pct(s.Unsigned, s.Domains),
			s.Secured, pct(s.Secured, s.Domains),
			s.Invalid, pct(s.Invalid, s.Domains),
			s.Islands, pct(s.Islands, s.Domains))
	}
	return b.String()
}

// Table2 renders the top-n CDS publishers (paper Table 2).
func (a *Aggregate) Table2(n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: top %d DNS operators publishing CDS RRs\n", n)
	fmt.Fprintf(&b, "%-4s %-16s %12s %8s\n", "#", "Operator", "Dom. w. CDS", "%")
	for i, s := range a.topOperators(n, func(s *OperatorStats) int { return s.CDS }) {
		if s.CDS == 0 {
			break
		}
		fmt.Fprintf(&b, "%-4d %-16s %12d %8.1f\n", i+1, s.Name, s.CDS, pct(s.CDS, s.Domains))
	}
	return b.String()
}

// Figure1 renders the bootstrapping-possibility breakdown.
func (a *Aggregate) Figure1() string {
	res := a.Resolved()
	withDNSSEC := res - a.ByBucket[classify.PotentialNone]
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1: DNSSEC status and bootstrapping possibility\n")
	fmt.Fprintf(&b, "Scanned (resolved) ......................... %d\n", res)
	fmt.Fprintf(&b, "├─ Without DNSSEC .......................... %d\n", a.ByBucket[classify.PotentialNone])
	fmt.Fprintf(&b, "└─ With DNSSEC ............................. %d\n", withDNSSEC)
	fmt.Fprintf(&b, "   ├─ Already secured ...................... %d\n", a.ByBucket[classify.PotentialAlreadySecured])
	fmt.Fprintf(&b, "   ├─ Invalid DNSSEC ....................... %d\n", a.ByBucket[classify.PotentialInvalidDNSSEC])
	fmt.Fprintf(&b, "   └─ Secure islands ....................... %d\n",
		a.ByBucket[classify.PotentialIslandNoCDS]+a.ByBucket[classify.PotentialIslandInvalidCDS]+
			a.ByBucket[classify.PotentialIslandDelete]+a.ByBucket[classify.PotentialBootstrap])
	fmt.Fprintf(&b, "      ├─ Without CDS ....................... %d\n", a.ByBucket[classify.PotentialIslandNoCDS])
	fmt.Fprintf(&b, "      ├─ Invalid CDS ....................... %d\n", a.ByBucket[classify.PotentialIslandInvalidCDS])
	fmt.Fprintf(&b, "      ├─ CDS delete ........................ %d\n", a.ByBucket[classify.PotentialIslandDelete])
	fmt.Fprintf(&b, "      └─ Possible to bootstrap ............. %d\n", a.ByBucket[classify.PotentialBootstrap])
	return b.String()
}

// table3Columns is the fixed column layout of Table 3.
var table3Columns = []string{"Cloudflare", "deSEC", "Glauca Digital"}

// Table3 renders the signal-zone ladder with the paper's column split
// (the three AB operators, an Others catch-all, and the total).
func (a *Aggregate) Table3() string {
	var all []*OperatorStats
	for _, name := range table3Columns {
		s := a.Operators[name]
		if s == nil {
			s = &OperatorStats{Name: name}
		}
		all = append(all, s)
	}
	others, total := &OperatorStats{Name: "Others"}, &OperatorStats{Name: "Total"}
	for name, s := range a.Operators {
		if !slices.Contains(table3Columns, name) {
			others.add(s)
		}
	}
	all = append(all, others)
	for _, s := range all {
		total.add(s)
	}
	all = append(all, total)

	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: DNS operators publishing CDS RRs in signal zones\n")
	fmt.Fprintf(&b, "%-34s", "")
	for _, s := range all {
		fmt.Fprintf(&b, "%15s", s.Name)
	}
	b.WriteByte('\n')
	row := func(label string, f func(*OperatorStats) int) {
		fmt.Fprintf(&b, "%-34s", label)
		for _, s := range all {
			fmt.Fprintf(&b, "%15d", f(s))
		}
		b.WriteByte('\n')
	}
	row("with signal CDS", func(s *OperatorStats) int { return s.WithSignal })
	row("  already secured", func(s *OperatorStats) int { return s.AlreadySecured })
	row("  cannot be bootstrapped", func(s *OperatorStats) int { return s.CannotBootstrap })
	row("    deletion request", func(s *OperatorStats) int { return s.DeletionRequest })
	row("    invalid DNSSEC", func(s *OperatorStats) int { return s.InvalidDNSSEC })
	row("  potential to bootstrap", func(s *OperatorStats) int { return s.Potential })
	row("    signal zone incorrect", func(s *OperatorStats) int { return s.Incorrect })
	row("    signal zone correct", func(s *OperatorStats) int { return s.Correct })
	return b.String()
}

// CDSFindings renders the §4.2 correctness numbers.
func (a *Aggregate) CDSFindings() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CDS deployment and correctness (§4.2)\n")
	fmt.Fprintf(&b, "zones with CDS published ............... %d (%.1f%% of resolved)\n", a.CDSPresent, pct(a.CDSPresent, a.Resolved()))
	fmt.Fprintf(&b, "zones whose NS fail CDS queries ........ %d\n", a.CDSQueryFailed)
	fmt.Fprintf(&b, "CDS in unsigned zones .................. %d\n", a.CDSInUnsigned)
	fmt.Fprintf(&b, "  of which deletion requests ........... %d\n", a.CDSDeleteUnsigned)
	fmt.Fprintf(&b, "deletion requests in secured zones ..... %d\n", a.CDSDeleteSecured)
	fmt.Fprintf(&b, "deletion requests in secure islands .... %d\n", a.CDSDeleteIslands)
	if a.CDSDeleteIslands > 0 {
		// Ties broken by name so the report is identical across runs
		// regardless of map iteration order.
		top, topN := "", 0
		for name, s := range a.Operators {
			if s.DeleteIslands > topN || (s.DeleteIslands == topN && topN > 0 && name < top) {
				top, topN = name, s.DeleteIslands
			}
		}
		fmt.Fprintf(&b, "  largest publisher .................... %s (%d, %.1f%%)\n", top, topN, pct(topN, a.CDSDeleteIslands))
	}
	fmt.Fprintf(&b, "inconsistent CDS between NSes .......... %d (multi-operator: %d)\n", a.CDSInconsistent, a.CDSInconsistentMO)
	fmt.Fprintf(&b, "island CDS not matching any DNSKEY ..... %d\n", a.CDSOrphan)
	fmt.Fprintf(&b, "island CDS with invalid signatures ..... %d\n", a.CDSBadSig)
	return b.String()
}

// QueryStats renders the Appendix-D accounting, including the retry
// counters when a resilience policy was active.
func (a *Aggregate) QueryStats() string {
	avg := 0.0
	if a.Total > 0 {
		avg = float64(a.Queries) / float64(a.Total)
	}
	s := fmt.Sprintf("scan issued %d DNS queries over %d zones (%.1f queries/zone)", a.Queries, a.Total, avg)
	if a.Retries > 0 || a.GaveUp > 0 {
		s += fmt.Sprintf("; %d retries (%.2f%% of queries), %d exchanges gave up",
			a.Retries, pct64(a.Retries, a.Queries), a.GaveUp)
	}
	if a.CacheHits > 0 || a.CacheMisses > 0 || a.Coalesced > 0 {
		s += fmt.Sprintf("; cache: %d hits / %d misses (%.1f%% hit rate), %d coalesced lookups",
			a.CacheHits, a.CacheMisses, pct64(a.CacheHits, a.CacheHits+a.CacheMisses), a.Coalesced)
	}
	return s
}

func pct64(n, total int64) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(total)
}
