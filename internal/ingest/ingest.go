// Package ingest turns real-world zone dumps — CZDS downloads, AXFR
// captures, plain or gzip-compressed master files — into scan targets
// in constant memory. This is the step the paper performs before any
// query is sent: reduce a TLD zone file to the set of registrable
// delegated domains (zones directly underneath a public suffix),
// discarding glue, non-NS records, out-of-zone garbage and duplicate
// delegations, while counting every skip so the reduction is auditable.
//
// The pipeline is a four-stage stream:
//
//	chunked reader → logical-line assembler → parallel record parsers → order-preserving reducer
//
// Only the assembler is sequential (directive state and blank-owner
// continuation are order-dependent); record parsing fans out through
// ordered.Map, which hands the batches back in input order, so the
// emitted target list is byte-identical for every worker count. Live
// memory is bounded by Map's window (ordered.Window(Workers) batches) plus
// the deduplication set — independent of the dump size.
package ingest

import (
	"bufio"
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"

	"dnssecboot/internal/dnswire"
	"dnssecboot/internal/obs"
	"dnssecboot/internal/ordered"
	"dnssecboot/internal/psl"
	"dnssecboot/internal/zone"
)

// Skip reasons: why a record did not become a scan target. Keys of
// Stats.Skipped and suffixes of the ingest.skip.* counters.
const (
	// SkipNonNS: a record type that never defines a delegation (SOA,
	// DNSSEC material, TXT, ...).
	SkipNonNS = "non_ns"
	// SkipGlue: an address record. In a delegation-centric dump every
	// A/AAAA is glue for some nameserver below a cut; classifying by
	// type alone keeps the stage single-pass.
	SkipGlue = "glue"
	// SkipOutOfZone: an owner outside the dump's apex.
	SkipOutOfZone = "out_of_zone"
	// SkipApex: the zone's own apex NS set — not a delegation.
	SkipApex = "apex"
	// SkipUnregistrable: an NS owner that is itself a public suffix (or
	// malformed) and therefore not a registrable domain.
	SkipUnregistrable = "unregistrable"
	// SkipDuplicate: a delegation whose registrable domain was already
	// emitted (multiple NS records per cut, or a deeper delegation
	// under an already-seen registrable name).
	SkipDuplicate = "duplicate"
	// SkipBadRecord: a line that failed to parse (lenient mode only;
	// strict mode aborts instead).
	SkipBadRecord = "bad_record"
)

// Config parameterises one ingest run.
type Config struct {
	// Origin fixes the dump's apex for the in-zone/out-of-zone and apex
	// classifications. Empty means autodetect: the first $ORIGIN
	// directive or the first SOA owner, whichever the stream yields
	// first; until one appears, no record is judged out of zone.
	Origin string
	// Workers bounds the parallel record parsers. Zero or negative
	// means min(GOMAXPROCS, 8).
	Workers int
	// BatchLines is the number of logical lines per parse batch (the
	// unit of fan-out and reordering). Zero means 256.
	BatchLines int
	// MaxLineBytes caps one physical or logical (parenthesis-joined)
	// line. Zero means zone.MaxLogicalLineBytes. Over-long lines are
	// skipped in O(1) memory (lenient) or abort the run (strict).
	MaxLineBytes int
	// Strict promotes record-level problems (unparseable lines,
	// over-long lines, invalid owner names) from counted skips to
	// positional fatal errors. Structural problems — unreadable input,
	// gzip corruption or truncation, $INCLUDE — are always fatal.
	Strict bool
	// PSL is the public-suffix list driving the registrable-domain
	// reduction. Nil means psl.Default().
	PSL *psl.List
	// Registry, when non-nil, receives ingest.* counters (lines,
	// records, targets and per-reason skips) after the run.
	Registry *obs.Registry
}

// Stats describes one ingest run. All fields are deterministic
// functions of the input bytes and Config — never of timing or worker
// count — so serialised stats are byte-stable.
type Stats struct {
	// Gzip reports whether the input was gzip-compressed (detected from
	// the magic bytes, never the file name).
	Gzip bool `json:"gzip"`
	// Origin is the apex used for in-zone classification ("." when it
	// never became known).
	Origin string `json:"origin"`
	// PhysicalLines and LogicalLines count raw input lines and
	// assembled (comment-stripped, parenthesis-joined, non-empty)
	// lines; Directives counts the $ORIGIN/$TTL lines among them.
	PhysicalLines int `json:"physical_lines"`
	LogicalLines  int `json:"logical_lines"`
	Directives    int `json:"directives"`
	// Records counts successfully parsed resource records.
	Records int `json:"records"`
	// Targets counts emitted registrable scan targets.
	Targets int `json:"targets"`
	// Skipped tallies every record or line that was not emitted, by
	// reason (the Skip* constants).
	Skipped map[string]int `json:"skipped"`
	// FirstErrors samples the first few record-level problems (lenient
	// mode), each as "line N: message", for the operator's eyeball.
	FirstErrors []string `json:"first_errors,omitempty"`
}

// maxErrorSamples bounds Stats.FirstErrors.
const maxErrorSamples = 8

// Result is a reduced zone dump: the scan targets in first-seen input
// order, plus the audit trail.
type Result struct {
	Targets []string
	Stats   Stats
}

// File ingests the dump at path, detecting gzip from magic bytes.
func File(ctx context.Context, path string, cfg Config) (*Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	defer f.Close()
	return Ingest(ctx, f, cfg)
}

// Ingest streams r through the reduction pipeline. The reader is
// consumed exactly once; gzip compression is detected from the first
// two bytes.
func Ingest(ctx context.Context, r io.Reader, cfg Config) (*Result, error) {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		if workers > 8 {
			workers = 8
		}
	}
	batchLines := cfg.BatchLines
	if batchLines <= 0 {
		batchLines = 256
	}
	maxLine := cfg.MaxLineBytes
	if maxLine <= 0 {
		maxLine = zone.MaxLogicalLineBytes
	}
	list := cfg.PSL
	if list == nil {
		list = psl.Default()
	}

	br := bufio.NewReaderSize(r, 128*1024)
	var src io.Reader = br
	magic, _ := br.Peek(2)
	isGzip := len(magic) == 2 && magic[0] == 0x1f && magic[1] == 0x8b
	if isGzip {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("ingest: gzip: %w", err)
		}
		defer zr.Close()
		src = zr
	}

	asm := &assembler{
		lr:     &lineReader{br: bufio.NewReaderSize(src, 64*1024), max: maxLine},
		origin: ".",
		ttl:    3600,
		max:    maxLine,
	}
	if cfg.Origin != "" {
		asm.origin = dnswire.CanonicalName(cfg.Origin)
	}

	g := &ingester{
		cfg:   cfg,
		psl:   list,
		apex:  ".",
		seen:  make(map[string]bool),
		stats: Stats{Gzip: isGzip, Skipped: make(map[string]int)},
	}
	if cfg.Origin != "" {
		g.apex = dnswire.CanonicalName(cfg.Origin)
		g.apexKnown = true
	}

	// Source: the sequential assembler, one batch of lineItems per pull.
	// A read error is stashed and ends the source after the partial
	// batch in hand, so every line before the damage is still reduced.
	var readErr error
	next := func() ([]lineItem, bool) {
		if readErr != nil {
			return nil, false
		}
		batch := make([]lineItem, 0, batchLines)
		for len(batch) < batchLines {
			item, ok, err := asm.next()
			if err != nil {
				readErr = err
				break
			}
			if !ok {
				break
			}
			batch = append(batch, item)
		}
		return batch, len(batch) > 0
	}
	_, abortErr := ordered.Map(ctx, workers, next, parseBatch, g.reduceBatch)
	if abortErr != nil {
		return nil, abortErr
	}
	if readErr != nil {
		return nil, readErr
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}

	g.stats.PhysicalLines = asm.physical
	g.stats.LogicalLines = asm.logical
	g.stats.Directives = asm.directives
	g.stats.Origin = g.apex
	g.stats.Targets = len(g.targets)

	if cfg.Registry != nil {
		reg := cfg.Registry
		reg.Counter("ingest.lines").Add(int64(g.stats.LogicalLines))
		reg.Counter("ingest.records").Add(int64(g.stats.Records))
		reg.Counter("ingest.targets").Add(int64(g.stats.Targets))
		reasons := make([]string, 0, len(g.stats.Skipped))
		for reason := range g.stats.Skipped {
			reasons = append(reasons, reason)
		}
		sort.Strings(reasons)
		for _, reason := range reasons {
			reg.Counter("ingest.skip."+reason).Add(int64(g.stats.Skipped[reason]))
		}
	}
	return &Result{Targets: g.targets, Stats: g.stats}, nil
}

// parsedBatch is one batch of lines with its per-line parse results.
type parsedBatch struct {
	items []lineItem
	rrs   []dnswire.RR
	errs  []error
}

// parseBatch is the order-free stage: one zone.ParseRecord per line.
func parseBatch(_ context.Context, items []lineItem) parsedBatch {
	out := parsedBatch{items: items, rrs: make([]dnswire.RR, len(items)), errs: make([]error, len(items))}
	for i, item := range items {
		if item.err != "" {
			continue // structural problem, counted downstream
		}
		rr, err := zone.ParseRecord(item.text, item.origin, item.ttl)
		if err == nil {
			// The presentation parser accepts any label string; enforce
			// the wire limits here so 300-octet owners from dirty dumps
			// are skips, not scan targets.
			if _, nerr := dnswire.NameWireLength(rr.Name); nerr != nil {
				err = fmt.Errorf("owner: %w", nerr)
			}
		}
		out.rrs[i], out.errs[i] = rr, err
	}
	return out
}

// ingester is the sequential reduction state.
type ingester struct {
	cfg       Config
	psl       *psl.List
	apex      string
	apexKnown bool
	seen      map[string]bool
	targets   []string
	stats     Stats
}

func (g *ingester) skip(reason string) {
	g.stats.Skipped[reason]++
}

// recordProblem handles a record-level failure: fatal in strict mode,
// a counted skip (with a bounded error sample) otherwise.
func (g *ingester) recordProblem(line int, msg string) error {
	if g.cfg.Strict {
		return fmt.Errorf("ingest: line %d: %s", line, msg)
	}
	g.skip(SkipBadRecord)
	if len(g.stats.FirstErrors) < maxErrorSamples {
		g.stats.FirstErrors = append(g.stats.FirstErrors, fmt.Sprintf("line %d: %s", line, msg))
	}
	return nil
}

// reduceBatch is the order-preserving stage, run on Ingest's goroutine:
// every record flows through the registrable-domain reduction in exact
// input order; a strict-mode record error aborts the run.
func (g *ingester) reduceBatch(_ int, b parsedBatch) error {
	for i := range b.items {
		if err := g.reduce(b.items[i], b.rrs[i], b.errs[i]); err != nil {
			return err
		}
	}
	return nil
}

// reduce classifies one parsed record (or line failure) in input order.
func (g *ingester) reduce(item lineItem, rr dnswire.RR, parseErr error) error {
	if item.err != "" {
		return g.recordProblem(item.line, item.err)
	}
	if parseErr != nil {
		// ParseRecord sees every item as line 1 of its own one-line
		// parse; strip that prefix so messages carry only the dump line.
		return g.recordProblem(item.line, strings.TrimPrefix(parseErr.Error(), "zone: line 1: "))
	}
	g.stats.Records++

	// Apex autodetection: the first $ORIGIN in effect, or the first SOA
	// owner, whichever the stream yields first.
	if !g.apexKnown {
		if item.origin != "." {
			g.apex = item.origin
			g.apexKnown = true
		} else if rr.Type() == dnswire.TypeSOA {
			g.apex = rr.Name
			g.apexKnown = true
		}
	}

	switch rr.Type() {
	case dnswire.TypeNS:
	case dnswire.TypeA, dnswire.TypeAAAA:
		g.skip(SkipGlue)
		return nil
	default:
		g.skip(SkipNonNS)
		return nil
	}

	owner := rr.Name // canonical: ParseRecord normalises
	if g.apexKnown {
		if owner == g.apex {
			g.skip(SkipApex)
			return nil
		}
		if !dnswire.IsSubdomain(owner, g.apex) {
			g.skip(SkipOutOfZone)
			return nil
		}
	}
	reg, ok := g.psl.RegistrableDomain(owner)
	if !ok {
		g.skip(SkipUnregistrable)
		return nil
	}
	if g.seen[reg] {
		g.skip(SkipDuplicate)
		return nil
	}
	g.seen[reg] = true
	g.targets = append(g.targets, reg)
	return nil
}
