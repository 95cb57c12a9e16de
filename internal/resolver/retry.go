// Retry policy and per-server health tracking. ZDNS-style scanners owe
// their measurement fidelity to exactly this machinery: a single
// dropped UDP datagram must not misclassify a zone, so transient
// failures (timeouts, SERVFAIL) are retried with capped exponential
// backoff, while hard failures (unreachable, NXDOMAIN answers) are
// surfaced immediately. Backoff jitter is derived deterministically
// from a seed so that simulation runs are reproducible.
package resolver

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dnssecboot/internal/dnswire"
	"dnssecboot/internal/obs"
	"dnssecboot/internal/transport"
)

// ErrServFail marks a SERVFAIL answer treated as a failure. queryAny
// wraps it so callers can distinguish "all servers timed out" from
// "all servers answered SERVFAIL" via errors.Is.
var ErrServFail = errors.New("resolver: SERVFAIL")

// ErrMismatch marks a response that does not answer the query sent: QR
// clear, another opcode, or another question (RFC 5452 §9.1). Such a
// response is discarded and the attempt retried like a timeout.
var ErrMismatch = errors.New("resolver: response does not answer the question asked")

// RetryPolicy configures how Exchange handles transient failures.
// The zero value (and a nil policy) means a single attempt.
type RetryPolicy struct {
	// Attempts is the total number of tries per server (minimum 1).
	Attempts int
	// BaseBackoff is the pause before the first retry; it doubles on
	// every further retry. Zero retries immediately (the right choice
	// against the in-memory simulation).
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth (zero: 30×BaseBackoff).
	MaxBackoff time.Duration
	// AttemptTimeout bounds each individual attempt; zero inherits the
	// caller's context deadline unchanged.
	AttemptTimeout time.Duration
	// Jitter is the fraction of each backoff randomised away (0..1),
	// drawn deterministically from Seed.
	Jitter float64
	// Seed drives the deterministic jitter.
	Seed int64
}

func (p *RetryPolicy) attempts() int {
	if p == nil || p.Attempts < 1 {
		return 1
	}
	return p.Attempts
}

// backoffFor computes the pause before retry number attempt (1-based)
// of the given query, deterministic in (Seed, server, name, attempt).
func (p *RetryPolicy) backoffFor(server netip.AddrPort, name string, attempt int) time.Duration {
	if p.BaseBackoff <= 0 {
		return 0
	}
	max := p.MaxBackoff
	if max <= 0 {
		max = 30 * p.BaseBackoff
	}
	d := p.BaseBackoff << (attempt - 1)
	if d > max || d <= 0 {
		d = max
	}
	if p.Jitter > 0 {
		h := fnv.New64a()
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], uint64(p.Seed))
		h.Write(b[:])
		h.Write([]byte(server.String()))
		h.Write([]byte(name))
		binary.BigEndian.PutUint64(b[:], uint64(attempt))
		h.Write(b[:])
		frac := float64(h.Sum64()>>11) / float64(1<<53)
		d = time.Duration(float64(d) * (1 - p.Jitter*frac))
	}
	return d
}

// sleep pauses for the attempt's backoff, honouring ctx cancellation.
func (p *RetryPolicy) sleep(ctx context.Context, server netip.AddrPort, name string, attempt int) error {
	d := p.backoffFor(server, name, attempt)
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// transientError reports whether err is worth retrying: timeouts and
// mismatched responses are, hard unreachability and context
// cancellation are not.
func transientError(err error) bool {
	return errors.Is(err, transport.ErrTimeout) || errors.Is(err, ErrMismatch)
}

// QueryStats accumulates per-scope query accounting. A pointer travels
// in the context (WithQueryStats) so concurrent zone scans attribute
// traffic to the right zone.
type QueryStats struct {
	// Queries counts wire queries issued (every attempt counts).
	Queries atomic.Int64
	// Retries counts attempts beyond the first per exchange.
	Retries atomic.Int64
	// GaveUp counts exchanges that exhausted every attempt without a
	// usable answer.
	GaveUp atomic.Int64
	// CacheHits counts lookups served from the shared resolver cache
	// (delegation start points, negative entries, NS addresses).
	CacheHits atomic.Int64
	// CacheMisses counts cache probes that found no entry.
	CacheMisses atomic.Int64
	// Coalesced counts calls that piggybacked on another chain's
	// in-flight execution instead of issuing their own queries.
	Coalesced atomic.Int64
}

type queryStatsKey struct{}

// WithQueryStats returns a context whose queries through this resolver
// are additionally accounted into the returned stats. Used by the
// scanner for accurate per-zone accounting under concurrency.
func WithQueryStats(ctx context.Context) (context.Context, *QueryStats) {
	c := &statsCtx{Context: ctx}
	return c, &c.stats
}

// statsCtx is a context carrying QueryStats inside itself, so attaching
// a zone's stats costs one allocation.
type statsCtx struct {
	context.Context
	stats QueryStats
}

// Value implements context.Context.
func (c *statsCtx) Value(key any) any {
	if key == (queryStatsKey{}) {
		return &c.stats
	}
	return c.Context.Value(key)
}

func statsFrom(ctx context.Context) *QueryStats {
	s, _ := ctx.Value(queryStatsKey{}).(*QueryStats)
	return s
}

// healthTracker is a per-server-address circuit breaker: servers that
// fail repeatedly in a row are deprioritised (tried last), never
// blacklisted — one successful exchange restores full standing. This
// keeps scans off dead or rate-limiting servers without ever giving up
// on an address that recovers mid-run.
type healthTracker struct {
	mu sync.Mutex
	m  map[netip.AddrPort]*serverHealth
}

type serverHealth struct {
	consecutive int   // consecutive transient failures
	failures    int64 // lifetime failures (metrics)
	successes   int64
}

func (h *healthTracker) note(server netip.AddrPort, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.m == nil {
		h.m = make(map[netip.AddrPort]*serverHealth)
	}
	s := h.m[server]
	if s == nil {
		s = &serverHealth{}
		h.m[server] = s
	}
	if ok {
		s.consecutive = 0
		s.successes++
	} else {
		s.consecutive++
		s.failures++
	}
}

// trippedAfter is the consecutive-failure count that deprioritises a
// server.
const trippedAfter = 5

// order appends servers to dst in the order to try them: the rotation
// that begins at servers[start], healthy addresses first and tripped
// ones after them, each group keeping the rotated order (a stable
// partition, so resolution stays deterministic). It allocates only when
// dst lacks the capacity.
func (h *healthTracker) order(dst, servers []netip.AddrPort, start int) []netip.AddrPort {
	h.mu.Lock()
	defer h.mu.Unlock()
	n, tripped := len(servers), 0
	for i := range servers {
		s := servers[(start+i)%n]
		if st := h.m[s]; st != nil && st.consecutive >= trippedAfter {
			tripped++
			continue
		}
		dst = append(dst, s)
	}
	for i := 0; tripped > 0; i++ {
		s := servers[(start+i)%n]
		if st := h.m[s]; st != nil && st.consecutive >= trippedAfter {
			dst = append(dst, s)
			tripped--
		}
	}
	return dst
}

// Exchange sends one query with EDNS+DO to server, applying rate
// limits, retry policy and counting. Transient failures (timeouts and
// SERVFAIL answers) are retried per the policy; after exhausting all
// attempts the final SERVFAIL response (if any) is returned as-is so
// callers still observe the rcode, while pure timeouts surface as a
// joined error.
func (r *Resolver) Exchange(ctx context.Context, server netip.AddrPort, name string, qtype dnswire.Type) (*dnswire.Message, error) {
	attempts := r.Retry.attempts()
	m := r.metrics()
	sp := obs.SpanFrom(ctx)
	var errs []error
	var lastServFail *dnswire.Message
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			// The backoff sleep comes first: a cancelled wait aborts the
			// exchange without a wire attempt, so it must not count as a
			// retry (counting before the sleep inflated Retries by one
			// phantom attempt per cancellation).
			if err := r.Retry.sleep(ctx, server, name, attempt); err != nil {
				return nil, err
			}
			m.Retries.Inc()
			if st := statsFrom(ctx); st != nil {
				st.Retries.Add(1)
			}
			if sp != nil {
				sp.Emit(obs.TraceEvent{Stage: "query", Event: "retry", Server: server.String(),
					Name: name, Qtype: qtype.String(), Attempt: attempt + 1})
			}
		}
		resp, err := r.exchangeOnce(ctx, server, name, qtype)
		if sp != nil {
			ev := obs.TraceEvent{Stage: "query", Event: "attempt", Server: server.String(),
				Name: name, Qtype: qtype.String(), Attempt: attempt + 1}
			if err != nil {
				ev.Err = err.Error()
			} else {
				ev.Rcode = resp.Rcode.String()
			}
			sp.Emit(ev)
		}
		switch {
		case err == nil && resp.Rcode == dnswire.RcodeServFail:
			r.health.note(server, false)
			lastServFail = resp
			errs = append(errs, fmt.Errorf("%s: %w", server, ErrServFail))
		case err != nil && transientError(err):
			r.health.note(server, false)
			lastServFail = nil
			errs = append(errs, fmt.Errorf("%s: %w", server, err))
		case err != nil:
			// Hard failure: retrying cannot help.
			r.health.note(server, false)
			return nil, err
		default:
			r.health.note(server, true)
			return resp, nil
		}
	}
	// Every attempt failed: one gave-up per exhausted exchange. This
	// includes single-attempt policies — "exhausted" means the query got
	// no usable answer, however many tries the policy allowed (the old
	// attempts>1 guard made unretried timeouts invisible to GaveUp).
	m.GaveUp.Inc()
	if st := statsFrom(ctx); st != nil {
		st.GaveUp.Add(1)
	}
	if sp != nil {
		sp.Emit(obs.TraceEvent{Stage: "query", Event: "gave_up", Server: server.String(),
			Name: name, Qtype: qtype.String(), N: attempts})
	}
	if lastServFail != nil {
		return lastServFail, nil
	}
	return nil, errors.Join(errs...)
}

// queryPool recycles query messages across attempts. Exchangers do not
// retain the query beyond the call (MemNetwork parses its own copy of
// the wire form; transport.Client only packs it), so a pooled message —
// including its question slice and in-place-updated OPT record — is
// safe to reuse and keeps the per-attempt query build allocation-free.
var queryPool = sync.Pool{New: func() any { return &dnswire.Message{} }}

// exchangeOnce performs a single attempt: rate limit, fresh query ID,
// counting, latency observation, optional per-attempt timeout. Only a
// response to the question asked is returned; any other is ErrMismatch.
func (r *Resolver) exchangeOnce(ctx context.Context, server netip.AddrPort, name string, qtype dnswire.Type) (*dnswire.Message, error) {
	m := r.metrics()
	if r.Limits != nil {
		if err := r.Limits.GetAddr(server.Addr()).Wait(ctx); err != nil {
			return nil, err
		}
	}
	q := queryPool.Get().(*dnswire.Message)
	defer queryPool.Put(q)
	q.InitQuery(nextID(), name, qtype)
	q.SetEDNS(dnswire.EDNS{UDPSize: dnswire.MaxUDPPayload, DO: true})
	m.Queries.Inc()
	if st := statsFrom(ctx); st != nil {
		st.Queries.Add(1)
	}
	if r.Retry != nil && r.Retry.AttemptTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.Retry.AttemptTimeout)
		defer cancel()
	}
	start := time.Now()
	resp, err := r.Net.Exchange(ctx, server, q)
	m.QuerySeconds.ObserveSince(start)
	if resp != nil && resp.TrailingBytes > 0 {
		m.Trailing.Add(int64(resp.TrailingBytes))
	}
	if err != nil && ctx.Err() != nil && errors.Is(err, context.DeadlineExceeded) {
		// A blown per-attempt budget is a timeout like any other.
		err = fmt.Errorf("%w: %v", transport.ErrTimeout, err)
	}
	if err == nil && resp != nil && !answers(resp, q) {
		m.Mismatches.Inc()
		return nil, fmt.Errorf("%w: %s asked %s %s", ErrMismatch, server, name, qtype)
	}
	return resp, err
}

// answers reports whether resp is a response to q: QR set, the same
// opcode, and the same single question, its name compared
// case-insensitively.
func answers(resp, q *dnswire.Message) bool {
	if !resp.Response || resp.Opcode != q.Opcode || len(resp.Question) != 1 {
		return false
	}
	got, want := resp.Question[0], q.Question[0]
	return got.Type == want.Type && got.Class == want.Class && strings.EqualFold(got.Name, want.Name)
}
