// Package transport abstracts how DNS messages travel between the
// scanner/resolver and authoritative servers. Two implementations are
// provided: MemNetwork, a deterministic in-memory internet simulation
// (unreachable hosts, anycast prefixes) that still round-trips every
// message through the real wire encoder; and Client, a UDP client with
// TCP fallback for talking to real servers. Faults wraps either to
// inject loss, outages, SERVFAIL, flaky answers and latency.
package transport

import (
	"context"
	"errors"
	"net/netip"

	"dnssecboot/internal/dnswire"
)

// Errors produced by transports. The scanner distinguishes timeouts
// (flaky or rate-limited servers) from hard unreachability.
var (
	ErrTimeout     = errors.New("transport: query timed out")
	ErrUnreachable = errors.New("transport: host unreachable")
)

// Exchanger sends one DNS query to a server address and returns its
// response.
type Exchanger interface {
	Exchange(ctx context.Context, server netip.AddrPort, query *dnswire.Message) (*dnswire.Message, error)
}

// Handler is the server side of the in-memory network: it receives a
// parsed query addressed to a particular local IP and produces the
// response message. Returning a nil message simulates a server that
// drops the query (the client sees a timeout).
type Handler interface {
	HandleDNS(ctx context.Context, local netip.Addr, query *dnswire.Message) (*dnswire.Message, error)
}

// ReplyHandler is a Handler that can also answer into a message its
// caller owns. HandleDNSInto resets reply, answers query into it and
// reports false when it drops the query. It builds every section by
// appending, so once the caller is done with one answer it may hand the
// same reply to the next call and reuse its storage; MemNetwork answers
// every query to a ReplyHandler this way. A handler that keeps the
// responses it returns (server.CachedHandler) must not implement it.
type ReplyHandler interface {
	Handler
	HandleDNSInto(ctx context.Context, local netip.Addr, query, reply *dnswire.Message) (bool, error)
}
