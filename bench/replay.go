package main

import (
	"time"

	"dnssecboot/internal/dnssec"
	"dnssecboot/internal/dnswire"
)

// unitCosts replays the responses captured in the traced run through
// the codec's and the verifier's public functions. Multiplied by the
// layer counts they bound what a codec or crypto change can save.
func unitCosts(r *run, wires [][]byte, now time.Time) {
	if len(wires) == 0 {
		return
	}
	msgs := make([]*dnswire.Message, 0, len(wires))
	r.add("dnswire.unpack_ns", perCall(len(wires), func() {
		msgs = msgs[:0]
		for _, w := range wires {
			if m, err := dnswire.Unpack(w); err == nil {
				msgs = append(msgs, m)
			}
		}
	}))
	var sink []byte
	r.add("dnswire.pack_ns", perCall(len(msgs), func() {
		for _, m := range msgs {
			sink, _ = m.AppendPack(sink[:0])
		}
	}))

	// Every DNSKEY response carries its RRset, the signatures over it
	// and the keys that made them: a self-contained verification.
	type keyset struct{ keys, sigs []dnswire.RR }
	var sets []keyset
	for _, m := range msgs {
		var ks keyset
		for _, rr := range m.Answer {
			switch rr.Type() {
			case dnswire.TypeDNSKEY:
				ks.keys = append(ks.keys, rr)
			case dnswire.TypeRRSIG:
				ks.sigs = append(ks.sigs, rr)
			}
		}
		if len(ks.keys) > 0 && dnssec.VerifyRRset(ks.keys, ks.sigs, ks.keys, now) == nil {
			sets = append(sets, ks)
		}
	}
	if len(sets) > 0 {
		r.add("dnssec.verify_us", perCall(len(sets), func() {
			for _, ks := range sets {
				dnssec.VerifyRRset(ks.keys, ks.sigs, ks.keys, now) // verified above; timed here
			}
		})/1e3)
	}
}

// perCall runs round, which makes n calls, for at least 100 ms and
// returns the nanoseconds one call took.
func perCall(n int, round func()) float64 {
	if n == 0 {
		return 0
	}
	const minTime = 100 * time.Millisecond
	rounds := 0
	t0 := time.Now()
	for time.Since(t0) < minTime {
		round()
		rounds++
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(rounds*n)
}
