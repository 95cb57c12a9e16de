package scan

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"dnssecboot/internal/dnssec"
	"dnssecboot/internal/dnswire"
	"dnssecboot/internal/resolver"
)

// Validator performs full-chain DNSSEC validation: it walks from the
// root to the zone that signed an RRset, authenticating each DS→DNSKEY
// link, and finally verifies the RRset itself. Verdicts on a zone's key
// set are memoised, so repeated validations under the same operator
// zones (the common case when probing thousands of signal names) are
// cheap.
type Validator struct {
	// R performs the DNS lookups.
	R *resolver.Resolver
	// Now anchors signature validity checks.
	Now time.Time
	// TrustAnchor, when non-empty, is the DS set the root's DNSKEY must
	// match. When empty, the root's DNSKEY RRset is trusted if
	// self-consistent (trust-on-first-use; appropriate inside the
	// simulation where the root is ours).
	TrustAnchor []dnswire.RR

	mu    sync.Mutex
	cache map[string]*chainEntry
	// denials holds the NSEC records that validated under those keys
	// (denial.go).
	denials denialStore
}

type chainEntry struct {
	keys []dnswire.RR
	err  error
}

// Errors from chain validation.
var (
	ErrInsecureDelegation = errors.New("scan: insecure delegation (no DS)")
	ErrBogus              = errors.New("scan: chain validation failed")
)

// ZoneKeys returns the validated DNSKEY RRset of zoneName, walking and
// authenticating the chain from the root on first use.
func (v *Validator) ZoneKeys(ctx context.Context, zoneName string) ([]dnswire.RR, error) {
	zoneName = dnswire.CanonicalName(zoneName)
	v.mu.Lock()
	if v.cache == nil {
		v.cache = make(map[string]*chainEntry)
	}
	if e, ok := v.cache[zoneName]; ok {
		v.mu.Unlock()
		return e.keys, e.err
	}
	v.mu.Unlock()

	keys, err := v.zoneKeysUncached(ctx, zoneName)

	// Memoise verdicts only. A transient failure (a DNSKEY fetch that
	// timed out, a parent that could not be reached) says nothing about
	// the zone, and remembering it would let one lost packet decide
	// every later signal under this signer — as resolver.zoneServers
	// refuses to cache transient failures.
	if err == nil || errors.Is(err, ErrBogus) || errors.Is(err, ErrInsecureDelegation) {
		v.mu.Lock()
		v.cache[zoneName] = &chainEntry{keys: keys, err: err}
		v.mu.Unlock()
	}
	return keys, err
}

func (v *Validator) zoneKeysUncached(ctx context.Context, zoneName string) ([]dnswire.RR, error) {
	keySet, keySigs, err := v.fetchDNSKEY(ctx, zoneName)
	if err != nil {
		return nil, err
	}
	if zoneName == "." {
		if len(v.TrustAnchor) > 0 {
			if err := dnssec.VerifyChainLink(".", v.TrustAnchor, keySet, keySigs, v.Now); err != nil {
				return nil, fmt.Errorf("%w: root keys vs trust anchor: %v", ErrBogus, err)
			}
			return keySet, nil
		}
		// No anchor configured: require the root key set to be
		// self-signed by a present SEP key.
		if err := dnssec.VerifyRRset(keySet, keySigs, keySet, v.Now); err != nil {
			return nil, fmt.Errorf("%w: root keys not self-consistent: %v", ErrBogus, err)
		}
		return keySet, nil
	}

	d, err := v.R.Delegation(ctx, zoneName)
	if err != nil {
		return nil, fmt.Errorf("scan: delegation of %s: %w", zoneName, err)
	}
	if len(d.DS) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrInsecureDelegation, zoneName)
	}
	// Authenticate the DS RRset with the parent's validated keys.
	parentKeys, err := v.ZoneKeys(ctx, d.ParentZone)
	if err != nil {
		return nil, err
	}
	if err := dnssec.VerifyRRset(d.DS, d.DSSigs, parentKeys, v.Now); err != nil {
		return nil, fmt.Errorf("%w: DS of %s not signed by %s: %v", ErrBogus, zoneName, d.ParentZone, err)
	}
	// Authenticate the child's DNSKEY via the DS.
	if err := dnssec.VerifyChainLink(zoneName, d.DS, keySet, keySigs, v.Now); err != nil {
		return nil, fmt.Errorf("%w: DNSKEY of %s: %v", ErrBogus, zoneName, err)
	}
	return keySet, nil
}

func (v *Validator) fetchDNSKEY(ctx context.Context, zoneName string) (keys, sigs []dnswire.RR, err error) {
	answer, _, err := v.R.Lookup(ctx, zoneName, dnswire.TypeDNSKEY)
	if err != nil {
		return nil, nil, fmt.Errorf("scan: DNSKEY of %s: %w", zoneName, err)
	}
	for _, rr := range answer {
		switch rr.Type() {
		case dnswire.TypeDNSKEY:
			keys = append(keys, rr)
		case dnswire.TypeRRSIG:
			if rr.Data.(*dnswire.RRSIG).TypeCovered == dnswire.TypeDNSKEY {
				sigs = append(sigs, rr)
			}
		}
	}
	if len(keys) == 0 {
		return nil, nil, fmt.Errorf("%w: no DNSKEY at %s", ErrInsecureDelegation, zoneName)
	}
	return keys, sigs, nil
}

// ValidateRRset authenticates an RRset with its RRSIGs: the signer
// zone's keys are chain-validated from the root, then the signature
// checked. The RRSIG's signer name determines the validating zone.
func (v *Validator) ValidateRRset(ctx context.Context, rrset, sigs []dnswire.RR) error {
	if len(rrset) == 0 {
		return errors.New("scan: empty RRset")
	}
	if len(sigs) == 0 {
		return fmt.Errorf("%w: unsigned RRset %s/%s", ErrBogus, rrset[0].Name, rrset[0].Type())
	}
	var lastErr error
	for _, sigRR := range sigs {
		sig, ok := sigRR.Data.(*dnswire.RRSIG)
		if !ok {
			continue
		}
		keys, err := v.ZoneKeys(ctx, sig.SignerName)
		if err != nil {
			lastErr = err
			continue
		}
		if err := dnssec.VerifySig(rrset, sigRR, keyRRAt(keys, sig.KeyTag), v.Now); err != nil {
			// Try every key with a matching tag before failing.
			verified := false
			for _, k := range keys {
				if e := dnssec.VerifySig(rrset, sigRR, k, v.Now); e == nil {
					verified = true
					break
				} else {
					lastErr = e
				}
			}
			if verified {
				return nil
			}
			continue
		}
		return nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("%w: no verifiable signature", ErrBogus)
	}
	return lastErr
}

func keyRRAt(keys []dnswire.RR, tag uint16) dnswire.RR {
	for _, rr := range keys {
		if k, ok := rr.Data.(*dnswire.DNSKEY); ok && dnssec.KeyTag(k) == tag {
			return rr
		}
	}
	if len(keys) > 0 {
		return keys[0]
	}
	return dnswire.RR{}
}
