package ecosystem_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"dnssecboot/internal/core"
	"dnssecboot/internal/ecosystem"
)

// worldDigests pin the bytes of every zone the generated world serves,
// signatures included, at seed 1. They were computed by signing every
// RRset while the world is built; a change to when or how a signature
// is made must leave them as they are.
var worldDigests = map[int]string{
	200_000: "90305839b10711b52b2bbf39a687b0af24141edec42bb6c73247ab8bc19e28b0",
	20_000:  "a1fe9b6385f90f93114f57b10f70ae37ed65f1215516c728029448850b6219bc",
}

// worldDigest is the SHA-256 over the master-file text of every zone a
// server of w holds, in canonical origin order.
func worldDigest(t *testing.T, w *ecosystem.Ecosystem) string {
	t.Helper()
	h := sha256.New()
	for _, z := range ecosystem.HeldZones(w) {
		if _, err := z.WriteTo(h); err != nil {
			t.Fatal(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestWorldDigest is the byte oracle for the whole world: the zones are
// the same right after Generate, whether it materialises them on one
// goroutine or four, and after a full scan has read them in scan order
// with four workers.
func TestWorldDigest(t *testing.T) {
	for _, scale := range []int{200_000, 20_000} {
		t.Run(fmt.Sprint(scale), func(t *testing.T) {
			if scale < 200_000 && testing.Short() {
				t.Skip("scale 20000 is skipped under -short")
			}
			want := worldDigests[scale]
			for _, procs := range []int{1, 4} {
				prev := runtime.GOMAXPROCS(procs)
				fresh, err := ecosystem.Generate(ecosystem.Config{Seed: 1, ScaleDivisor: scale})
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatal(err)
				}
				if got := worldDigest(t, fresh); got != want {
					t.Errorf("world generated at GOMAXPROCS %d: digest %s, want %s", procs, got, want)
				}
			}
			st, err := core.RunStream(context.Background(), core.StreamOptions{
				Options: core.Options{Seed: 1, ScaleDivisor: scale, Concurrency: 4},
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := worldDigest(t, st.World); got != want {
				t.Errorf("scanned world digest %s, want %s", got, want)
			}
		})
	}
}
