package ecosystem

import (
	"sort"

	"dnssecboot/internal/dnswire"
	"dnssecboot/internal/server"
	"dnssecboot/internal/zone"
)

// HeldZones returns every zone a server of e holds, each once, in
// canonical origin order. Zones sharing an origin (a CDS variant and the
// zone it was cloned from) keep the order of their servers: root, TLD
// registries by name, then each operator by name, its own server before
// its variant server.
func HeldZones(e *Ecosystem) []*zone.Zone {
	servers := []*server.Server{e.rootSrv}
	for _, name := range sortedKeys(e.tlds) {
		servers = append(servers, e.tlds[name].srv)
	}
	for _, name := range sortedKeys(e.ops) {
		op := e.ops[name]
		servers = append(servers, op.srv)
		if op.variantSrv != nil {
			servers = append(servers, op.variantSrv)
		}
	}
	seen := make(map[*zone.Zone]bool)
	var out []*zone.Zone
	for _, srv := range servers {
		for _, origin := range srv.Zones() {
			if z := srv.Zone(origin); !seen[z] {
				seen[z] = true
				out = append(out, z)
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return dnswire.CanonicalNameLess(out[i].Origin, out[j].Origin) })
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
