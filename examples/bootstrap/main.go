// Bootstrap: a hand-built, end-to-end RFC 9615 Authenticated
// Bootstrapping walkthrough on a miniature Internet:
//
//  1. build a signed root, a signed .ch registry, and a DNS operator
//     with secure signal zones;
//
//  2. the operator signs a customer zone (alpen.ch) — a "secure
//     island", since no DS exists at the registry;
//
//  3. the operator publishes CDS/CDNSKEY in the zone and copies them to
//     _dsboot.alpen.ch._signal.<ns> in its signal zones;
//
//  4. the registry scans the zone, runs the RFC 9615 acceptance
//     algorithm, and installs the DS records;
//
//  5. the chain now validates from the root down to alpen.ch.
//
//     go run ./examples/bootstrap
package main

import (
	"context"
	"fmt"
	"log"
	"net/netip"
	"time"

	"dnssecboot/internal/bootstrap"
	"dnssecboot/internal/dnssec"
	"dnssecboot/internal/dnswire"
	"dnssecboot/internal/resolver"
	"dnssecboot/internal/scan"
	"dnssecboot/internal/server"
	"dnssecboot/internal/transport"
	"dnssecboot/internal/zone"
)

var now = time.Date(2025, 4, 15, 12, 0, 0, 0, time.UTC)

func main() {
	net := transport.NewMemNetwork()
	sign := zone.SignConfig{Now: now, Algorithm: dnswire.AlgEd25519}

	rootAddr := netip.MustParseAddr("198.41.0.4")
	chAddr := netip.MustParseAddr("172.16.1.1")
	netAddr := netip.MustParseAddr("172.16.2.1")
	opAddr1 := netip.MustParseAddr("10.1.0.1")
	opAddr2 := netip.MustParseAddr("10.1.0.2")

	// --- the root zone ---
	root := zone.New(".")
	root.SetBasics("a.root-servers.net.", []string{"a.root-servers.net."}, 1)
	root.MustAdd(rr("a.root-servers.net.", &dnswire.A{Addr: rootAddr}))
	root.MustAdd(rr("ch.", dnswire.NewNS("ns1.nic.ch.")))
	root.MustAdd(rr("ns1.nic.ch.", &dnswire.A{Addr: chAddr}))
	root.MustAdd(rr("net.", dnswire.NewNS("ns1.nic.net.")))
	root.MustAdd(rr("ns1.nic.net.", &dnswire.A{Addr: netAddr}))
	check(root.GenerateKeys(sign, nil))

	// --- the .ch registry (SWITCH, the first AB adopter) ---
	ch := zone.New("ch.")
	ch.SetBasics("ns1.nic.ch.", []string{"ns1.nic.ch."}, 1)
	ch.MustAdd(rr("ns1.nic.ch.", &dnswire.A{Addr: chAddr}))
	check(ch.GenerateKeys(sign, nil))
	mustDelegateSecurely(root, ch)

	// --- .net, hosting the operator's infrastructure ---
	netTLD := zone.New("net.")
	netTLD.SetBasics("ns1.nic.net.", []string{"ns1.nic.net."}, 1)
	netTLD.MustAdd(rr("ns1.nic.net.", &dnswire.A{Addr: netAddr}))
	check(netTLD.GenerateKeys(sign, nil))
	mustDelegateSecurely(root, netTLD)

	// --- the DNS operator: acme-dns.net with two nameservers ---
	opBase := zone.New("acme-dns.net.")
	opBase.SetBasics("ns1.acme-dns.net.", []string{"ns1.acme-dns.net.", "ns2.acme-dns.net."}, 1)
	opBase.MustAdd(rr("ns1.acme-dns.net.", &dnswire.A{Addr: opAddr1}))
	opBase.MustAdd(rr("ns2.acme-dns.net.", &dnswire.A{Addr: opAddr2}))
	check(opBase.GenerateKeys(sign, nil))
	netTLD.MustAdd(rr("acme-dns.net.", dnswire.NewNS("ns1.acme-dns.net.")))
	netTLD.MustAdd(rr("acme-dns.net.", dnswire.NewNS("ns2.acme-dns.net.")))
	netTLD.MustAdd(rr("ns1.acme-dns.net.", &dnswire.A{Addr: opAddr1}))
	netTLD.MustAdd(rr("ns2.acme-dns.net.", &dnswire.A{Addr: opAddr2}))
	mustAddDS(netTLD, opBase)

	// Signal zones: one per nameserver, securely delegated from the
	// operator's base zone (RFC 9615 §3).
	signals := map[string]*zone.Zone{}
	for _, host := range []string{"ns1.acme-dns.net.", "ns2.acme-dns.net."} {
		sz := zone.New(zone.SignalZoneName(host))
		sz.SetBasics("ns1.acme-dns.net.", []string{"ns1.acme-dns.net.", "ns2.acme-dns.net."}, 1)
		check(sz.GenerateKeys(sign, nil))
		opBase.MustAdd(rr(sz.Origin, dnswire.NewNS("ns1.acme-dns.net.")))
		opBase.MustAdd(rr(sz.Origin, dnswire.NewNS("ns2.acme-dns.net.")))
		mustAddDS(opBase, sz)
		signals[host] = sz
	}

	// --- the customer zone: alpen.ch, a secure island ---
	alpen := zone.New("alpen.ch.")
	alpen.SetBasics("ns1.acme-dns.net.", []string{"ns1.acme-dns.net.", "ns2.acme-dns.net."}, 1)
	alpen.MustAdd(rr("alpen.ch.", &dnswire.A{Addr: netip.MustParseAddr("203.0.113.10")}))
	alpen.MustAdd(rr("www.alpen.ch.", &dnswire.A{Addr: netip.MustParseAddr("203.0.113.11")}))
	check(alpen.GenerateKeys(sign, nil))
	check(alpen.PublishCDS(dnswire.DigestSHA256)) // step 3a: in-zone CDS
	check(alpen.Sign(sign))
	// Delegation in .ch WITHOUT DS: the island.
	ch.MustAdd(rr("alpen.ch.", dnswire.NewNS("ns1.acme-dns.net.")))
	ch.MustAdd(rr("alpen.ch.", dnswire.NewNS("ns2.acme-dns.net.")))

	// Step 3b: copy the CDS/CDNSKEY into the signal zones.
	content := append(alpen.RRset("alpen.ch.", dnswire.TypeCDS),
		alpen.RRset("alpen.ch.", dnswire.TypeCDNSKEY)...)
	for host, sz := range signals {
		recs, err := zone.SignalRecords("alpen.ch.", host, content)
		check(err)
		for _, r := range recs {
			sz.MustAdd(r)
		}
	}

	// Sign the infrastructure bottom-up and wire up the servers.
	for _, sz := range signals {
		check(sz.Sign(sign))
	}
	check(opBase.Sign(sign))
	check(ch.Sign(sign))
	check(netTLD.Sign(sign))
	check(root.Sign(sign))

	rootSrv := server.New(1)
	rootSrv.AddZone(root)
	chSrv := server.New(2)
	chSrv.AddZone(ch)
	netSrv := server.New(3)
	netSrv.AddZone(netTLD)
	opSrv := server.New(4)
	opSrv.AddZone(opBase)
	opSrv.AddZone(alpen)
	for _, sz := range signals {
		opSrv.AddZone(sz)
	}
	net.Register(rootAddr, rootSrv)
	net.Register(chAddr, chSrv)
	net.Register(netAddr, netSrv)
	net.Register(opAddr1, opSrv)
	net.Register(opAddr2, opSrv)

	// --- step 4: the registry processes the child ---
	rootDS, err := dnssec.DSFromKey(".", root.Keys[0].DNSKEY(), dnswire.DigestSHA256)
	check(err)
	r := &resolver.Resolver{Net: net, Roots: []netip.AddrPort{netip.AddrPortFrom(rootAddr, 53)}}
	scanner := scan.New(scan.Config{
		Resolver:     r,
		Now:          now,
		ProbeSignals: true,
		TrustAnchor:  []dnswire.RR{{Name: ".", Class: dnswire.ClassIN, Data: rootDS}},
	})
	registry := &bootstrap.Registry{Parent: ch, Scanner: scanner, Now: now}

	ctx := context.Background()
	before := scanner.ScanZone(ctx, "alpen.ch.")
	fmt.Printf("before: signed=%v, DS at parent=%v (a secure island)\n", before.IsSigned(), before.HasDS())
	for _, so := range before.Signals {
		fmt.Printf("  signal under %-22s records=%d secure=%v\n", so.NSHost, len(so.Records), so.Secure)
	}

	decision, err := registry.Bootstrap(ctx, "alpen.ch.")
	check(err)
	fmt.Printf("\nregistry decision: eligible=%v installed=%v\n", decision.Eligible, decision.Installed)
	for _, ds := range decision.DS {
		fmt.Printf("  installed: %s\n", ds)
	}

	// --- step 5: the chain validates from the root ---
	after := scanner.ScanZone(ctx, "alpen.ch.")
	fmt.Printf("\nafter: DS at parent=%v, chain valid=%v\n", after.HasDS(), after.ChainValid)
	keys, err := scanner.Validator().ZoneKeys(ctx, "alpen.ch.")
	check(err)
	fmt.Printf("full-chain validation from the root trust anchor: %d DNSKEY(s) authenticated\n", len(keys))
}

func rr(name string, data dnswire.RData) dnswire.RR {
	return dnswire.RR{Name: name, Class: dnswire.ClassIN, TTL: 3600, Data: data}
}

// mustDelegateSecurely inserts the child's NS and DS into the parent.
func mustDelegateSecurely(parent, child *zone.Zone) {
	for _, h := range child.NSHosts() {
		parent.MustAdd(rr(child.Origin, dnswire.NewNS(h)))
	}
	mustAddDS(parent, child)
}

func mustAddDS(parent, child *zone.Zone) {
	ds, err := dnssec.DSFromKey(child.Origin, child.Keys[0].DNSKEY(), dnswire.DigestSHA256)
	check(err)
	parent.MustAdd(dnswire.RR{Name: child.Origin, Class: dnswire.ClassIN, TTL: 86400, Data: ds})
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
