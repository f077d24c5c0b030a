#!/usr/bin/env python3
"""Tour of the fabric model: build a 2-layer Clos, list routes, fail spines.

Every inter-ToR shortest path crosses exactly one spine switch, so the route
space for a flow is simply the set of live spines.
"""

from closroute import CommoditySpec, Endpoint, build_topology, fail_spines
from closroute.topology import build_routes, classify, spine_route

# The reference fabric: 32 spines, 64 ToRs, 4 hosts per rack, 8 NICs per host.
big = build_topology(32, 64, 4, 8, link_capacity=100e9)
print(f"reference fabric: {big.num_endpoints} GPU endpoints, "
      f"{big.num_spines} spines x {big.num_tors} ToRs")

# A small fabric is easier to look at: 2 spines, 4 ToRs, 2 single-NIC hosts each.
topo = build_topology(2, 4, 2, 1, link_capacity=1.0)
src = Endpoint(tor=1, host=0, nic=0)
dst = Endpoint(tor=2, host=1, nic=0)

print(f"\nroutes {src} -> {dst}, one per live spine:")
for spine in topo.live_spines:
    route = spine_route(src, dst, spine)
    hops = " -> ".join(str(link[0]) for link in route.links) + f" -> {route.links[-1][1]}"
    print(f"  via spine {route.spine}: {hops}")

# Same-rack and same-host transfers have one forced route that never touches
# the spine layer. classify reads a commodity list into one batch, checking
# every endpoint once; build_routes gives each commodity off a spine its
# forced route, whose links its endpoints decide: the two NIC links here.
neighbor = Endpoint(tor=1, host=1, nic=0)
batch = classify(topo, [CommoditySpec("c", "demo", src, neighbor, 1)])
route = build_routes(batch, []).assignment["c"]
hops = " -> ".join(str(link[0]) for link in route.links) + f" -> {route.links[-1][1]}"
print(f"\nroute {src} -> {neighbor}, off the spines: {hops}")

# Spine failures shrink the route set; sampling is seeded and reproducible.
degraded = fail_spines(big, k=8, seed=7)
print(f"\nafter failing 8 of 32 spines (seed 7): {sorted(degraded.failed_spines)}")
print(f"an inter-ToR pair now has {len(degraded.live_spines)} candidate routes (was 32)")
