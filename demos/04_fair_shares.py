#!/usr/bin/env python3
"""Max-min fair rate allocation by progressive filling.

All flows grow together; whenever a link saturates, its flows freeze at the
fair share and the rest keep growing. The examples show the classic
behaviors: even splits, bottleneck chains, and insensitivity to input order.
"""

from closroute import Endpoint, build_topology, waterfill
from closroute.topology import spine_route

topo = build_topology(2, 6, 2, 1, link_capacity=1.0)


def show(title, flows):
    alloc = waterfill(flows, topo)
    rates = {cid: round(rate, 4) for cid, rate in alloc.rates.items()}
    print(f"{title}\n  rates: {rates}  (slowest {min(alloc.rates.values()):.4f})")


# two flows forced onto the same up-link split it evenly
show(
    "two flows sharing the ToR1 up-link:",
    [
        ("a", spine_route(Endpoint(1, 0, 0), Endpoint(0, 0, 0), 0)),
        ("b", spine_route(Endpoint(1, 1, 0), Endpoint(2, 0, 0), 0)),
    ],
)

# a bottleneck chain: A and B share a link, C rides alone
show(
    "A+B share spine0->ToR2, C alone elsewhere:",
    [
        ("A", spine_route(Endpoint(0, 0, 0), Endpoint(2, 0, 0), 0)),
        ("B", spine_route(Endpoint(1, 0, 0), Endpoint(2, 1, 0), 0)),
        ("C", spine_route(Endpoint(3, 0, 0), Endpoint(4, 0, 0), 1)),
    ],
)

# n flows through one link get exactly capacity / n each
crowd = [
    (f"f{i}", spine_route(Endpoint(0, i % 2, 0), Endpoint(1, (i + i // 2) % 2, 0), 0))
    for i in range(4)
]
show("four flows crowding spine 0 between ToR0 and ToR1:", crowd)

# order never matters
flows = crowd[::-1]
print("\nreversed input order gives identical rates:",
      waterfill(flows, topo).rates == waterfill(crowd, topo).rates)
