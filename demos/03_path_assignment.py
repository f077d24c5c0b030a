#!/usr/bin/env python3
"""The five path-assignment schemes on the same demand sets.

First the 4-ToR teaching example: two rings induce four unit demands, and
hash-based ECMP can put two of them on one link while three different
optimizers all find a collision-free layout. Then a larger random instance
shows the typical quality gap.
"""

import numpy as np

from closroute import (
    assign_by_scheme,
    build_topology,
    max_link_load,
    random_commodities,
    unit_commodities_for_pairs,
    waterfill,
)
from closroute.topology import route_link_rows

topo = build_topology(2, 4, 2, 1, link_capacity=1.0)
demands = [(0, 1), (1, 0), (1, 2), (2, 0)]  # ToR-level 0/1 demand matrix
commodities = unit_commodities_for_pairs(topo, demands)

print("4-ToR example, 4 unit demands, 2 spines")
print(f"{'scheme':14s} {'max spine load':>14s} {'slowest flow':>13s}  spine per demand")
for scheme in ("ecmp", "greedy", "edge_coloring", "annealing", "exact"):
    choice = assign_by_scheme(scheme, commodities, topo, seed=1)
    load = max_link_load(choice, topo)
    alloc = waterfill(list(choice.assignment.items()), topo)
    spines = [choice.assignment[c.id].spine for c in commodities]
    print(f"{scheme:14s} {load:>14d} {min(alloc.rates.values()):>13.2f}  {spines}")
print("(seed 1 makes ECMP hash both of ToR 1's flows onto one spine: "
      "each then runs at half rate)")

print("\n300 random commodities, 8 spines x 16 ToRs")
big = build_topology(8, 16, 4, 8, link_capacity=1.0)
flows = random_commodities(big, 300, seed=3)
print(f"{'scheme':14s} {'max spine load':>14s} {'sum of squared loads':>21s}")
for scheme in ("ecmp", "greedy", "edge_coloring", "annealing"):
    choice = assign_by_scheme(scheme, flows, big, seed=3)
    # commodities per link id; the ids from spine_link_base up touch a spine
    rows = route_link_rows(big, choice.assignment.values())
    loads = np.bincount(rows[rows >= 0], minlength=big.num_links)[big.spine_link_base:]
    print(f"{scheme:14s} {loads.max():>14d} {(loads * loads).sum():>21d}")
