#!/usr/bin/env python3
"""Empirical check of the greedy 2x guarantee, and what it costs to beat it.

On random unit-demand instances, the greedy max spine-link load never
exceeds twice the optimum that the exact search finds (and edge coloring
always equals the optimum). The runtime table shows why greedy is the scheme
a controller can afford to rerun on every flow event.
"""

import time

from closroute import (
    build_topology,
    edge_color_assign,
    exact_assign,
    greedy_assign,
    max_link_load,
    random_unit_instance,
    stable_seed,
)
from closroute.cli import measure_scheme_runtime

instances = 400
worst = 0.0
hits = 0
coloring_optimal = 0
start = time.perf_counter()
for i in range(instances):
    topo, commodities = random_unit_instance(stable_seed("demo", i))
    greedy = max_link_load(greedy_assign(commodities, topo), topo)
    exact = max_link_load(exact_assign(commodities, topo), topo)
    coloring = max_link_load(edge_color_assign(commodities, topo), topo)
    ratio = greedy / exact
    worst = max(worst, ratio)
    hits += ratio > 1.0
    coloring_optimal += coloring == exact
elapsed = time.perf_counter() - start

print(f"{instances} random instances (<=8 ToRs, <=4 spines, <=14 demands) "
      f"in {elapsed:.2f}s")
print(f"worst greedy/optimum ratio: {worst:.3f}  (bound: 2.0)")
print(f"greedy strictly above optimum on {hits}/{instances} instances")
print(f"edge coloring optimal on {coloring_optimal}/{instances} instances")

print("\nscheme runtime at increasing commodity counts (median of 5):")
topo = build_topology(32, 64, 4, 8, 100e9)
counts = [100, 500, 1000, 1500]
print(f"{'scheme':14s}" + "".join(f"{c:>10d}" for c in counts))
for scheme in ("greedy", "ecmp", "edge_coloring", "annealing"):
    row = measure_scheme_runtime(scheme, counts, topo, seed=0)
    cells = "".join(f"{1e3 * median:>9.1f}m" for _, median in row)
    print(f"{scheme:14s}{cells}")
print("\na controller that reroutes on every flow arrival/exit needs the "
      "top row, not the bottom one")
