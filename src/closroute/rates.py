"""Max-min fair rate allocation over fixed routes (progressive filling).

All flows grow their rates together until some link saturates; the flows on
that bottleneck freeze at its fair share, its capacity is subtracted, and the
process repeats. The result is the unique max-min fair allocation for the
given routes: no rate can be raised without lowering an equal-or-smaller one.

The rates are bit-stable: they do not depend on the input order, and each
round sums the frozen flows' rates on a link in one weighted ``bincount``
over the edges in flow-then-link order, so every float sum adds its terms in
the same order on every run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .topology import INTRA_HOST, ClosTopology, Route, route_link_ids

FEASIBILITY_RTOL = 1e-9


@dataclass(frozen=True)
class RateAllocation:
    """Commodity id -> rate in bits/second; math.inf marks intra-host flows."""

    rates: dict[str, float]

    def finite_rates(self) -> dict[str, float]:
        return {cid: r for cid, r in self.rates.items() if math.isfinite(r)}


def waterfill(flows: list[tuple[str, Route]], topo: ClosTopology) -> RateAllocation:
    """Progressive filling over the flows' links at uniform link capacity.

    Deterministic and independent of input order: flows are indexed by sorted
    commodity id and ties between equally loaded bottlenecks freeze together.
    Zero-link (intra-host) flows get an infinite-rate sentinel.
    """
    rates: dict[str, float] = {}
    routed: list[tuple[str, Route]] = []
    for cid, route in sorted(flows, key=lambda f: f[0]):
        if route.kind == INTRA_HOST:
            rates[cid] = math.inf
        else:
            routed.append((cid, route))
    if not routed:
        return RateAllocation(rates)

    # edges in flow-then-link order; le numbers the links the flows use
    ids, counts = route_link_ids(topo, [route for _, route in routed])
    num_flows = len(routed)
    fe = np.repeat(np.arange(num_flows), counts)
    used = np.zeros(topo.num_links, dtype=bool)
    used[ids] = True
    index = np.cumsum(used) - 1
    le = index[ids]
    num_links = int(index[-1]) + 1
    rate = np.zeros(num_flows)
    unfrozen = np.ones(num_flows, dtype=bool)
    capacity = float(topo.link_capacity)

    while unfrozen.any():
        edge_active = unfrozen[fe]
        active_count = np.bincount(le[edge_active], minlength=num_links)
        frozen = ~edge_active
        frozen_use = np.bincount(le[frozen], weights=rate[fe[frozen]], minlength=num_links)
        residual = np.maximum(capacity - frozen_use, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            share = np.where(active_count > 0, residual / np.maximum(active_count, 1), np.inf)
        level = share.min()
        hit = (share == level)[le] & edge_active
        freeze = np.zeros(num_flows, dtype=bool)
        freeze[fe[hit]] = True
        rate[freeze] = level
        unfrozen &= ~freeze

    rates.update(zip((cid for cid, _ in routed), rate.tolist()))
    return RateAllocation(rates)


def min_bandwidth(alloc: RateAllocation) -> float:
    """Smallest finite rate in the allocation; the slowest-flow objective."""
    finite = alloc.finite_rates()
    if not finite:
        raise ValueError("allocation has no network flows")
    return min(finite.values())
