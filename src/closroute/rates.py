"""Max-min fair rate allocation over fixed routes (progressive filling).

All flows grow their rates together until some link saturates; the flows on
that bottleneck freeze at its fair share, its capacity is subtracted, and the
process repeats. The result is the unique max-min fair allocation for the
given routes: no rate can be raised without lowering an equal-or-smaller one.
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
    used, le = np.unique(ids, return_inverse=True)
    num_links = len(used)
    rate = np.zeros(num_flows)
    unfrozen = np.ones(num_flows, dtype=bool)
    capacity = float(topo.link_capacity)

    while unfrozen.any():
        edge_active = unfrozen[fe]
        active_count = np.bincount(le[edge_active], minlength=num_links)
        frozen_use = np.bincount(
            le[~edge_active], weights=rate[fe[~edge_active]], minlength=num_links
        )
        residual = np.maximum(capacity - frozen_use, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            share = np.where(active_count > 0, residual / np.maximum(active_count, 1), np.inf)
        level = share.min()
        bottlenecks = np.flatnonzero(share == level)
        hit = np.isin(le, bottlenecks) & edge_active
        to_freeze = np.unique(fe[hit])
        rate[to_freeze] = level
        unfrozen[to_freeze] = False

    for fi, (cid, _) in enumerate(routed):
        rates[cid] = float(rate[fi])
    return RateAllocation(rates)


def min_bandwidth(alloc: RateAllocation) -> float:
    """Smallest finite rate in the allocation; the slowest-flow objective."""
    finite = alloc.finite_rates()
    if not finite:
        raise ValueError("allocation has no network flows")
    return min(finite.values())
