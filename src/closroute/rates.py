"""Max-min fair rate allocation over fixed routes (progressive filling).

All flows grow their rates together until some link saturates; the flows on
that bottleneck freeze at its fair share, its capacity is subtracted, and the
process repeats. The result is the unique max-min fair allocation for the
given routes: no rate can be raised without lowering an equal-or-smaller one.

One filling core serves two inputs: ``(commodity id, Route)`` pairs in any
order, which ``waterfill`` sorts by commodity id and maps to link-id rows
with ``route_link_rows``, and ``LinkRows``, rows already in that order, such
as the simulator's flow table caches. The core reads the edges (one per flow
and link) in sorted-commodity-id, then link order. Each round sums the frozen
flows' rates on a link in one weighted ``bincount`` over those edges, so
every float sum adds its terms in the same order whichever input was given,
and the rates are bit-stable: they do not depend on the input order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .topology import ClosTopology, Route, route_link_rows

FEASIBILITY_RTOL = 1e-9


@dataclass(frozen=True)
class RateAllocation:
    """Commodity id -> rate in bits/second; math.inf marks intra-host flows."""

    rates: dict[str, float]


class LinkRows(NamedTuple):
    """Flows as link-id rows (see ``topology.route_link_rows``), in ascending
    commodity-id order: flow ``cids[i]`` crosses the non-negative ids of
    ``links[i]``."""

    cids: list[str]
    links: np.ndarray


def waterfill(flows: list[tuple[str, Route]] | LinkRows, topo: ClosTopology) -> RateAllocation:
    """Progressive filling over the flows' links at uniform link capacity.

    Deterministic and independent of input order: flows are indexed by sorted
    commodity id and ties between equally loaded bottlenecks freeze together.
    Zero-link (intra-host) flows get an infinite-rate sentinel. The rates come
    in commodity-id order.
    """
    if not isinstance(flows, LinkRows):
        pairs = sorted(flows, key=lambda f: f[0])
        flows = LinkRows([cid for cid, _ in pairs], route_link_rows(topo, [r for _, r in pairs]))
    cids, links = flows

    # edges in flow-then-link order; le numbers the links the flows use
    on_link = links >= 0
    fe = np.nonzero(on_link)[0]
    ids = links[on_link]
    used = np.zeros(topo.num_links, dtype=bool)
    used[ids] = True
    used_ids = np.flatnonzero(used)
    num_links = len(used_ids)
    index = np.empty(topo.num_links, dtype=np.int64)
    index[used_ids] = np.arange(num_links)
    le = index[ids]
    unfrozen = on_link.any(axis=1)
    rate = np.where(unfrozen, 0.0, math.inf)
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
        freeze = np.zeros(len(cids), dtype=bool)
        freeze[fe[hit]] = True
        rate[freeze] = level
        unfrozen &= ~freeze

    return RateAllocation(dict(zip(cids, rate.tolist())))
