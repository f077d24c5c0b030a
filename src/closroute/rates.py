"""Max-min fair rate allocation over fixed routes (progressive filling).

All flows grow their rates together until some link saturates; the flows on
that bottleneck freeze at its fair share, its capacity is subtracted, and the
process repeats. The result is the unique max-min fair allocation for the
given routes: no rate can be raised without lowering an equal-or-smaller one.

One filling core serves two inputs: ``(commodity id, Route)`` pairs, which
``waterfill`` maps to link-id rows with ``route_link_rows``, and ``LinkRows``,
such as the simulator's flow table caches. Rates come back as an array; their
dict is built only when read. The core keeps two numbers per link, its
residual capacity and its count of unfrozen flows, and updates both as flows
freeze. All flows frozen in one round get the same rate, so a link's residual
loses that rate times a count, and no float sum depends on the order of the
flows: the rates are the same, bit for bit, in any input order. Only the links
that two or more flows cross take part; a flow that crosses none of them gets
the link capacity. This is exact: a link that one flow crosses keeps its full
capacity as residual until that flow freezes, and no share exceeds capacity,
so such a link is at the level only once the level reaches capacity. Then
every shared link of the flow is at capacity too, so the flow freezes at
capacity in that round either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .topology import ClosTopology, Route, route_link_rows

FEASIBILITY_RTOL = 1e-9


@dataclass(frozen=True, eq=False)
class RateAllocation:
    """Flow ``cids[i]`` gets ``rate[i]`` bits/second, in the order of
    ``waterfill``'s input; math.inf marks intra-host flows."""

    cids: list[str] | np.ndarray
    rate: np.ndarray

    @cached_property
    def rates(self) -> dict[str, float]:
        """Commodity id -> rate, in input order, built on first read."""
        return dict(zip(self.cids, self.rate.tolist()))


class LinkRows(NamedTuple):
    """Flows as link-id rows (see ``topology.route_link_rows``), in any order:
    flow ``cids[i]`` crosses the non-negative ids of ``links[i]``."""

    cids: list[str] | np.ndarray
    links: np.ndarray


def waterfill(flows: list[tuple[str, Route]] | LinkRows, topo: ClosTopology) -> RateAllocation:
    """Progressive filling over the flows' links at uniform link capacity.

    Deterministic and independent of input order: ties between equally loaded
    bottlenecks freeze together, at one rate. Only links that two or more flows
    cross take part (see the module docstring); a flow on none of them gets the
    link capacity, a zero-link (intra-host) flow an infinite-rate sentinel. The
    rates come in input order.
    """
    if not isinstance(flows, LinkRows):
        flows = LinkRows([cid for cid, _ in flows], route_link_rows(topo, [r for _, r in flows]))
    cids, links = flows

    # one edge per flow and shared link (two or more flows) it crosses; le
    # numbers the shared links
    on_link = links >= 0
    fe = np.nonzero(on_link)[0]
    ids = links[on_link]
    count = np.bincount(ids, minlength=topo.num_links)  # flows per link
    shared = np.flatnonzero(count >= 2)
    keep = count[ids] >= 2
    index = np.empty(topo.num_links, dtype=np.int64)
    index[shared] = np.arange(len(shared))
    fe, le = fe[keep], index[ids[keep]]
    capacity = float(topo.link_capacity)
    rate = np.where(on_link.any(axis=1), capacity, math.inf)
    residual = np.full(len(shared), capacity)
    active = count[shared]  # unfrozen flows per shared link
    frozen = np.zeros(len(cids), dtype=bool)

    while fe.size:  # fe and le keep the edges of the unfrozen flows
        share = (residual / np.maximum(active, 1))[le]
        level = share.min()
        hit = fe[share == level]
        rate[hit] = level
        frozen[hit] = True
        gone = frozen[fe]
        newly = np.bincount(le[gone], minlength=len(shared))
        active -= newly
        residual = np.maximum(residual - level * newly, 0.0)
        keep = ~gone
        fe, le = fe[keep], le[keep]

    return RateAllocation(cids, rate)
