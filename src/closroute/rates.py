"""Max-min fair rate allocation over fixed routes (progressive filling).

All flows grow their rates together until some link saturates; the flows on
that bottleneck freeze at its fair share, its capacity is subtracted, and the
process repeats. The result is the unique max-min fair allocation for the
given routes: no rate can be raised without lowering an equal-or-smaller one.

One filling core serves two inputs: ``(commodity id, Route)`` pairs, which
``waterfill`` maps to link-id rows with ``route_link_rows``, and ``LinkRows``,
such as the simulator's flow table caches. The core keeps two numbers per
link, its residual capacity and its count of unfrozen flows, and updates both
as flows freeze. All flows frozen in one round get the same rate, so a link's
residual loses that rate times a count, and no float sum depends on the order
of the flows: the rates are the same, bit for bit, in any input order.
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
    """Commodity id -> rate in bits/second, in the order of ``waterfill``'s
    input; math.inf marks intra-host flows."""

    rates: dict[str, float]


class LinkRows(NamedTuple):
    """Flows as link-id rows (see ``topology.route_link_rows``), in any order:
    flow ``cids[i]`` crosses the non-negative ids of ``links[i]``."""

    cids: list[str]
    links: np.ndarray


def waterfill(flows: list[tuple[str, Route]] | LinkRows, topo: ClosTopology) -> RateAllocation:
    """Progressive filling over the flows' links at uniform link capacity.

    Deterministic and independent of input order: ties between equally loaded
    bottlenecks freeze together, at one rate. Zero-link (intra-host) flows get
    an infinite-rate sentinel. The rates come in input order.
    """
    if not isinstance(flows, LinkRows):
        flows = LinkRows([cid for cid, _ in flows], route_link_rows(topo, [r for _, r in flows]))
    cids, links = flows

    # one edge per flow and link it crosses; le numbers the links the flows use
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
    residual = np.full(num_links, float(topo.link_capacity))
    active = np.bincount(le, minlength=num_links)  # unfrozen flows per link

    while unfrozen.any():
        share = np.where(active > 0, residual / np.maximum(active, 1), np.inf)
        level = share.min()
        freeze = np.zeros(len(cids), dtype=bool)
        freeze[fe[(share == level)[le] & unfrozen[fe]]] = True
        rate[freeze] = level
        unfrozen &= ~freeze
        newly = np.bincount(le[freeze[fe]], minlength=num_links)
        active -= newly
        residual = np.maximum(residual - level * newly, 0.0)

    return RateAllocation(dict(zip(cids, rate.tolist())))
