"""2-layer Clos fabric model: ToRs, spines, per-GPU NICs, directed links.

Every inter-ToR shortest path crosses exactly one spine, so a route is fully
described by its spine index (or by being intra-ToR / intra-host). Links are
directed and full duplex: the up and down directions are independent
capacities.

Link layout: with E endpoints, T ToRs and S spines, every directed link has
one integer id in [0, num_links), e being an endpoint's position in
``ClosTopology.endpoints()``:

  NIC e -> its ToR   e          ToR t -> spine s   2E + t*S + s
  ToR -> NIC e       E + e      spine s -> ToR t   2E + T*S + s*T + t

The ids from ``spine_link_base`` (2E) up are exactly the links that touch a
spine. Load bookkeeping counts on these ids; ``route_link_ids`` maps routes
to them in one pass. A Route stores its kind, spine and endpoints only;
``Route.links`` is a view derived from them, as pairs of tagged nodes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

import numpy as np

# Directed link: (tail node, head node). Nodes are tagged tuples:
#   ("tor", t) | ("spine", s) | ("nic", t, h, n)
Node = tuple
Link = tuple[Node, Node]

INTRA_HOST = "intra_host"
INTRA_TOR = "intra_tor"
SPINE = "spine"


class CommodityRouteError(ValueError):
    """No route exists for a commodity (e.g. every spine between its ToRs failed)."""


@dataclass(frozen=True, order=True)
class Endpoint:
    """One GPU/NIC position: rack, host within rack, NIC within host."""

    tor: int
    host: int
    nic: int

    def __str__(self) -> str:
        return f"t{self.tor}.h{self.host}.n{self.nic}"


@dataclass(frozen=True, slots=True)
class Route:
    """A concrete path: its kind, spine index (if any) and endpoints."""

    kind: str
    spine: int | None
    src: Endpoint
    dst: Endpoint

    @property
    def links(self) -> tuple[Link, ...]:
        """The directed links in path order, derived from the endpoints."""
        if self.kind == INTRA_HOST:
            return ()
        src, dst = self.src, self.dst
        up = (("nic", src.tor, src.host, src.nic), ("tor", src.tor))
        down = (("tor", dst.tor), ("nic", dst.tor, dst.host, dst.nic))
        if self.kind == INTRA_TOR:
            return (up, down)
        spine = ("spine", self.spine)
        return (up, (("tor", src.tor), spine), (spine, ("tor", dst.tor)), down)


@dataclass(frozen=True)
class ClosTopology:
    num_spines: int
    num_tors: int
    hosts_per_tor: int
    nics_per_host: int
    link_capacity: float  # bits/second, uniform on all links
    failed_spines: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.num_spines < 1:
            raise ValueError(f"num_spines must be >= 1, got {self.num_spines}")
        if self.num_tors < 2:
            raise ValueError(f"num_tors must be >= 2, got {self.num_tors}")
        if self.hosts_per_tor < 1:
            raise ValueError(f"hosts_per_tor must be >= 1, got {self.hosts_per_tor}")
        if self.nics_per_host < 1:
            raise ValueError(f"nics_per_host must be >= 1, got {self.nics_per_host}")
        if self.link_capacity <= 0:
            raise ValueError(f"link_capacity must be > 0, got {self.link_capacity}")
        bad = [s for s in self.failed_spines if not 0 <= s < self.num_spines]
        if bad:
            raise ValueError(f"failed spine indices out of range: {sorted(bad)}")
        if len(self.failed_spines) >= self.num_spines:
            raise ValueError("at least one spine must remain alive")

    @property
    def live_spines(self) -> list[int]:
        return [s for s in range(self.num_spines) if s not in self.failed_spines]

    @property
    def num_endpoints(self) -> int:
        return self.num_tors * self.hosts_per_tor * self.nics_per_host

    def endpoints(self):
        """All GPU/NIC endpoints in (tor, host, nic) order."""
        for t in range(self.num_tors):
            for h in range(self.hosts_per_tor):
                for n in range(self.nics_per_host):
                    yield Endpoint(t, h, n)

    def contains(self, ep: Endpoint) -> bool:
        return (
            0 <= ep.tor < self.num_tors
            and 0 <= ep.host < self.hosts_per_tor
            and 0 <= ep.nic < self.nics_per_host
        )

    # -- link layout (see the module docstring) -------------------------------

    @property
    def spine_link_base(self) -> int:
        """Id of the first ToR->spine link; every id from here up touches a spine."""
        return 2 * self.num_endpoints

    @property
    def num_links(self) -> int:
        return self.spine_link_base + 2 * self.num_tors * self.num_spines

    def nic_up_id(self, ep: Endpoint) -> int:
        return (ep.tor * self.hosts_per_tor + ep.host) * self.nics_per_host + ep.nic

    def nic_down_id(self, ep: Endpoint) -> int:
        return self.num_endpoints + self.nic_up_id(ep)

    def tor_up_id(self, tor: int, spine: int) -> int:
        return self.spine_link_base + tor * self.num_spines + spine

    def tor_down_id(self, spine: int, tor: int) -> int:
        return self.spine_link_base + (self.num_spines + spine) * self.num_tors + tor

    def spine_link_views(self, per_link: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (ToR x spine) up-link and (spine x ToR) down-link views of a
        per-link array; writes through them land in ``per_link``."""
        base, t, s = self.spine_link_base, self.num_tors, self.num_spines
        return (
            per_link[base : base + t * s].reshape(t, s),
            per_link[base + t * s : base + 2 * t * s].reshape(s, t),
        )


def build_topology(
    num_spines: int,
    num_tors: int,
    hosts_per_tor: int,
    nics_per_host: int,
    link_capacity: float,
) -> ClosTopology:
    """Construct a fabric with no failed spines. Rejects non-positive sizes."""
    return ClosTopology(num_spines, num_tors, hosts_per_tor, nics_per_host, link_capacity)


def spine_route(src: Endpoint, dst: Endpoint, spine: int) -> Route:
    return Route(SPINE, spine, src, dst)


def route_link_ids(topo: ClosTopology, routes) -> tuple[np.ndarray, np.ndarray]:
    """The link ids of routes on topo, in one pass.

    Returns the ids flat in route-then-link order (each route's links in
    ``Route.links`` order) and the number of links of each route.
    """
    hosts, nics, num_endpoints = topo.hosts_per_tor, topo.nics_per_host, topo.num_endpoints
    tors, spines = topo.num_tors, topo.num_spines
    up_base = topo.spine_link_base
    down_base = up_base + tors * spines
    ids: list[int] = []
    counts: list[int] = []
    for route in routes:
        kind = route.kind
        if kind == INTRA_HOST:
            counts.append(0)
            continue
        src, dst = route.src, route.dst
        nic_up = (src.tor * hosts + src.host) * nics + src.nic
        nic_down = num_endpoints + (dst.tor * hosts + dst.host) * nics + dst.nic
        if kind == SPINE:
            spine = route.spine
            ids += (nic_up, up_base + src.tor * spines + spine,
                    down_base + spine * tors + dst.tor, nic_down)
            counts.append(4)
        else:
            ids += (nic_up, nic_down)
            counts.append(2)
    return np.array(ids, dtype=np.int64), np.array(counts, dtype=np.int64)


def forced_route(topo: ClosTopology, src: Endpoint, dst: Endpoint) -> Route | None:
    """The unique route for same-host / same-ToR pairs, None for inter-ToR.

    Cheap commodity classification for the routing schemes, which would
    otherwise materialize every per-spine candidate just to inspect its kind.
    """
    if src == dst:
        raise ValueError(f"src and dst must differ, got {src}")
    if not topo.contains(src):
        raise ValueError(f"src endpoint {src} out of bounds")
    if not topo.contains(dst):
        raise ValueError(f"dst endpoint {dst} out of bounds")
    if src.tor == dst.tor and src.host == dst.host:
        return Route(INTRA_HOST, None, src, dst)
    if src.tor == dst.tor:
        return Route(INTRA_TOR, None, src, dst)
    return None


def enumerate_routes(topo: ClosTopology, src: Endpoint, dst: Endpoint) -> list[Route]:
    """Shortest paths from src to dst, one per live spine for inter-ToR pairs.

    Same host: the single zero-link route. Same ToR: the single two-link NIC
    route. Distinct ToRs: one four-link route per live spine, ascending spine
    index.
    """
    forced = forced_route(topo, src, dst)
    if forced is not None:
        return [forced]
    live = topo.live_spines
    if not live:
        raise CommodityRouteError("no live spines connect distinct ToRs")
    return [spine_route(src, dst, s) for s in live]


def fail_spines(topo: ClosTopology, k: int, seed: int) -> ClosTopology:
    """Return a copy with k additional spines failed, sampled uniformly.

    Sampling is over currently live spines, without replacement, deterministic
    per seed. At least one spine must survive.
    """
    if k < 0:
        raise ValueError(f"failure count must be >= 0, got {k}")
    live = topo.live_spines
    if k >= len(live):
        raise ValueError(f"cannot fail {k} of {len(live)} live spines; one must survive")
    if k == 0:
        return topo
    rng = random.Random(seed)
    newly_failed = rng.sample(live, k)
    return replace(topo, failed_spines=topo.failed_spines | frozenset(newly_failed))
