"""2-layer Clos fabric model: ToRs, spines, per-GPU NICs, directed links.

Every inter-ToR shortest path crosses exactly one spine, so a route is fully
described by its spine index (or by being intra-ToR / intra-host). Links are
directed and full duplex: the up and down directions are independent
capacities.

Where a commodity goes is read here only, off its endpoints: it crosses a
spine when its ToRs differ, and no link at all, its NIC link ids being -1,
when they share a host. The schemes work on one form, a ``Commodities``
batch: ids, job ids, endpoints and volumes as columns, with each commodity's
ToRs and NIC link ids. Each public scheme reads its input once, with
``classify``: a batch, which the simulator builds from templates whose
endpoints were checked when they were built, comes back as it is; a list of
``CommoditySpec`` is checked against the fabric, all endpoints at once, and
read into one. A scheme chooses spines for the inter-ToR commodities and
``build_routes`` keeps the batch and spines as a ``PathChoice``, whose
``Route`` objects are built only when read.

Link layout: with E endpoints, T ToRs of H hosts of N NICs, and S spines,
every directed link has one integer id in [0, num_links), e = (t*H + h)*N + n
being endpoint (t, h, n)'s position in (tor, host, nic) order (``_nic_up_ids``):

  NIC e -> its ToR   e          ToR t -> spine s   2E + t*S + s
  ToR -> NIC e       E + e      spine s -> ToR t   2E + T*S + s*T + t

The ids from ``spine_link_base`` (2E) up are exactly the links that touch a
spine. Each formula is written once: ``_read_endpoints`` for the endpoints,
unpacked from each ``Endpoint.key``, ``_check_on_fabric`` for those off the
fabric and ``_columns`` for their ToRs and NIC links (``classify`` and
``route_link_rows`` call all three), and ``tor_up_id`` and ``tor_down_id``
for the spine links. ``max_spine_link_load`` and waterfill count loads on
these ids, greedy its spine links on per-ToR level rows. ``_link_rows`` maps
``Classified`` columns and spines to ids, one row of four per route, for
``route_link_rows`` and ``PathChoice.link_rows``. A Route is its spine
and endpoints alone; ``Route.links`` derives pairs of tagged nodes from them
by the rule ``_columns`` applies, so it and the route's row cannot disagree.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from operator import index, itemgetter
from typing import Iterable, NamedTuple

import numpy as np

_PART = 1 << 20  # the bound of every fabric dimension, so every endpoint on a fabric packs


@dataclass(frozen=True, order=True)
class Endpoint:
    """One GPU/NIC position: rack, host within rack, NIC within host. ``key``, never
    compared or hashed, is ``tor << 40 | host << 20 | nic`` if each is in [0, 2^20), else -1,
    packed from each part as a Python int (a NumPy integer would wrap)."""

    tor: int
    host: int
    nic: int
    key: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        t, h, n = index(self.tor), index(self.host), index(self.nic)
        object.__setattr__(self, "key", t << 40 | h << 20 | n if 0 <= t | h | n < _PART else -1)

    def __str__(self) -> str:
        return f"t{self.tor}.h{self.host}.n{self.nic}"


class Route(NamedTuple):
    """A concrete path: its spine index (None off a spine) and endpoints. A
    tuple, so it compares equal to a plain tuple of its fields."""

    spine: int | None
    src: Endpoint
    dst: Endpoint

    @property
    def links(self) -> tuple[tuple, ...]:
        """The directed links in path order, derived from the endpoints, each
        a (tail, head) pair of tagged nodes: ("nic", t, h, n), ("tor", t) or
        ("spine", s): no link when the endpoints share a host, the two NIC
        links when they share a ToR, and the four through the spine otherwise.
        Raises ValueError, as ``route_link_rows`` does, when the route has a
        spine (not None, >= 0) and its ToRs are the same, or none and they differ."""
        src, dst = self.src, self.dst
        if (self.spine is not None and self.spine >= 0) != (src.tor != dst.tor):
            raise ValueError(f"spine {self.spine} does not fit ToRs {src.tor} -> {dst.tor}")
        if src.tor == dst.tor and src.host == dst.host:
            return ()
        up = (("nic", src.tor, src.host, src.nic), ("tor", src.tor))
        down = (("tor", dst.tor), ("nic", dst.tor, dst.host, dst.nic))
        if src.tor == dst.tor:
            return (up, down)
        spine = ("spine", self.spine)
        return (up, (("tor", src.tor), spine), (spine, ("tor", dst.tor)), down)


@dataclass(frozen=True, eq=False)
class PathChoice:
    """Routes as columns in input order: the ``classify`` batch and each
    commodity's spine, -1 off a spine. Equal when their assignments are."""

    commodities: Commodities
    spine: np.ndarray  # int64

    @cached_property
    def assignment(self) -> dict[str, Route]:
        """Commodity id -> Route, in input order, built on first read from the
        spine column (-1 reads as None) and the batch's endpoints. The routes
        are made from zipped field tuples by ``tuple.__new__``, which skips the
        per-route call of the ``Route`` constructor."""
        cs = self.commodities
        spines = [None if s < 0 else s for s in self.spine.tolist()]
        fields = zip(spines, cs.src, cs.dst)
        return dict(zip(cs.id, map(partial(tuple.__new__, Route), fields)))

    def link_rows(self, topo: ClosTopology) -> np.ndarray:
        """``route_link_rows`` of the routes, from the columns."""
        return _link_rows(topo, self.commodities.kinds, self.spine)

    def __eq__(self, other):
        return isinstance(other, PathChoice) and self.assignment == other.assignment


@dataclass(frozen=True)
class ClosTopology:
    num_spines: int
    num_tors: int
    hosts_per_tor: int
    nics_per_host: int
    link_capacity: float  # bits/second, uniform on all links
    failed_spines: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        for name, least in (("num_spines", 1), ("num_tors", 2), ("hosts_per_tor", 1),
                            ("nics_per_host", 1)):
            if not least <= getattr(self, name) <= _PART:
                raise ValueError(f"{name} must be in [{least}, 2**20], got {getattr(self, name)}")
        if not self.link_capacity > 0:
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

    # -- link layout (see the module docstring) -------------------------------

    @property
    def spine_link_base(self) -> int:
        """Id of the first ToR->spine link; every id from here up touches a spine."""
        return 2 * self.num_endpoints

    @property
    def num_links(self) -> int:
        return self.spine_link_base + 2 * self.num_tors * self.num_spines

    def tor_up_id(self, tor: int, spine: int) -> int:
        return self.spine_link_base + tor * self.num_spines + spine

    def tor_down_id(self, spine: int, tor: int) -> int:
        return self.spine_link_base + (self.num_spines + spine) * self.num_tors + tor


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
    return Route(spine, src, dst)


def _nic_up_ids(topo: ClosTopology, ends: np.ndarray) -> np.ndarray:
    """The NIC up-link ids of endpoints given as (tor, host, nic) along the
    last axis of ends: each endpoint's position (see the module docstring)."""
    return (ends[..., 0] * topo.hosts_per_tor + ends[..., 1]) * topo.nics_per_host + ends[..., 2]


def _read_endpoints(items) -> np.ndarray:
    """The src and dst of each item (a commodity or a route) as integers, shape
    (n, 2, 3), each part contiguous: (tor, host, nic) from each key, -1 as ToR -1."""
    keys: list[int] = []
    for item in items:
        keys += (item.src.key, item.dst.key)
    parts = np.fromiter(keys, dtype=np.int64, count=len(keys)) >> [[40], [20], [0]]
    return (parts & [[-1], [_PART - 1], [_PART - 1]]).T.reshape(-1, 2, 3)


def route_link_rows(topo: ClosTopology, routes) -> np.ndarray:
    """The link ids of routes on topo, one row per route, all at once.

    Columns hold the NIC-up, ToR->spine, spine->ToR and NIC-down link, -1
    where the route does not use it: a route between ToRs uses all four, one
    within a ToR the NIC links, one within a host none. A row is read off the
    route's endpoints and spine (None or -1: none) alone, as ``Route.links``
    is, so its non-negative ids, in column order, are the route's links.
    Raises ValueError naming the first route off the fabric or its spines,
    whose spine does not fit its ToRs (a route has one exactly when they
    differ), or whose spine has failed.
    """
    routes = list(routes)
    ends = _read_endpoints(routes)
    spine = np.array([-1 if r.spine is None else r.spine for r in routes], dtype=np.int64)
    _check_on_fabric(topo, ends, routes, lambda i: f"route {i}")
    bad = np.flatnonzero((spine < -1) | (spine >= topo.num_spines))
    if bad.size:
        raise ValueError(f"route {bad[0]}: spine {spine[bad[0]]} is not in [0, {topo.num_spines})")
    if topo.failed_spines:  # indexed by the spine column, -1 reading the padding
        dead = np.zeros(topo.num_spines + 1, dtype=bool)
        dead[list(topo.failed_spines)] = True
        bad = np.flatnonzero(dead[spine])
        if bad.size:
            raise ValueError(f"route {bad[0]}: spine {spine[bad[0]]} has failed")
    kinds = _columns(topo, ends)
    bad = np.flatnonzero((spine >= 0) != kinds.inter)
    if bad.size:
        i = bad[0]
        raise ValueError(f"route {i}: spine {routes[i].spine} does not fit ToRs "
                         f"{kinds.src_tor[i]} -> {kinds.dst_tor[i]}")
    return _link_rows(topo, kinds, spine)


def _link_rows(topo: ClosTopology, kinds: Classified, spine: np.ndarray) -> np.ndarray:
    """``route_link_rows`` of routes given as their ``Classified`` columns and spines."""
    rows = np.stack([kinds.nic_up, topo.tor_up_id(kinds.src_tor, spine),
                     topo.tor_down_id(spine, kinds.dst_tor), kinds.nic_down], 1)
    rows[spine < 0, 1:3] = -1
    return rows


def max_spine_link_load(topo: ClosTopology, rows: np.ndarray) -> int:
    """Most link-id rows (see ``route_link_rows``) crossing one link that
    touches a spine."""
    spine = rows[:, 1:3]
    return int(np.bincount(spine[spine >= 0] - topo.spine_link_base, minlength=1).max())


class Classified(NamedTuple):
    """Per-commodity columns from ``classify``, in input order. A commodity
    crosses a spine when its ToRs differ, and no link when its NIC ids are -1."""

    src_tor: np.ndarray
    dst_tor: np.ndarray
    nic_up: np.ndarray  # link id of the source NIC's up-link, -1 within a host
    nic_down: np.ndarray  # link id of the destination NIC's down-link, -1 within a host

    @property
    def inter(self) -> np.ndarray:
        """Which commodities cross a spine: one candidate route per live spine."""
        return self.src_tor != self.dst_tor


@dataclass(frozen=True, eq=False)
class Commodities:
    """Commodities as columns, in order: ids, job ids, endpoints and byte
    volumes, with their ``classify`` columns; the form every scheme works on.
    A column needs only a length and repeated iteration: the simulator's flow
    table gives arrays, and ``classify`` a list's fields, read in place
    (``_Field``). ``len`` reads the id column, and iterating yields one
    ``CommoditySpec`` per commodity, built only as it is read."""

    id: Iterable[str]
    job_id: Iterable[str]
    src: Iterable[Endpoint]
    dst: Iterable[Endpoint]
    volume: Iterable[int]  # bytes
    kinds: Classified

    def __len__(self) -> int:
        return len(self.id)

    def __iter__(self):
        from .workload import CommoditySpec  # workload imports this module

        fields = zip(self.id, self.job_id, self.src, self.dst, self.volume)
        return map(partial(tuple.__new__, CommoditySpec), fields)


class _Field:
    """Field ``index`` of each tuple in ``rows``, as a column read in place. A
    copied column would hold memory for as long as a choice holds its batch,
    and the garbage collector would traverse it."""

    def __init__(self, rows: list, index: int):
        self.rows, self.get = rows, itemgetter(index)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return map(self.get, self.rows)


def classify(topo: ClosTopology, commodities) -> Commodities:
    """Commodities as a batch, with each one's ToRs and NIC link ids.

    A ``Commodities`` batch carries them, from endpoints checked when its
    columns were built, and comes back as it is. A list of ``CommoditySpec``
    has its endpoints read and checked against the fabric at once (raises
    ValueError naming the first commodity with an endpoint off the fabric),
    and its fields become the batch's columns in place.
    """
    if isinstance(commodities, Commodities):
        return commodities
    ends = _read_endpoints(commodities)
    _check_on_fabric(topo, ends, commodities, lambda i: f"commodity {commodities[i].id}")
    return Commodities(*(_Field(commodities, i) for i in range(5)), _columns(topo, ends))


def _check_on_fabric(topo: ClosTopology, ends: np.ndarray, items, name) -> None:
    """Raises ValueError naming, as name(i), the first item i whose ends leave topo."""
    tor, host, nic = ends.reshape(-1, 3).T  # as _read_endpoints reads them: only a ToR is < 0
    off = (tor < 0) | (tor >= topo.num_tors) | (host >= topo.hosts_per_tor) | (nic >= topo.nics_per_host)
    if off.any():
        i, side = divmod(int(np.flatnonzero(off)[0]), 2)
        end = ("src", "dst")[side]
        raise ValueError(f"{name(i)}: {end} endpoint {getattr(items[i], end)} is off the fabric")


def _columns(topo: ClosTopology, ends: np.ndarray) -> Classified:
    """The ``Classified`` columns of endpoints read by ``_read_endpoints``:
    copies, so that a batch does not hold ``ends``. Endpoints that share a
    host (their ToR and host match) get NIC link ids of -1."""
    nic = _nic_up_ids(topo, ends) + (0, topo.num_endpoints)
    nic[(ends[:, 0, 0] == ends[:, 1, 0]) & (ends[:, 0, 1] == ends[:, 1, 1])] = -1
    return Classified(*ends[:, :, 0].T.copy(), *nic.T.copy())


def build_routes(commodities: Commodities, spines) -> PathChoice:
    """Each commodity's route: a spine route on the next of ``spines`` (one
    per inter-ToR commodity, in order) for an inter-ToR commodity, its one
    forced route otherwise."""
    spine = np.full(len(commodities), -1, dtype=np.int64)
    spine[commodities.kinds.inter] = spines
    return PathChoice(commodities, spine)


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
