"""Path-assignment schemes for commodities on a 2-layer Clos fabric.

All schemes map each commodity to one of its shortest paths (one candidate
per live spine for inter-ToR pairs, a forced route otherwise) and are
compared by the congestion they induce: the number of assigned commodities
crossing each directed link.

Schemes:
  greedy        sequential least-congested-path choice, 2-approximate on the
                max spine-link load
  ecmp          stateless per-commodity hashing over live spines
  edge_coloring Koenig-style proper edge coloring of the ToR-to-ToR demand
                multigraph, optimal for unit demands
  annealing     simulated annealing from an ECMP start
  exact         branch-and-bound optimum for small instances
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

import numpy as np

from .topology import (
    INTRA_HOST,
    ClosTopology,
    CommodityRouteError,
    Endpoint,
    Link,
    Route,
    forced_route,
    route_link_ids,
    spine_route,
)
from .workload import CommoditySpec

SPINE_LINKS_ONLY = "spine_links_only"
ALL_LINKS = "all_links"

SCHEME_NAMES = ("greedy", "ecmp", "edge_coloring", "annealing", "exact")


@dataclass(frozen=True)
class PathChoice:
    """Mapping commodity id -> chosen Route, one entry per input commodity."""

    assignment: dict[str, Route]


@dataclass(frozen=True)
class AnnealSchedule:
    initial_temp: float = 1.0
    cooling_factor: float = 0.999
    moves_per_commodity: int = 100

    def __post_init__(self):
        if self.initial_temp <= 0 or self.moves_per_commodity < 0:
            raise ValueError("annealing schedule parameters must be positive")
        if not 0.0 < self.cooling_factor < 1.0:
            raise ValueError("cooling_factor must be in (0, 1)")


def load_map(choice: PathChoice) -> dict[Link, int]:
    """Number of assigned commodities traversing each directed link."""
    counts: dict[Link, int] = {}
    for route in choice.assignment.values():
        for link in route.links:
            counts[link] = counts.get(link, 0) + 1
    return counts


def max_link_load(choice: PathChoice, topo: ClosTopology, scope: str = SPINE_LINKS_ONLY) -> int:
    """Maximum commodity count on any link in the requested scope."""
    if scope not in (SPINE_LINKS_ONLY, ALL_LINKS):
        raise ValueError(f"unknown scope {scope!r}")
    ids, _ = route_link_ids(topo, choice.assignment.values())
    loads = np.bincount(ids, minlength=topo.num_links)
    return int(loads[topo.spine_link_base if scope == SPINE_LINKS_ONLY else 0 :].max())


def greedy_assign(commodities: list[CommoditySpec], topo: ClosTopology) -> PathChoice:
    """Assign each commodity, in the given order, to its least-congested path.

    The running choice starts at the lowest-index live spine and switches only
    on a strictly smaller bottleneck load, so ties keep the lowest spine. The
    bottleneck load of a candidate is the max current load over all four of its
    links, NIC links included. Forced intra-host/intra-ToR commodities take
    their unique route; intra-ToR ones still load their NIC links.
    """
    live_list = topo.live_spines
    if not live_list:
        raise CommodityRouteError("no live spines available")
    live = np.asarray(live_list, dtype=np.int64)
    loads = np.zeros(topo.num_links, dtype=np.int64)
    up, down = topo.spine_link_views(loads)
    assignment: dict[str, Route] = {}
    for c in commodities:
        src, dst = c.src, c.dst
        route = forced_route(topo, src, dst)
        src_up, dst_down = topo.nic_up_id(src), topo.nic_down_id(dst)
        if route is None:
            cand = np.maximum(up[src.tor, live], down[live, dst.tor])
            nic_floor = max(loads[src_up], loads[dst_down])
            if nic_floor:
                cand = np.maximum(cand, nic_floor)
            # first occurrence of the minimum == scan in ascending spine order
            # switching only on strict improvement
            spine = live_list[int(np.argmin(cand))]
            route = spine_route(src, dst, spine)
            up[src.tor, spine] += 1
            down[spine, dst.tor] += 1
        if route.kind != INTRA_HOST:
            loads[src_up] += 1
            loads[dst_down] += 1
        assignment[c.id] = route
    return PathChoice(assignment)


def decompose_components(commodities: list[CommoditySpec]) -> list[list[CommoditySpec]]:
    """Partition commodities into maximal groups connected by a shared source
    ToR or a shared destination ToR.

    Two inter-ToR commodities can only ever contend for the same directed
    spine-layer link if they leave the same ToR or enter the same ToR, so the
    groups are link-disjoint at the spine layer. Intra-host and intra-ToR
    commodities touch no spine link and form singletons.
    """
    parent = list(range(len(commodities)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    by_src: dict[int, int] = {}
    by_dst: dict[int, int] = {}
    for idx, c in enumerate(commodities):
        if c.src.tor == c.dst.tor:
            continue
        if c.src.tor in by_src:
            union(by_src[c.src.tor], idx)
        else:
            by_src[c.src.tor] = idx
        if c.dst.tor in by_dst:
            union(by_dst[c.dst.tor], idx)
        else:
            by_dst[c.dst.tor] = idx

    groups: dict[int, list[CommoditySpec]] = {}
    for idx, c in enumerate(commodities):
        groups.setdefault(find(idx), []).append(c)
    return [groups[root] for root in sorted(groups)]


def _stable_hash(text: str) -> int:
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def ecmp_assign(commodities: list[CommoditySpec], topo: ClosTopology, seed: int) -> PathChoice:
    """Hash each inter-ToR commodity onto a live spine, like per-flow ECMP."""
    live = topo.live_spines
    if not live:
        raise CommodityRouteError("no live spines available")
    assignment: dict[str, Route] = {}
    for c in commodities:
        route = forced_route(topo, c.src, c.dst)
        if route is None:
            spine = live[_stable_hash(f"{c.id}|{seed}") % len(live)]
            route = spine_route(c.src, c.dst, spine)
        assignment[c.id] = route
    return PathChoice(assignment)


class _ColorState:
    """Per-vertex color table for bipartite multigraph edge coloring."""

    __slots__ = ("colors",)

    def __init__(self):
        self.colors: dict[tuple, dict[int, int]] = {}

    def at(self, vertex: tuple) -> dict[int, int]:
        return self.colors.setdefault(vertex, {})

    def free_color(self, vertex: tuple, limit: int) -> int:
        used = self.at(vertex)
        for color in range(limit):
            if color not in used:
                return color
        raise AssertionError("degree exceeds color budget")


def edge_color_assign(commodities: list[CommoditySpec], topo: ClosTopology) -> PathChoice:
    """Color the ToR-to-ToR demand multigraph with max-degree colors, then map
    color c to live spine c mod k.

    The demand multigraph is bipartite (source ToRs left, destination ToRs
    right, one edge per inter-ToR commodity), so a proper coloring with
    Delta = max degree colors exists; it is found by Kempe-chain recoloring.
    Each ToR then sees every color at most once, giving every ToR<->spine link
    a load of at most ceil(Delta / live spines), which is optimal.
    """
    live = topo.live_spines
    if not live:
        raise CommodityRouteError("no live spines available")

    inter = [(i, c) for i, c in enumerate(commodities) if c.src.tor != c.dst.tor]
    degree: dict[tuple, int] = {}
    for _, c in inter:
        degree[("s", c.src.tor)] = degree.get(("s", c.src.tor), 0) + 1
        degree[("d", c.dst.tor)] = degree.get(("d", c.dst.tor), 0) + 1
    delta = max(degree.values(), default=0)

    state = _ColorState()
    edge_color: dict[int, int] = {}
    edge_ends: dict[int, tuple[tuple, tuple]] = {}
    for idx, c in inter:
        u = ("s", c.src.tor)
        v = ("d", c.dst.tor)
        edge_ends[idx] = (u, v)
        free_u = {col for col in range(delta) if col not in state.at(u)}
        free_v = {col for col in range(delta) if col not in state.at(v)}
        common = free_u & free_v
        if common:
            color = min(common)
        else:
            alpha = min(free_u)
            beta = min(free_v)
            # Swap colors along the maximal alpha/beta chain starting at v.
            # Bipartite parity keeps the chain away from u, so alpha becomes
            # free at both ends.
            chain = []
            x, want = v, alpha
            while want in state.at(x):
                eid = state.at(x)[want]
                chain.append(eid)
                ex_u, ex_v = edge_ends[eid]
                x = ex_v if x == ex_u else ex_u
                want = beta if want == alpha else alpha
            for eid in chain:
                old = edge_color[eid]
                for vert in edge_ends[eid]:
                    del state.at(vert)[old]
                edge_color[eid] = beta if old == alpha else alpha
            for eid in chain:
                for vert in edge_ends[eid]:
                    state.at(vert)[edge_color[eid]] = eid
            color = alpha
        edge_color[idx] = color
        state.at(u)[color] = idx
        state.at(v)[color] = idx

    assignment: dict[str, Route] = {}
    for i, c in enumerate(commodities):
        if c.src.tor == c.dst.tor:
            assignment[c.id] = forced_route(topo, c.src, c.dst)
        else:
            spine = live[edge_color[i] % len(live)]
            assignment[c.id] = spine_route(c.src, c.dst, spine)
    return PathChoice(assignment)


class _LoadTracker:
    """Loads by link id with O(1) amortized max and sum-of-squares maintenance."""

    def __init__(self, num_links: int):
        self.loads = [0] * num_links
        self.hist: dict[int, int] = {}
        self.max_load = 0
        self.sum_sq = 0

    def bump(self, link: int, delta: int):
        old = self.loads[link]
        new = old + delta
        self.loads[link] = new
        self.sum_sq += new * new - old * old
        if old > 0:
            self.hist[old] -= 1
        if new > 0:
            self.hist[new] = self.hist.get(new, 0) + 1
        if new > self.max_load:
            self.max_load = new
        elif old == self.max_load and self.hist.get(old, 0) == 0:
            while self.max_load > 0 and self.hist.get(self.max_load, 0) == 0:
                self.max_load -= 1


def anneal_assign(
    commodities: list[CommoditySpec],
    topo: ClosTopology,
    schedule: AnnealSchedule = AnnealSchedule(),
    seed: int = 0,
) -> PathChoice:
    """Simulated annealing over spine choices, starting from the ECMP layout.

    Energy is (max link load, sum of squared link loads) compared
    lexicographically; a move re-spines one random inter-ToR commodity and is
    accepted when it lowers the energy, or with Metropolis probability
    exp(-delta / temperature) otherwise. Returns the best state seen.
    """
    import math

    live = topo.live_spines
    start = ecmp_assign(commodities, topo, seed)
    inter = [c for c in commodities if c.src.tor != c.dst.tor]
    if not inter or len(live) < 2 or schedule.moves_per_commodity == 0:
        return start

    tracker = _LoadTracker(topo.num_links)
    for link in route_link_ids(topo, start.assignment.values())[0].tolist():
        tracker.bump(link, 1)
    spine_of = {c.id: start.assignment[c.id].spine for c in inter}

    # Integer scalarization of the lexicographic energy: a max-load step always
    # outweighs any reachable sum-of-squares difference.
    n = len(inter)
    big = 4 * (4 * n) ** 2 + 1

    def energy() -> int:
        return tracker.max_load * big + tracker.sum_sq

    def links_of(c: CommoditySpec, spine: int) -> tuple[int, int]:
        return topo.tor_up_id(c.src.tor, spine), topo.tor_down_id(spine, c.dst.tor)

    rng = random.Random(seed)
    temp = schedule.initial_temp
    current = energy()
    best = current
    best_spines = dict(spine_of)
    moves = schedule.moves_per_commodity * n
    for _ in range(moves):
        c = inter[rng.randrange(n)]
        old_spine = spine_of[c.id]
        alternatives = [s for s in live if s != old_spine]
        new_spine = alternatives[rng.randrange(len(alternatives))]
        for link in links_of(c, old_spine):
            tracker.bump(link, -1)
        for link in links_of(c, new_spine):
            tracker.bump(link, 1)
        proposed = energy()
        delta = proposed - current
        if delta <= 0 or rng.random() < math.exp(-delta / temp):
            spine_of[c.id] = new_spine
            current = proposed
            if current < best:
                best = current
                best_spines = dict(spine_of)
        else:
            for link in links_of(c, new_spine):
                tracker.bump(link, -1)
            for link in links_of(c, old_spine):
                tracker.bump(link, 1)
        temp *= schedule.cooling_factor

    assignment = dict(start.assignment)
    for c in inter:
        assignment[c.id] = spine_route(c.src, c.dst, best_spines[c.id])
    return PathChoice(assignment)


def exact_assign(
    commodities: list[CommoditySpec],
    topo: ClosTopology,
    max_commodities: int = 16,
) -> PathChoice:
    """Provably optimal spine assignment for the min-max spine-link load.

    Depth-first branch and bound over per-commodity spine choices in ascending
    spine order, pruning branches whose partial max load cannot beat the
    incumbent and stopping at the degree lower bound ceil(Delta / live spines).
    Ties resolve to the lexicographically smallest spine vector. Guarded to
    small instances; the search is exponential in the worst case.
    """
    live = topo.live_spines
    if not live:
        raise CommodityRouteError("no live spines available")
    inter = [c for c in commodities if c.src.tor != c.dst.tor]
    if len(inter) > max_commodities:
        raise ValueError(
            f"{len(inter)} inter-ToR commodities exceed the exact-solver guard "
            f"of {max_commodities}"
        )

    out_deg: dict[int, int] = {}
    in_deg: dict[int, int] = {}
    for c in inter:
        out_deg[c.src.tor] = out_deg.get(c.src.tor, 0) + 1
        in_deg[c.dst.tor] = in_deg.get(c.dst.tor, 0) + 1
    max_degree = max(list(out_deg.values()) + list(in_deg.values()), default=0)
    lower_bound = -(-max_degree // len(live)) if inter else 0

    greedy_bound = max_link_load(greedy_assign(commodities, topo), topo, SPINE_LINKS_ONLY)

    up: dict[tuple[int, int], int] = {}
    down: dict[tuple[int, int], int] = {}
    chosen: list[int] = [live[0]] * len(inter)
    best_vector: list[int] | None = None
    best_value = greedy_bound + 1  # optimum can never exceed greedy's load

    def dfs(pos: int, partial_max: int):
        nonlocal best_vector, best_value
        if best_vector is not None and best_value == lower_bound:
            return
        if partial_max >= best_value:
            return
        if pos == len(inter):
            best_value = partial_max
            best_vector = chosen.copy()
            return
        c = inter[pos]
        for s in live:
            lu = up.get((c.src.tor, s), 0) + 1
            ld = down.get((s, c.dst.tor), 0) + 1
            new_max = max(partial_max, lu, ld)
            if new_max >= best_value:
                continue
            up[(c.src.tor, s)] = lu
            down[(s, c.dst.tor)] = ld
            chosen[pos] = s
            dfs(pos + 1, new_max)
            up[(c.src.tor, s)] = lu - 1
            down[(s, c.dst.tor)] = ld - 1
            if best_vector is not None and best_value == lower_bound:
                return

    dfs(0, 0)
    if best_vector is None and inter:
        raise AssertionError("branch and bound found no assignment")

    assignment: dict[str, Route] = {}
    for c in commodities:
        if c.src.tor == c.dst.tor:
            assignment[c.id] = forced_route(topo, c.src, c.dst)
    for idx, c in enumerate(inter):
        assignment[c.id] = spine_route(c.src, c.dst, best_vector[idx] if best_vector else live[0])
    return PathChoice({c.id: assignment[c.id] for c in commodities})


def assign_by_scheme(
    scheme: str,
    commodities: list[CommoditySpec],
    topo: ClosTopology,
    *,
    seed: int = 0,
    anneal_schedule: AnnealSchedule = AnnealSchedule(),
    exact_max_commodities: int = 16,
) -> PathChoice:
    """Dispatch to a scheme by name; see SCHEME_NAMES for the valid set."""
    if scheme == "greedy":
        return greedy_assign(commodities, topo)
    if scheme == "ecmp":
        return ecmp_assign(commodities, topo, seed)
    if scheme == "edge_coloring":
        return edge_color_assign(commodities, topo)
    if scheme == "annealing":
        return anneal_assign(commodities, topo, anneal_schedule, seed)
    if scheme == "exact":
        return exact_assign(commodities, topo, exact_max_commodities)
    raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEME_NAMES}")


def unit_commodities_for_pairs(
    topo: ClosTopology, pairs: list[tuple[int, int]], volume: int = 1
) -> list[CommoditySpec]:
    """ToR-level unit commodities, one per (src ToR, dst ToR) pair.

    Each commodity gets its own source NIC among its ToR's outgoing slots and
    its own destination NIC among the target ToR's incoming slots, so NIC
    links never influence spine choices (mirroring an analysis that looks at
    the ToR<->spine layer only).
    """
    out_rank: dict[int, int] = {}
    in_rank: dict[int, int] = {}
    commodities = []
    nics = topo.hosts_per_tor * topo.nics_per_host
    for i, (u, v) in enumerate(pairs):
        if u == v:
            raise ValueError("pairs must connect distinct ToRs")
        src_slot = out_rank.get(u, 0)
        dst_slot = in_rank.get(v, 0)
        out_rank[u] = src_slot + 1
        in_rank[v] = dst_slot + 1
        if src_slot >= nics or dst_slot >= nics:
            raise ValueError(f"ToR degree exceeds {nics} NIC slots")
        src = Endpoint(u, src_slot // topo.nics_per_host, src_slot % topo.nics_per_host)
        dst = Endpoint(v, dst_slot // topo.nics_per_host, dst_slot % topo.nics_per_host)
        commodities.append(CommoditySpec(f"c{i}", "instance", src, dst, volume))
    return commodities


def random_unit_instance(
    seed: int,
    max_tors: int = 8,
    max_spines: int = 4,
    max_commodities: int = 14,
) -> tuple[ClosTopology, list[CommoditySpec]]:
    """Seeded random 0/1 ToR-to-ToR demand instance for scheme validation."""
    from .topology import build_topology

    rng = random.Random(seed)
    num_tors = rng.randint(2, max_tors)
    num_spines = rng.randint(1, max_spines)
    all_pairs = [(u, v) for u in range(num_tors) for v in range(num_tors) if u != v]
    count = rng.randint(1, min(max_commodities, len(all_pairs)))
    pairs = rng.sample(all_pairs, count)
    topo = build_topology(num_spines, num_tors, hosts_per_tor=max_tors, nics_per_host=1,
                          link_capacity=1.0)
    return topo, unit_commodities_for_pairs(topo, pairs)


def random_commodities(
    topo: ClosTopology, count: int, seed: int, volume: int = 1
) -> list[CommoditySpec]:
    """Seeded random inter-ToR commodities for benchmarks; NIC slots cycle."""
    rng = random.Random(seed)
    out_rank: dict[int, int] = {}
    in_rank: dict[int, int] = {}
    commodities = []
    nics = topo.hosts_per_tor * topo.nics_per_host
    for i in range(count):
        u = rng.randrange(topo.num_tors)
        v = rng.randrange(topo.num_tors - 1)
        if v >= u:
            v += 1
        src_slot = out_rank.get(u, 0) % nics
        dst_slot = in_rank.get(v, 0) % nics
        out_rank[u] = out_rank.get(u, 0) + 1
        in_rank[v] = in_rank.get(v, 0) + 1
        src = Endpoint(u, src_slot // topo.nics_per_host, src_slot % topo.nics_per_host)
        dst = Endpoint(v, dst_slot // topo.nics_per_host, dst_slot % topo.nics_per_host)
        commodities.append(CommoditySpec(f"b{i}", "bench", src, dst, volume))
    return commodities
