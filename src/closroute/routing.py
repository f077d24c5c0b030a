"""Path-assignment schemes for commodities on a 2-layer Clos fabric.

All schemes map each commodity to one of its shortest paths (one candidate
per live spine for inter-ToR pairs, a forced route otherwise) and are
compared by the congestion they induce: the number of assigned commodities
crossing each directed link. Each takes a list of ``CommoditySpec`` or a
``topology.Commodities`` batch and reads it once, at its top, into a batch
with ``topology.classify`` (which checks a list's endpoints against the fabric
and returns a batch as it is). From there it works on the batch's columns
alone: it chooses a spine per inter-ToR commodity and builds the routes with
``topology.build_routes``. ECMP and annealing hash the id column. Greedy,
edge coloring and exact read no id: each chooses its spines in a core over
the batch's ``Classified`` columns and the fabric (``_greedy_spines``,
``_color_spines``, ``_exact_spines``), so they take an optional memo of the
spines each input got (``_spines``), which the simulator keeps per run.

Schemes:
  greedy        sequential least-congested-path choice, 2-approximate on the
                max spine-link load
  ecmp          stateless per-commodity hashing over live spines
  edge_coloring Koenig-style proper edge coloring of the ToR-to-ToR demand
                multigraph, optimal for unit demands
  annealing     simulated annealing from an ECMP start
  exact         a search for the first spine vector at the degree bound, the
                optimum as edge_coloring shows, or edge_coloring's own vector
                once the search runs past its budget

Greedy keeps, per ToR and direction, one bitmask of live spines per load
level: bit s of level l is set when spine s's link at that ToR carries at
most l commodities. A commodity's least bottleneck is the first level, from
its NIC floor up, at which its source ToR's up-mask and its destination
ToR's down-mask intersect. Every spine in the intersection attains it, so
the lowest set bit is the lowest such spine: the choice of a scan in
ascending spine order that switches only on a strictly smaller bottleneck.

Edge coloring keeps the same kind of mask per vertex of the demand
multigraph: bit c is set while color c is free there. The lowest set bit
of the two ends' intersection is the first color free at both, the choice
of a scan in ascending color order. When the intersection is empty, the
lowest free bits of the two ends are the colors swapped along a Kempe
chain, and only the chain's two ends change their masks.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from dataclasses import dataclass
from hashlib import blake2b
from itertools import compress

import numpy as np

from .topology import (
    Classified,
    ClosTopology,
    Commodities,
    Endpoint,
    PathChoice,
    build_routes,
    classify,
    max_spine_link_load,
)
from .workload import CommoditySpec

SCHEME_NAMES = ("greedy", "ecmp", "edge_coloring", "annealing", "exact")
# the exact search's budget: this many placements per inter-ToR commodity, plus
# this many squared, before it takes edge coloring's spines
_EXACT_PLACEMENTS = 16
# what a scheme takes: its commodities, in order, as tuples or as a batch
CommodityInput = list[CommoditySpec] | Commodities
_ECMP_HASH = blake2b(digest_size=8)  # copied for each ECMP id: cheaper than a new hasher


@dataclass(frozen=True)
class AnnealSchedule:
    initial_temp: float = 1.0
    cooling_factor: float = 0.999
    moves_per_commodity: int = 100

    def __post_init__(self):
        if not (self.initial_temp > 0 and self.moves_per_commodity >= 0):
            raise ValueError("annealing schedule parameters must be positive")
        if not 0.0 < self.cooling_factor < 1.0:
            raise ValueError("cooling_factor must be in (0, 1)")


def check_scheme(name: str):
    """Refuse a name that is not in ``SCHEME_NAMES``."""
    if name not in SCHEME_NAMES:
        raise ValueError(f"unknown scheme {name!r}; valid: {list(SCHEME_NAMES)}")


def max_link_load(choice: PathChoice, topo: ClosTopology) -> int:
    """Maximum commodity count on any link that touches a spine."""
    return max_spine_link_load(topo, choice.link_rows(topo))


def max_tor_degree(kinds: Classified) -> int:
    """Most inter-ToR commodities leaving or entering one ToR: the max degree
    of the ToR-to-ToR demand multigraph."""
    inter = kinds.inter
    ends = (kinds.src_tor[inter], kinds.dst_tor[inter])
    return max(int(np.bincount(tors, minlength=1).max()) for tors in ends)


def degree_bound(kinds: Classified, topo: ClosTopology) -> int:
    """ceil(max ToR degree / live spines): every assignment puts at least this
    many inter-ToR commodities on some spine link, and edge coloring no more."""
    return -(-max_tor_degree(kinds) // len(topo.live_spines))


def greedy_assign(commodities: CommodityInput, topo: ClosTopology,
                  memo: dict | None = None) -> PathChoice:
    """Assign each commodity, in the given order, to its least-congested path.

    The running choice starts at the lowest-index live spine and switches only
    on a strictly smaller bottleneck load, so ties keep the lowest spine. The
    bottleneck load of a candidate is the max current load over all four of its
    links, NIC links included. Forced intra-host/intra-ToR commodities take
    their unique route; intra-ToR ones still load their NIC links. With a
    memo, the spines of an input seen before are read from it (``_spines``).
    """
    batch = classify(topo, commodities)
    return build_routes(batch, _spines(_greedy_spines, batch.kinds, topo, memo))


def _spines(core, kinds: Classified, topo: ClosTopology, memo: dict | None) -> list[int]:
    """``core(kinds, topo)``, the spines of a scheme that reads no id, stored
    in memo, if one is given, and read from it when the same core meets the
    same columns on the same fabric again. A core reads nothing but the
    ``Classified`` columns, in order, and the fabric with its live spines, so
    the key is exact: the core, the four columns as one int64 buffer (whose
    length fixes their length), and the ``ClosTopology`` value."""
    if memo is None:
        return core(kinds, topo)
    key = (core, np.array(kinds, dtype=np.int64).tobytes(), topo)
    spines = memo.get(key)
    if spines is None:
        spines = memo[key] = core(kinds, topo)
    return spines


def _greedy_spines(kinds: Classified, topo: ClosTopology) -> list[int]:
    """Greedy's spines for the inter-ToR commodities, in order.

    A spine's bottleneck for a commodity is the max of its ToR->spine load,
    its spine->ToR load and the commodity's NIC floor, the larger of its two
    NIC loads. NIC loads do not depend on spine choices, so the floors are
    counted up front. Per ToR and direction, level mask ``l`` is a bitmask of
    the live spines (bit s for spine s) whose link at that ToR carries at
    most ``l`` commodities. Starting at the NIC floor, the first level at
    which the source ToR's up-mask and the destination ToR's down-mask
    intersect is the least bottleneck, and every spine in the intersection
    attains it. The lowest set bit is therefore the lowest spine that does:
    the choice of a scan in ascending spine order that switches only on a
    strictly smaller bottleneck. A link going from load v to v + 1 leaves
    level mask v only.
    """
    src_tor, dst_tor, nic_up, nic_down = kinds
    inter = kinds.inter
    # no spine link can carry more than the max ToR degree, so level ``top``
    # holds every live spine, and a NIC floor above it chooses as ``top`` does
    top = max_tor_degree(kinds)
    off_host = nic_up >= 0
    n = int(off_host.sum())
    prior = _prior_uses(np.concatenate([nic_up[off_host], nic_down[off_host]]))
    floor = np.minimum(np.maximum(prior[:n], prior[n:]), top)[inter[off_host]]

    live = sum(1 << s for s in topo.live_spines)
    base = top + 1
    # one row per ToR and direction, ToR->spine rows first: the level masks,
    # then the link loads by spine from index ``base``
    unloaded = [live] * base + [0] * topo.num_spines
    rows = [unloaded.copy() for _ in range(2 * topo.num_tors)]
    spines = []
    for st, dt, level in zip(src_tor[inter].tolist(), (dst_tor[inter] + topo.num_tors).tolist(),
                             floor.tolist()):
        up, down = rows[st], rows[dt]
        both = up[level] & down[level]
        while not both:
            level += 1
            both = up[level] & down[level]
        bit = both & -both
        spine = bit.bit_length() - 1
        spines.append(spine)
        i = base + spine
        up[up[i]] ^= bit
        up[i] += 1
        down[down[i]] ^= bit
        down[i] += 1
    return spines


def _prior_uses(ids: np.ndarray) -> np.ndarray:
    """For each entry of ids, how many earlier entries equal it."""
    order = np.argsort(ids, kind="stable")
    ranked = ids[order]
    pos = np.arange(ids.size)
    starts = np.flatnonzero(np.diff(ranked, prepend=-1))
    first = np.repeat(starts, np.diff(starts, append=ids.size))
    uses = np.empty_like(pos)
    uses[order] = pos - first
    return uses


def decompose_components(commodities: list[CommoditySpec]) -> list[list[CommoditySpec]]:
    """Partition commodities into maximal groups connected by a shared link:
    a shared source or destination ToR between inter-ToR commodities, or a
    shared source or destination endpoint (NIC) between any that leave their
    host.

    Two inter-ToR commodities can only contend for the same directed
    spine-layer link if they leave the same ToR or enter the same ToR, and any
    two commodities off their hosts can only share a NIC link if they share an
    endpoint, so no two groups share a link. Greedy, which weighs NIC links
    too, therefore routes each group as it would within the whole set.
    Intra-host commodities touch no link and form singletons.
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

    first: dict[tuple, int] = {}  # shared resource -> first commodity using it
    for idx, c in enumerate(commodities):
        src, dst = c.src, c.dst
        if src.tor != dst.tor:
            keys = [("src_tor", src.tor), ("dst_tor", dst.tor), ("src", src), ("dst", dst)]
        elif src.host != dst.host:
            keys = [("src", src), ("dst", dst)]
        else:
            continue
        for key in keys:
            if key in first:
                union(first[key], idx)
            else:
                first[key] = idx

    groups: dict[int, list[CommoditySpec]] = {}
    for idx, c in enumerate(commodities):
        groups.setdefault(find(idx), []).append(c)
    return [groups[root] for root in sorted(groups)]


def ecmp_assign(commodities: CommodityInput, topo: ClosTopology, seed: int) -> PathChoice:
    """Hash each inter-ToR commodity onto a live spine, like per-flow ECMP."""
    batch = classify(topo, commodities)
    return build_routes(batch, _ecmp_spines(batch, topo, seed))


def _ecmp_spines(batch: Commodities, topo: ClosTopology, seed: int) -> list[int]:
    """ECMP's spines for the inter-ToR commodities, in order: live spine d mod
    (live count), d being the big-endian blake2b digest of the id and ``|seed``
    from a copy of ``_ECMP_HASH``, with all the digests decoded at once."""
    suffix = f"|{seed}"
    digests = []
    for cid in compress(batch.id, batch.kinds.inter):
        hasher = _ECMP_HASH.copy()
        hasher.update((cid + suffix).encode())
        digests.append(hasher.digest())
    live = topo.live_spines
    return np.array(live)[np.frombuffer(b"".join(digests), ">u8") % len(live)].tolist()


def edge_color_assign(commodities: CommodityInput, topo: ClosTopology,
                      memo: dict | None = None) -> PathChoice:
    """Color the ToR-to-ToR demand multigraph with max-degree colors, then map
    color c to live spine c mod k.

    The demand multigraph is bipartite (source ToRs left, destination ToRs
    right, one edge per inter-ToR commodity), so a proper coloring with
    Delta = max degree colors exists; it is found by Kempe-chain recoloring.
    Each ToR then sees every color at most once, giving every ToR<->spine link
    a load of at most ceil(Delta / live spines), which is optimal. With a
    memo, the spines of an input seen before are read from it (``_spines``).
    """
    batch = classify(topo, commodities)
    return build_routes(batch, _spines(_color_spines, batch.kinds, topo, memo))


def _color_spines(kinds: Classified, topo: ClosTopology) -> list[int]:
    """Edge coloring's spines for the inter-ToR commodities, in order."""
    inter = kinds.inter
    # vertices: source ToR t is t, destination ToR t is T + t. Edge e joins
    # src[e] and dst[e]: a list per edge would be one more GC object each
    src, dst = kinds.src_tor[inter].tolist(), (topo.num_tors + kinds.dst_tor[inter]).tolist()
    degree = max_tor_degree(kinds)
    # table[x][c]: the edge colored c at vertex x, -1 if c is free there;
    # bit c of free[x] is set while c is free at x
    table = [[-1] * degree for _ in range(2 * topo.num_tors)]
    free = [(1 << degree) - 1] * (2 * topo.num_tors)
    color = [0] * len(src)
    for e, (u, v) in enumerate(zip(src, dst)):
        both = free[u] & free[v]
        bit = both & -both
        if not bit:
            bit, other = free[u] & -free[u], free[v] & -free[v]
            alpha, beta = bit.bit_length() - 1, other.bit_length() - 1
            # Swap alpha and beta along the maximal alpha/beta chain starting
            # at v, a path whose vertices swap their alpha and beta entries.
            # Bipartite parity keeps it away from u, so alpha becomes free at
            # both ends. Every inner vertex holds both colors before and
            # after, so only the two ends change their free masks.
            x, want = v, alpha
            while True:
                row = table[x]
                f = row[want]
                row[alpha], row[beta] = row[beta], row[alpha]
                if f < 0:
                    break
                color[f] = alpha + beta - want
                x = dst[f] if x == src[f] else src[f]
                want = alpha + beta - want
            free[v] ^= bit | other
            free[x] ^= bit | other
        c = bit.bit_length() - 1
        color[e] = c
        free[u] ^= bit
        free[v] ^= bit
        table[u][c] = table[v][c] = e
    live = topo.live_spines
    return [live[c % len(live)] for c in color]


class _LoadTracker:
    """Loads by link id, their max and sum of squares kept in O(1) per bump of +1 or -1."""

    def __init__(self, num_links: int):
        self.loads = [0] * num_links
        self.hist = {0: num_links}  # links by load
        self.max_load = 0
        self.sum_sq = 0

    def bump(self, link: int, delta: int):
        old = self.loads[link]
        new = old + delta
        self.loads[link] = new
        self.sum_sq += new * new - old * old
        self.hist[old] -= 1
        self.hist[new] = self.hist.get(new, 0) + 1
        # a bump moves a load by 1, so a link that leaves the max alone holds the new max
        if new > self.max_load or old == self.max_load and not self.hist[old]:
            self.max_load = new


def anneal_assign(
    commodities: CommodityInput,
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
    live = topo.live_spines
    batch = classify(topo, commodities)
    inter = batch.kinds.inter
    spine_of = _ecmp_spines(batch, topo, seed)
    start = build_routes(batch, spine_of)
    if not spine_of or len(live) < 2 or schedule.moves_per_commodity == 0:
        return start

    tracker = _LoadTracker(topo.num_links)
    rows = start.link_rows(topo)
    for link in rows[rows >= 0].tolist():
        tracker.bump(link, 1)
    src_tor, dst_tor = batch.kinds.src_tor[inter].tolist(), batch.kinds.dst_tor[inter].tolist()

    # Integer scalarization of the lexicographic energy: a max-load step always
    # outweighs any reachable sum-of-squares difference.
    n = len(spine_of)
    big = 4 * (4 * n) ** 2 + 1

    def energy() -> int:
        return tracker.max_load * big + tracker.sum_sq

    def links_of(i: int, spine: int) -> tuple[int, int]:
        return topo.tor_up_id(src_tor[i], spine), topo.tor_down_id(spine, dst_tor[i])

    rng = random.Random(seed)
    temp = schedule.initial_temp
    current = energy()
    best = current
    best_spines = spine_of.copy()
    moves = schedule.moves_per_commodity * n
    for _ in range(moves):
        i = rng.randrange(n)
        old_spine = spine_of[i]
        alternatives = [s for s in live if s != old_spine]
        new_spine = alternatives[rng.randrange(len(alternatives))]
        for link in links_of(i, old_spine):
            tracker.bump(link, -1)
        for link in links_of(i, new_spine):
            tracker.bump(link, 1)
        proposed = energy()
        delta = proposed - current
        if delta <= 0 or rng.random() < math.exp(-delta / temp):
            spine_of[i] = new_spine
            current = proposed
            if current < best:
                best = current
                best_spines = spine_of.copy()
        else:
            for link in links_of(i, new_spine):
                tracker.bump(link, -1)
            for link in links_of(i, old_spine):
                tracker.bump(link, 1)
        temp *= schedule.cooling_factor

    return build_routes(batch, best_spines)


def exact_assign(commodities: CommodityInput, topo: ClosTopology,
                 memo: dict | None = None) -> PathChoice:
    """Provably optimal spine assignment for the min-max spine-link load.

    Every assignment loads some spine link with at least the degree bound
    ceil(Delta / live spines), and one always loads none above it: the edge
    coloring that ``edge_color_assign`` builds. So the optimum is the bound,
    and a depth-first search over per-commodity spines in ascending order,
    which admits a spine only while both of its links stay within the bound,
    finds the lexicographically smallest optimal spine vector. The search is
    exponential in the worst case, so it stops after a budget of placements
    linear in the inter-ToR commodities and returns edge coloring's vector,
    also at the bound (``_exact_spines``). With a memo, the spines of an input
    seen before are read from it (``_spines``).
    """
    batch = classify(topo, commodities)
    return build_routes(batch, _spines(_exact_spines, batch.kinds, topo, memo))


def _exact_spines(kinds: Classified, topo: ClosTopology) -> list[int]:
    """The exact search's spines for the inter-ToR commodities, in order: the
    depth-first search, kept as a stack of each commodity's live spines not
    yet tried, or ``_color_spines``' once it has placed
    ``_EXACT_PLACEMENTS * (n + 16)`` spines, n being the inter-ToR commodities.
    Loads are kept by link id, for the links the search has loaded."""
    live = topo.live_spines
    inter = kinds.inter
    src_tor, dst_tor = kinds.src_tor[inter].tolist(), kinds.dst_tor[inter].tolist()
    n = len(src_tor)
    bound = degree_bound(kinds, topo)
    budget = _EXACT_PLACEMENTS * (n + 16)
    # each commodity's two links at each live spine, in the order of live
    ups = {t: [topo.tor_up_id(t, s) for s in live] for t in set(src_tor)}
    downs = {t: [topo.tor_down_id(s, t) for s in live] for t in set(dst_tor)}
    links = [(ups[u], downs[d]) for u, d in zip(src_tor, dst_tor)]
    loads = defaultdict(int)
    chosen: list[int] = []  # each placed commodity's position in live
    untried = [iter(range(len(live)))]  # one per placed commodity, and one for the next
    while len(chosen) < n:
        up_ids, down_ids = links[len(chosen)]
        for i in untried[-1]:
            up, down = up_ids[i], down_ids[i]
            if loads[up] < bound and loads[down] < bound:
                if not budget:
                    return _color_spines(kinds, topo)
                budget -= 1
                loads[up] += 1
                loads[down] += 1
                chosen.append(i)
                untried.append(iter(range(len(live))))
                break
        else:  # no spine fits: take back the previous commodity's, to try its next
            untried.pop()
            if not chosen:
                raise AssertionError("no spine assignment meets the degree bound")
            i = chosen.pop()
            up_ids, down_ids = links[len(chosen)]
            loads[up_ids[i]] -= 1
            loads[down_ids[i]] -= 1
    return [live[i] for i in chosen]


def assign_by_scheme(
    scheme: str,
    commodities: CommodityInput,
    topo: ClosTopology,
    *,
    seed: int = 0,
    anneal_schedule: AnnealSchedule = AnnealSchedule(),
    memo: dict | None = None,
) -> PathChoice:
    """Dispatch to a scheme by name, checked before the input is read. The memo
    goes to the schemes that read no id: greedy, edge_coloring and exact."""
    check_scheme(scheme)
    if scheme == "greedy":
        return greedy_assign(commodities, topo, memo=memo)
    if scheme == "ecmp":
        return ecmp_assign(commodities, topo, seed)
    if scheme == "edge_coloring":
        return edge_color_assign(commodities, topo, memo=memo)
    if scheme == "annealing":
        return anneal_assign(commodities, topo, anneal_schedule, seed)
    return exact_assign(commodities, topo, memo=memo)


def unit_commodities_for_pairs(
    topo: ClosTopology, pairs: list[tuple[int, int]]
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
        commodities.append(CommoditySpec(f"c{i}", "instance", src, dst, 1))
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


def random_commodities(topo: ClosTopology, count: int, seed: int) -> list[CommoditySpec]:
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
        commodities.append(CommoditySpec(f"b{i}", "bench", src, dst, 1))
    return commodities
