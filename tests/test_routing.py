import hashlib
import itertools
import math
import random
import time
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

from test_topology import all_endpoints

from closroute import routing, topology
from closroute.rates import LinkRows, waterfill
from closroute.routing import (
    SCHEME_NAMES,
    AnnealSchedule,
    PathChoice,
    anneal_assign,
    assign_by_scheme,
    decompose_components,
    degree_bound,
    ecmp_assign,
    edge_color_assign,
    exact_assign,
    greedy_assign,
    max_link_load,
    max_tor_degree,
    random_commodities,
    random_unit_instance,
    unit_commodities_for_pairs,
)
from closroute.topology import (
    ClosTopology,
    Endpoint,
    Route,
    build_routes,
    build_topology,
    classify,
    fail_spines,
    route_link_rows,
    spine_route,
)
from closroute.workload import (
    CommoditySpec,
    Job,
    ModelConfig,
    build_rings,
    place_job,
    ring_allreduce_commodities,
)

FIG_PAIRS = [(0, 1), (1, 0), (1, 2), (2, 0)]  # the 4-ToR worked example demands


@pytest.fixture()
def fig_topo():
    return build_topology(2, 4, 2, 1, 1.0)


@pytest.fixture()
def fig_commodities(fig_topo):
    return unit_commodities_for_pairs(fig_topo, FIG_PAIRS)


def brute_force_min_max_load(commodities, topo):
    """Independent oracle: enumerate every spine vector, no pruning. Returns
    the least max spine-link load and the first vector, in
    ``itertools.product`` order over the live spines, that attains it."""
    live = topo.live_spines
    inter = [c for c in commodities if c.src.tor != c.dst.tor]
    best, first = math.inf, None
    for vector in itertools.product(live, repeat=len(inter)):
        loads = {}
        for c, s in zip(inter, vector):
            for link in ((c.src.tor, "u", s), (s, "d", c.dst.tor)):
                loads[link] = loads.get(link, 0) + 1
        load = max(loads.values(), default=0)
        if load < best:
            best, first = load, list(vector)
    return best, first


def spine_degree_bound(commodities, live_spines):
    out_deg, in_deg = {}, {}
    for c in commodities:
        if c.src.tor == c.dst.tor:
            continue
        out_deg[c.src.tor] = out_deg.get(c.src.tor, 0) + 1
        in_deg[c.dst.tor] = in_deg.get(c.dst.tor, 0) + 1
    degrees = list(out_deg.values()) + list(in_deg.values())
    return math.ceil(max(degrees) / live_spines) if degrees else 0


def link_loads(choice, topo):
    """Commodities on each directed link, by link id."""
    rows = route_link_rows(topo, choice.assignment.values())
    return np.bincount(rows[rows >= 0], minlength=topo.num_links)


def assert_choice_valid(choice, commodities, topo):
    assert list(choice.assignment) == [c.id for c in commodities]
    for c in commodities:
        src, dst = c.src, c.dst
        if src.tor != dst.tor:
            candidates = [spine_route(src, dst, s) for s in topo.live_spines]
        else:
            candidates = [Route(None, src, dst)]
        assert choice.assignment[c.id] in candidates


# -- greedy -------------------------------------------------------------------


def test_greedy_on_worked_example_is_disjoint(fig_topo, fig_commodities):
    choice = greedy_assign(fig_commodities, fig_topo)
    spines = [choice.assignment[c.id].spine for c in fig_commodities]
    assert spines == [0, 0, 1, 1]  # hand-run of the least-congested scan
    assert max_link_load(choice, fig_topo) == 1
    assert_choice_valid(choice, fig_commodities, fig_topo)


def test_greedy_single_commodity_takes_lowest_spine():
    topo = build_topology(4, 4, 1, 1, 1.0)
    cs = unit_commodities_for_pairs(topo, [(0, 1)])
    choice = greedy_assign(cs, topo)
    assert choice.assignment[cs[0].id].spine == 0


def test_greedy_fanout_meets_ceiling():
    # 3 commodities out of one ToR over 2 spines: loads 2 and 1 on the up-links
    topo = build_topology(2, 4, 4, 1, 1.0)
    cs = unit_commodities_for_pairs(topo, [(0, 1), (0, 2), (0, 3)])
    choice = greedy_assign(cs, topo)
    loads = link_loads(choice, topo)
    up = sorted(int(loads[topo.tor_up_id(0, s)]) for s in range(topo.num_spines))
    assert up == [1, 2]
    assert max_link_load(choice, topo) == 2


def test_greedy_is_deterministic():
    topo = build_topology(4, 8, 4, 2, 1.0)
    cs = random_commodities(topo, 120, seed=5)
    a = greedy_assign(cs, topo)
    b = greedy_assign(cs, topo)
    assert a == b


def test_greedy_sees_nic_links_in_bottleneck():
    # two flows from one NIC: the shared up-link makes all spine candidates
    # tie, so the second flow stays on the lowest spine
    from closroute.topology import Endpoint
    from closroute.workload import CommoditySpec

    topo = build_topology(2, 3, 1, 1, 1.0)
    src = Endpoint(0, 0, 0)
    cs = [
        CommoditySpec("f1", "j", src, Endpoint(1, 0, 0), 1),
        CommoditySpec("f2", "j", src, Endpoint(2, 0, 0), 1),
    ]
    choice = greedy_assign(cs, topo)
    assert choice.assignment["f1"].spine == 0
    assert choice.assignment["f2"].spine == 0
    loads = link_loads(choice, topo)
    assert loads.max() == loads[classify(topo, cs).kinds.nic_up[0]] == 2  # the shared NIC up-link


def scan_greedy(commodities, topo):
    """Reference greedy: each commodity in order scans the live spines in
    ascending order and switches only on a strictly smaller bottleneck, the
    max load over all four links. Returns the spines by commodity id and the
    peak spine-link load."""
    loads = Counter()
    spines = {}
    for c in commodities:
        src, dst = c.src, c.dst
        nics = [("nic_up", src), ("nic_down", dst)]
        if src.tor != dst.tor:
            best, best_load = None, math.inf
            for s in topo.live_spines:
                bottleneck = max(loads[link] for link in
                                 nics + [("up", src.tor, s), ("down", s, dst.tor)])
                if bottleneck < best_load:
                    best, best_load = s, bottleneck
            spines[c.id] = best
            loads.update([("up", src.tor, best), ("down", best, dst.tor)])
        if src.host != dst.host or src.tor != dst.tor:
            loads.update(nics)
    peak = max((n for link, n in loads.items() if link[0] in ("up", "down")), default=0)
    return spines, peak


@st.composite
def mixed_instances(draw):
    """Commodities between any two endpoints of a small fabric with some
    spines failed: intra-host, intra-ToR and inter-ToR ones share NICs, and a
    ToR can carry several times as many commodities as there are spines."""
    topo = build_topology(draw(st.integers(1, 4)), draw(st.integers(2, 4)),
                          draw(st.integers(1, 2)), draw(st.integers(1, 2)), 1.0)
    topo = fail_spines(topo, draw(st.integers(0, topo.num_spines - 1)), draw(st.integers(0, 99)))
    ends = st.sampled_from(all_endpoints(topo))
    pairs = draw(st.lists(st.tuples(ends, ends).filter(lambda p: p[0] != p[1]), max_size=40))
    return topo, [CommoditySpec(f"c{i}", "j", src, dst, 1) for i, (src, dst) in enumerate(pairs)]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(mixed_instances())
def test_greedy_matches_plain_scan(case):
    topo, cs = case
    spines, peak = scan_greedy(cs, topo)
    choice = greedy_assign(cs, topo)
    assert_choice_valid(choice, cs, topo)
    assert {i: r.spine for i, r in choice.assignment.items() if r.spine is not None} == spines
    assert max_link_load(choice, topo) == peak


# -- component decomposition --------------------------------------------------


def test_components_by_shared_source_or_destination(fig_commodities):
    parts = decompose_components(fig_commodities)
    ids = [[c.id for c in part] for part in parts]
    # c1/c2 share source ToR 1, c1/c3 share destination ToR 0; c0 shares
    # neither a source nor a destination with anyone
    assert ids == [["c0"], ["c1", "c2", "c3"]]


def test_components_trivial_cases():
    topo = build_topology(2, 6, 2, 1, 1.0)
    shared_src = unit_commodities_for_pairs(topo, [(0, 1), (0, 2)])
    assert len(decompose_components(shared_src)) == 1

    disjoint = unit_commodities_for_pairs(topo, [(0, 1), (2, 3)])
    assert len(decompose_components(disjoint)) == 2


def test_components_partition_input():
    topo = build_topology(3, 8, 4, 2, 1.0)
    cs = random_commodities(topo, 60, seed=11)
    parts = decompose_components(cs)
    flat = [c.id for part in parts for c in part]
    assert sorted(flat) == sorted(c.id for c in cs)
    for part in parts:
        order = [cs.index(c) for c in part]
        assert order == sorted(order)  # input order preserved inside a part


def test_intra_tor_commodities_are_singletons():
    # an intra-ToR commodity touches no spine link: it is a singleton unless
    # it shares a NIC link, here the up-link of t0.h0.n0 that c0 leaves by
    topo = build_topology(2, 4, 2, 2, 1.0)
    from closroute.workload import CommoditySpec
    from closroute.topology import Endpoint

    inter = unit_commodities_for_pairs(topo, [(0, 1), (0, 2)])
    apart = CommoditySpec("x", "j", Endpoint(0, 1, 0), Endpoint(0, 0, 0), 1)
    parts = decompose_components([apart] + inter)
    assert [[c.id for c in p] for p in parts] == [["x"], ["c0", "c1"]]
    sharing = CommoditySpec("y", "j", Endpoint(0, 0, 0), Endpoint(0, 1, 0), 1)
    parts = decompose_components([sharing] + inter)
    assert [[c.id for c in p] for p in parts] == [["y", "c0", "c1"]]


# -- greedy per component -----------------------------------------------------


def test_parallel_greedy_matches_per_component_runs():
    # ToR-level instances use disjoint NICs, so greedy over the whole set
    # equals greedy run on each component separately (the components could
    # be routed in parallel)
    for seed in range(30):
        topo, cs = random_unit_instance(seed, max_tors=8, max_spines=4, max_commodities=14)
        merged = {}
        for part in decompose_components(cs):
            merged.update(greedy_assign(part, topo).assignment)
        assert greedy_assign(cs, topo).assignment == merged

    # an intra-ToR commodity b that shares c's source NIC raises the NIC floor
    # c sees; whole-set greedy puts c on spine 0, so b and c share a component
    from closroute.workload import CommoditySpec
    from closroute.topology import Endpoint

    topo = build_topology(2, 2, 2, 1, 1.0)
    cs = [
        CommoditySpec("d", "j", Endpoint(0, 1, 0), Endpoint(1, 1, 0), 1),
        CommoditySpec("b", "j", Endpoint(0, 0, 0), Endpoint(0, 1, 0), 1),
        CommoditySpec("c", "j", Endpoint(0, 0, 0), Endpoint(1, 0, 0), 1),
    ]
    merged = {}
    for part in decompose_components(cs):
        merged.update(greedy_assign(part, topo).assignment)
    whole = greedy_assign(cs, topo).assignment
    assert whole["c"].spine == 0
    assert whole == merged


# -- ecmp ---------------------------------------------------------------------


def test_ecmp_collision_seed_matches_example(fig_topo, fig_commodities):
    choice = ecmp_assign(fig_commodities, fig_topo, seed=1)
    s_out_1 = choice.assignment["c1"].spine
    s_out_2 = choice.assignment["c2"].spine
    assert s_out_1 == s_out_2  # ToR 1's two flows contend on one up-link
    loads = link_loads(choice, fig_topo)
    assert loads[fig_topo.tor_up_id(1, s_out_1)] == 2


def test_ecmp_single_live_spine():
    topo = fail_spines(build_topology(2, 4, 1, 1, 1.0), 1, seed=2)
    cs = unit_commodities_for_pairs(topo, [(0, 1), (1, 2), (2, 3)])
    choice = ecmp_assign(cs, topo, seed=0)
    live = topo.live_spines[0]
    assert all(r.spine == live for r in choice.assignment.values())


def test_ecmp_spreads_uniformly():
    topo = build_topology(32, 64, 8, 8, 1.0)
    cs = random_commodities(topo, 10_000, seed=4)
    choice = ecmp_assign(cs, topo, seed=42)
    counts = [0] * 32
    for route in choice.assignment.values():
        counts[route.spine] += 1
    mean = 10_000 / 32
    sigma = (10_000 * (1 / 32) * (31 / 32)) ** 0.5
    for count in counts:
        assert abs(count - mean) <= 5 * sigma


def test_ecmp_deterministic_per_seed():
    topo = build_topology(32, 64, 8, 8, 1.0)
    cs = random_commodities(topo, 100, seed=1)
    assert ecmp_assign(cs, topo, 7) == ecmp_assign(cs, topo, 7)
    assert ecmp_assign(cs, topo, 7) != ecmp_assign(cs, topo, 8)


# -- edge coloring ------------------------------------------------------------


def test_coloring_on_worked_example(fig_topo, fig_commodities):
    choice = edge_color_assign(fig_commodities, fig_topo)
    assert max_link_load(choice, fig_topo) == 1
    assert_choice_valid(choice, fig_commodities, fig_topo)


def test_coloring_single_commodity():
    topo = build_topology(4, 4, 1, 1, 1.0)
    cs = unit_commodities_for_pairs(topo, [(2, 3)])
    choice = edge_color_assign(cs, topo)
    assert choice.assignment[cs[0].id].spine == 0
    assert max_link_load(choice, topo) == 1


def test_coloring_achieves_degree_bound_with_fewer_spines():
    # max degree 7 over 3 live spines: ceil(7/3) = 3
    topo = build_topology(3, 8, 8, 1, 1.0)
    pairs = [(0, v) for v in range(1, 8)]
    cs = unit_commodities_for_pairs(topo, pairs)
    choice = edge_color_assign(cs, topo)
    assert max_link_load(choice, topo) == 3


def test_coloring_always_hits_degree_bound_on_random_instances():
    for seed in range(200):
        topo, cs = random_unit_instance(seed, max_tors=8, max_spines=4, max_commodities=14)
        choice = edge_color_assign(cs, topo)
        bound = spine_degree_bound(cs, len(topo.live_spines))
        assert max_link_load(choice, topo) == bound
        assert_choice_valid(choice, cs, topo)


# -- annealing ----------------------------------------------------------------


def test_anneal_schedule_rejects_parameters_no_search_can_use():
    for bad in ({"initial_temp": 0.0}, {"initial_temp": math.nan}, {"moves_per_commodity": -1},
                {"moves_per_commodity": math.nan}, {"cooling_factor": 1.0},
                {"cooling_factor": math.nan}):
        with pytest.raises(ValueError):
            AnnealSchedule(**bad)


def test_anneal_zero_moves_is_ecmp(fig_topo, fig_commodities):
    schedule = AnnealSchedule(moves_per_commodity=0)
    assert anneal_assign(fig_commodities, fig_topo, schedule, seed=3) == ecmp_assign(
        fig_commodities, fig_topo, seed=3
    )


def test_anneal_finds_optimum_of_small_search_space(fig_topo, fig_commodities):
    schedule = AnnealSchedule(moves_per_commodity=250)  # 1000 moves over 4 commodities
    choice = anneal_assign(fig_commodities, fig_topo, schedule, seed=0)
    assert max_link_load(choice, fig_topo) == 1


def test_anneal_never_worse_than_its_ecmp_start():
    def energy(choice, topo):
        loads = link_loads(choice, topo)
        return (loads.max(), (loads * loads).sum())

    for seed in range(10):
        topo, cs = random_unit_instance(seed + 500, max_tors=6, max_spines=4)
        start = energy(ecmp_assign(cs, topo, seed), topo)
        end = energy(anneal_assign(cs, topo, AnnealSchedule(), seed), topo)
        assert end <= start


def test_anneal_deterministic_per_seed(fig_topo, fig_commodities):
    a = anneal_assign(fig_commodities, fig_topo, AnnealSchedule(), seed=9)
    b = anneal_assign(fig_commodities, fig_topo, AnnealSchedule(), seed=9)
    assert a == b


class LinkLoadTracker:
    """Loads by link id over every link of the fabric, their max and sum of
    squares kept in O(1) per bump of +1 or -1."""

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
        if new > self.max_load or old == self.max_load and not self.hist[old]:
            self.max_load = new


def reference_anneal_spines(cs, topo, schedule, seed):
    """The reference for ``anneal_assign``: the same moves from the same ECMP
    start, with the energy read off loads by link id, NIC links counted with
    the spine links on every move. Returns the spine column."""
    live = topo.live_spines
    batch = classify(topo, cs)
    inter = batch.kinds.inter
    spine_of = routing._ecmp_spines(batch, topo, seed)
    start = build_routes(batch, spine_of)
    if not spine_of or len(live) < 2 or schedule.moves_per_commodity == 0:
        return start.spine.tolist()
    tracker = LinkLoadTracker(topo.num_links)
    rows = start.link_rows(topo)
    for link in rows[rows >= 0].tolist():
        tracker.bump(link, 1)
    src_tor, dst_tor = batch.kinds.src_tor[inter].tolist(), batch.kinds.dst_tor[inter].tolist()
    n = len(spine_of)
    big = 4 * (4 * n) ** 2 + 1

    def links_of(i, spine):
        return topo.tor_up_id(src_tor[i], spine), topo.tor_down_id(spine, dst_tor[i])

    rng = random.Random(seed)
    temp = schedule.initial_temp
    current = best = tracker.max_load * big + tracker.sum_sq
    best_spines = spine_of.copy()
    for _ in range(schedule.moves_per_commodity * n):
        i = rng.randrange(n)
        old_spine = spine_of[i]
        alternatives = [s for s in live if s != old_spine]
        new_spine = alternatives[rng.randrange(len(alternatives))]
        for spine, delta in ((old_spine, -1), (new_spine, 1)):
            for link in links_of(i, spine):
                tracker.bump(link, delta)
        proposed = tracker.max_load * big + tracker.sum_sq
        delta = proposed - current
        if delta <= 0 or rng.random() < math.exp(-delta / temp):
            spine_of[i] = new_spine
            current = proposed
            if current < best:
                best = current
                best_spines = spine_of.copy()
        else:
            for spine, delta in ((new_spine, -1), (old_spine, 1)):
                for link in links_of(i, spine):
                    tracker.bump(link, delta)
        temp *= schedule.cooling_factor
    return build_routes(batch, best_spines).spine.tolist()


def nic_floored_instance():
    """Six commodities from one NIC to two NICs of another ToR, and one within
    the first ToR into that NIC, on 3 live spines: the busiest NIC link carries
    six, and no spine link can carry more than six."""
    topo = fail_spines(build_topology(4, 2, 2, 1, 1.0), 1, seed=0)
    home, inside = Endpoint(0, 0, 0), Endpoint(0, 1, 0)
    cs = [CommoditySpec(f"c{i}", "j", home, Endpoint(1, i % 2, 0), 1) for i in range(6)]
    return topo, cs + [CommoditySpec("x", "j", inside, home, 1)]


NIC_FLOORED = nic_floored_instance()


def test_the_nic_floored_instance_has_its_max_on_a_nic_link():
    topo, cs = NIC_FLOORED
    for choice in (ecmp_assign(cs, topo, 5), anneal_assign(cs, topo, seed=5)):
        loads = link_loads(choice, topo)
        spine_links = loads[topo.spine_link_base:]
        assert loads.max() == 6 > spine_links.max() > 0


@settings(derandomize=True, max_examples=150, deadline=None)
@given(mixed_instances(), st.integers(0, 30), st.floats(0.01, 10.0), st.integers(0, 99))
@example(NIC_FLOORED, 30, 1.0, 5)
@example(NIC_FLOORED, 30, 0.05, 0)
@example(random_unit_instance(3), 10, 1.0, 7)
def test_annealing_on_per_tor_rows_matches_the_link_id_reference(case, moves, temp, seed):
    topo, cs = case
    schedule = AnnealSchedule(initial_temp=temp, cooling_factor=0.99, moves_per_commodity=moves)
    choice = anneal_assign(cs, topo, schedule, seed)
    assert choice.spine.tolist() == reference_anneal_spines(cs, topo, schedule, seed)


@pytest.mark.parametrize("scheme", SCHEME_NAMES)
def test_a_scheme_call_holds_memory_for_the_tors_it_touches(scheme):
    """8 commodities on a fabric of 16,809,984 links that a run admits: state
    over every link, or every ToR and spine, would take over 100 MB."""
    topo = ClosTopology(512, 2**14, 1, 1, 1.0)
    assert topo.num_links == 16_809_984
    cs = random_commodities(topo, 8, 0)
    tracemalloc.start()
    try:
        choice = assign_by_scheme(scheme, cs, topo)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_choice_valid(choice, cs, topo)
    assert peak < 8_000_000


# -- exact --------------------------------------------------------------------


def test_exact_on_worked_example(fig_topo, fig_commodities):
    choice = exact_assign(fig_commodities, fig_topo)
    assert max_link_load(choice, fig_topo) == 1
    assert_choice_valid(choice, fig_commodities, fig_topo)


def test_exact_single_commodity_prefers_spine_zero():
    topo = build_topology(4, 4, 1, 1, 1.0)
    cs = unit_commodities_for_pairs(topo, [(1, 2)])
    choice = exact_assign(cs, topo)
    assert choice.assignment[cs[0].id].spine == 0
    assert max_link_load(choice, topo) == 1


def oracle_instances():
    """Random unit instances, some with spines failed, and ring edges that mix
    intra-host, intra-ToR and inter-ToR commodities: all few enough spine
    vectors to enumerate."""
    rng = random.Random(2024)
    instances = [random_unit_instance(rng.randrange(10**6), max_tors=6, max_spines=3,
                                      max_commodities=10) for _ in range(40)]
    for seed in range(12):
        topo, cs = random_unit_instance(seed, max_tors=6, max_spines=4, max_commodities=8)
        instances.append((fail_spines(topo, rng.randrange(topo.num_spines), seed), cs))
    for topo, cs in ring_edge_instances():
        inter = sum(c.src.tor != c.dst.tor for c in cs)
        if len(topo.live_spines) ** inter <= 5000:
            instances.append((topo, cs))
    return instances


def test_exact_matches_no_pruning_enumeration():
    for topo, cs in oracle_instances():
        choice = exact_assign(cs, topo)
        load, first = brute_force_min_max_load(cs, topo)
        assert max_link_load(choice, topo) == load
        assert [r.spine for r in choice.assignment.values() if r.spine is not None] == first


def test_exact_builds_routes_once_and_runs_no_other_scheme(monkeypatch):
    calls = Counter()
    for name in ("build_routes", "_greedy_spines", "max_link_load"):
        def counting(*args, name=name, original=getattr(routing, name)):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(routing, name, counting)
    for topo, cs in lazy_view_instances()[:40]:
        calls.clear()
        exact_assign(cs, topo)
        assert calls == Counter(build_routes=1)


def test_exact_meets_the_degree_bound_on_forty_commodities():
    topo = build_topology(2, 16, 4, 1, 1.0)
    batch = classify(topo, random_commodities(topo, 40, seed=0))
    assert max_link_load(exact_assign(batch, topo), topo) == degree_bound(batch.kinds, topo)


# -- load accounting and cross-scheme properties ------------------------------


def test_max_link_load_scopes_and_empty():
    topo = build_topology(2, 4, 2, 1, 1.0)
    empty = PathChoice(classify(topo, []), np.empty(0, dtype=np.int64))
    assert max_link_load(empty, topo) == 0
    cs = unit_commodities_for_pairs(topo, [(0, 1), (2, 1)])
    batch = classify(topo, cs)
    assert batch.kinds.inter.tolist() == [True, True]
    forced = PathChoice(batch, np.zeros(len(cs), dtype=np.int64))
    assert max_link_load(forced, topo) == 2  # both down spine 0 to ToR 1
    assert link_loads(forced, topo).max() == 2


@pytest.mark.parametrize("scheme", SCHEME_NAMES)
def test_a_scheme_reads_a_lists_endpoints_once(scheme, monkeypatch):
    """A scheme reads a list into a batch once, at its top, and works on the
    batch alone: one endpoint read per call, and none for its choice's load."""
    topo = fail_spines(build_topology(4, 6, 2, 2, 1.0), 1, seed=3)
    cs = random_commodities(topo, 12, seed=4)  # all inter-ToR
    reads = []
    read = topology._read_endpoints

    def counting(items):
        reads.append(len(items))
        return read(items)

    monkeypatch.setattr(topology, "_read_endpoints", counting)
    choice = assign_by_scheme(scheme, cs, topo, seed=2)
    assert reads == [len(cs)]
    assert max_link_load(choice, topo) >= 1
    assert reads == [len(cs)]


def test_max_tor_degree_counts_inter_tor_commodities_only():
    from closroute.topology import Endpoint
    from closroute.workload import CommoditySpec

    topo = build_topology(2, 4, 2, 2, 1.0)
    cs = unit_commodities_for_pairs(topo, [(0, 1), (0, 2), (3, 2), (1, 2)])
    local = CommoditySpec("x", "j", Endpoint(2, 0, 0), Endpoint(2, 1, 0), 1)
    degree = lambda commodities: max_tor_degree(classify(topo, commodities).kinds)  # noqa: E731
    assert degree(cs) == degree(cs + [local]) == 3  # into ToR 2
    assert degree([local]) == degree([]) == 0


def test_all_schemes_emit_complete_valid_choices():
    topo, cs = random_unit_instance(77, max_tors=6, max_spines=3, max_commodities=12)
    for scheme in ("greedy", "ecmp", "edge_coloring", "annealing", "exact"):
        choice = assign_by_scheme(scheme, cs, topo, seed=5)
        assert_choice_valid(choice, cs, topo)


def test_greedy_two_approximation_and_coloring_optimality():
    for seed in range(300):
        topo, cs = random_unit_instance(seed * 13 + 1)
        greedy_load = max_link_load(greedy_assign(cs, topo), topo)
        exact_load = max_link_load(exact_assign(cs, topo), topo)
        coloring = max_link_load(edge_color_assign(cs, topo), topo)
        assert greedy_load <= 2 * exact_load
        assert coloring == exact_load == spine_degree_bound(cs, len(topo.live_spines))


@pytest.mark.parametrize("scheme", SCHEME_NAMES)
def test_off_fabric_endpoint_fails_in_every_scheme(scheme, fig_topo):
    # on 4 ToRs of 2 single-NIC hosts, beside a commodity that fits
    ok = CommoditySpec("ok", "j", Endpoint(1, 0, 0), Endpoint(2, 0, 0), 1)
    home = Endpoint(0, 0, 0)
    for off in (Endpoint(5, 0, 0), Endpoint(9, 0, 0), Endpoint(0, 2, 0), Endpoint(1, 0, 1)):
        for end, c in (("dst", CommoditySpec("x", "j", home, off, 1)),
                       ("src", CommoditySpec("x", "j", off, home, 1))):
            with pytest.raises(ValueError, match=f"commodity x: {end} endpoint {off} is off"):
                assign_by_scheme(scheme, [ok, c], fig_topo, seed=1)


@st.composite
def tor_multigraphs(draw):
    """A fabric with some spines failed and unit commodities for a ToR demand
    multigraph with parallel edges; each ToR has a NIC per edge it carries."""
    tors = draw(st.integers(2, 6))
    pair = st.tuples(st.integers(0, tors - 1), st.integers(0, tors - 1)).filter(
        lambda p: p[0] != p[1]
    )
    pairs = draw(st.lists(pair, min_size=1, max_size=30))
    degree = max(Counter(u for u, _ in pairs).most_common(1)[0][1],
                 Counter(v for _, v in pairs).most_common(1)[0][1])
    topo = build_topology(draw(st.integers(1, 4)), tors, degree, 1, 1.0)
    topo = fail_spines(topo, draw(st.integers(0, topo.num_spines - 1)), draw(st.integers(0, 99)))
    return topo, unit_commodities_for_pairs(topo, pairs), degree


@settings(derandomize=True, max_examples=200, deadline=None)
@given(tor_multigraphs())
def test_coloring_load_is_degree_over_live_spines(case):
    topo, cs, degree = case
    choice = edge_color_assign(cs, topo)
    assert_choice_valid(choice, cs, topo)
    assert max_link_load(choice, topo) == math.ceil(degree / len(topo.live_spines))


def scan_coloring(commodities, topo):
    """Reference edge coloring of the ToR demand multigraph: each inter-ToR
    commodity in order takes the first color free at both its ToRs, scanning
    colors in ascending order, or else swaps alpha (first free at the source)
    and beta (first free at the destination) along the alpha/beta chain from
    the destination and takes alpha. Returns each inter-ToR commodity's color
    and the number of chains swapped."""
    inter = [c for c in commodities if c.src.tor != c.dst.tor]
    # vertices: source ToR t is t, destination ToR t is T + t
    edges = [(c.src.tor, topo.num_tors + c.dst.tor) for c in inter]
    colors = range(max(Counter(x for edge in edges for x in edge).values(), default=0))
    # table[x][c]: the edge colored c at vertex x, -1 if c is free there
    table = [[-1 for _ in colors] for _ in range(2 * topo.num_tors)]
    color = [0] * len(edges)
    chains = 0
    for e, (u, v) in enumerate(edges):
        at_u, at_v = table[u], table[v]
        c = next((c for c in colors if at_u[c] < 0 and at_v[c] < 0), -1)
        if c < 0:
            chains += 1
            alpha, beta = at_u.index(-1), at_v.index(-1)
            x, want = v, alpha
            while True:
                row = table[x]
                f = row[want]
                row[alpha], row[beta] = row[beta], row[alpha]
                if f < 0:
                    break
                color[f] = alpha + beta - want
                x = edges[f][1] if x == edges[f][0] else edges[f][0]
                want = alpha + beta - want
            c = alpha
        color[e] = c
        at_u[c] = at_v[c] = e
    return color, chains


@st.composite
def regular_multigraphs(draw):
    """A fabric with some spines failed and unit commodities, in shuffled
    order, for the union of a few ToR permutations: a demand multigraph of
    max degree above the live spine count, dense enough that first-fit
    coloring often finds no color free at both ends."""
    tors = draw(st.integers(4, 10))
    topo = build_topology(draw(st.integers(1, 4)), tors, 1, 1, 1.0)
    topo = fail_spines(topo, draw(st.integers(0, topo.num_spines - 1)), draw(st.integers(0, 99)))
    live = len(topo.live_spines)
    count = draw(st.integers(live + 1, live + 4))
    perms = [draw(st.permutations(range(tors))) for _ in range(count)]
    pairs = draw(st.permutations([(u, v) for p in perms for u, v in enumerate(p) if u != v]))
    degree = max((max(Counter(ends).values()) for ends in zip(*pairs)), default=0)
    assume(degree > live)
    topo = replace(topo, hosts_per_tor=degree)
    return topo, unit_commodities_for_pairs(topo, pairs), degree


def test_coloring_matches_scan_and_kempe_reference():
    chains = []

    # no shrinking: a broken chain swap can loop forever on the inputs the
    # shrinker tries, so the first failing example is reported as drawn
    @settings(derandomize=True, max_examples=200, deadline=None, phases=[Phase.generate])
    @given(regular_multigraphs())
    def check(case):
        topo, cs, degree = case
        live = topo.live_spines
        color, swapped = scan_coloring(cs, topo)
        choice = edge_color_assign(cs, topo)
        assert [choice.assignment[c.id].spine for c in cs] == [live[k % len(live)] for k in color]
        # proper: no ToR sends or receives two commodities of one color
        for tor_of in (lambda c: c.src.tor, lambda c: c.dst.tor):
            assert len({(tor_of(c), k) for c, k in zip(cs, color)}) == len(cs)
        assert max(color) < degree
        assert max_link_load(choice, topo) == math.ceil(degree / len(live))
        chains.append(swapped)

    check()
    # the examples must reach the chain swap often: the pinned input families
    # reach it 16 times in all, every one of them in "unit"
    assert sum(chains) >= 100


@st.composite
def unit_instances(draw, max_pairs=12):
    """Up to max_pairs distinct ToR pairs, on a fabric with some spines
    failed."""
    tors = draw(st.integers(2, 8))
    pair = st.tuples(st.integers(0, tors - 1), st.integers(0, tors - 1)).filter(
        lambda p: p[0] != p[1]
    )
    pairs = draw(st.lists(pair, min_size=1, max_size=max_pairs, unique=True))
    topo = build_topology(draw(st.integers(1, 4)), tors, tors, 1, 1.0)
    topo = fail_spines(topo, draw(st.integers(0, topo.num_spines - 1)), draw(st.integers(0, 99)))
    return topo, unit_commodities_for_pairs(topo, pairs)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(unit_instances())
def test_greedy_within_twice_exact(case):
    topo, cs = case
    exact = max_link_load(exact_assign(cs, topo), topo)
    assert max_link_load(greedy_assign(cs, topo), topo) <= 2 * exact


def recursive_exact_spines(kinds, topo, limit):
    """The exact search as a recursive depth-first search, the reference for
    ``routing._exact_spines``: per commodity, the live spines in ascending
    order, each admitted while both of its links stay within the degree bound.
    Returns the first spine vector at the bound, or None once it has placed
    more than limit spines."""
    live = topo.live_spines
    src_tor, dst_tor = kinds.src_tor[kinds.inter].tolist(), kinds.dst_tor[kinds.inter].tolist()
    bound = degree_bound(kinds, topo)
    loads, chosen, placed = Counter(), [], 0

    def dfs(pos: int) -> bool:
        nonlocal placed
        if pos == len(src_tor):
            return True
        for s in live:
            links = (("up", src_tor[pos], s), ("down", s, dst_tor[pos]))
            if all(loads[link] < bound for link in links):
                placed += 1
                if placed > limit:
                    return False
                loads.update(links)
                chosen.append(s)
                if dfs(pos + 1):
                    return True
                chosen.pop()
                loads.subtract(links)
        return False

    return chosen if dfs(0) else None


# random instances of up to 56 commodities on which the search runs past its
# budget (13 and 19 commodities), and one of 49 on which it does not
PAST_THE_BUDGET = [random_unit_instance(seed, max_commodities=56) for seed in (2192, 2814)]
WITHIN_THE_BUDGET = random_unit_instance(0, max_commodities=56)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(unit_instances(max_pairs=40))
@example(PAST_THE_BUDGET[0])
@example(PAST_THE_BUDGET[1])
@example(WITHIN_THE_BUDGET)
def test_exact_search_is_the_recursive_one_within_its_budget(case):
    """Within ``_EXACT_PLACEMENTS * (n + 16)`` placements the search returns
    the recursive search's vector, and past them edge coloring's."""
    topo, cs = case
    kinds = classify(topo, cs).kinds
    budget = routing._EXACT_PLACEMENTS * (int(kinds.inter.sum()) + 16)
    reference = recursive_exact_spines(kinds, topo, budget)
    expected = routing._color_spines(kinds, topo) if reference is None else reference
    assert routing._exact_spines(kinds, topo) == expected


def test_the_pinned_instances_run_past_the_budget_or_not():
    for (topo, cs), past in zip([*PAST_THE_BUDGET, WITHIN_THE_BUDGET], (True, True, False)):
        kinds = classify(topo, cs).kinds
        budget = routing._EXACT_PLACEMENTS * (int(kinds.inter.sum()) + 16)
        assert (recursive_exact_spines(kinds, topo, budget) is None) == past
    assert len(WITHIN_THE_BUDGET[1]) > 16


@settings(derandomize=True, max_examples=100, deadline=None)
@given(unit_instances(max_pairs=40))
@example(WITHIN_THE_BUDGET)
def test_exact_takes_edge_colorings_spines_on_a_budget_of_nothing(case):
    topo, cs = case
    with mock.patch.object(routing, "_EXACT_PLACEMENTS", 0):
        assert exact_assign(cs, topo).spine.tolist() == edge_color_assign(cs, topo).spine.tolist()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(unit_instances(max_pairs=40))
@example(PAST_THE_BUDGET[0])
@example(PAST_THE_BUDGET[1])
@example(WITHIN_THE_BUDGET)
def test_exact_meets_the_degree_bound(case):
    topo, cs = case
    batch = classify(topo, cs)
    assert max_link_load(exact_assign(batch, topo), topo) == degree_bound(batch.kinds, topo)


def ring_shaped_instance(num_tors: int, rings: int, seed: int):
    """The shape of the ring all-reduce sets on which the search runs past its
    budget: rings of 8 ToRs, each ToR on at most 4 of them, every ring edge
    8 times over (8 rings through the same ToRs), on 32 spines. Each ToR that
    4 rings cross has degree 32, so the degree bound is 1."""
    rng = random.Random(seed)
    crossings = Counter()
    pairs = []
    for _ in range(rings):
        ring = rng.sample([t for t in range(num_tors) if crossings[t] < 4], 8)
        crossings.update(ring)
        pairs += [(ring[i], ring[(i + 1) % 8]) for i in range(8)] * 8
    topo = build_topology(32, num_tors, 4, 8, 1.0)
    return topo, unit_commodities_for_pairs(topo, pairs)


def test_exact_finishes_on_the_hard_shape_within_five_seconds():
    """2,944 commodities: a recursive search would exceed Python's recursion
    limit, and an unbounded one did not finish in minutes."""
    topo, cs = ring_shaped_instance(128, 46, seed=0)
    batch = classify(topo, cs)
    assert len(cs) == 2944 and degree_bound(batch.kinds, topo) == 1
    start = time.perf_counter()
    choice = exact_assign(batch, topo)
    assert time.perf_counter() - start < 5.0
    assert choice.spine.tolist() == edge_color_assign(batch, topo).spine.tolist()
    assert max_link_load(choice, topo) == 1


def test_exact_meets_the_degree_bound_on_the_decision_replay_sets(monkeypatch):
    """The benchmark's 28 ring all-reduce sets, of 96 to 5,376 inter-ToR
    commodities on the 8192-GPU fabric, intact and with 8 spines failed."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "benchmarks"))
    import workloads

    replay = workloads.DecisionReplay(seed=0, out_dir="")
    assert len(replay.sets) == 28
    for members, topo in replay.sets:
        batch = classify(topo, replay.commodities(members, 0))
        bound = degree_bound(batch.kinds, topo)
        assert max_link_load(exact_assign(batch, topo), topo) == bound


def test_schemes_work_with_failed_spines():
    topo = fail_spines(build_topology(4, 6, 8, 1, 1.0), 2, seed=1)
    cs = unit_commodities_for_pairs(topo, [(0, 1), (0, 2), (1, 2), (3, 0), (4, 5)])
    live = set(topo.live_spines)
    for scheme in ("greedy", "ecmp", "edge_coloring", "annealing", "exact"):
        choice = assign_by_scheme(scheme, cs, topo, seed=2)
        assert {r.spine for r in choice.assignment.values() if r.spine is not None} <= live


# -- pinned choices -----------------------------------------------------------


def ring_edge_instances():
    """Iteration-0 ring edges of one to three jobs placed on small fabrics with
    some spines failed: intra-host, intra-ToR and inter-ToR commodities mixed."""
    instances = []
    for seed in range(40):
        rng = random.Random(seed)
        topo = build_topology(rng.randint(1, 4), rng.randint(2, 4), 2, 4, 1.0)
        occupied, commodities = set(), []
        for j in range(rng.randint(1, 3)):
            model = ModelConfig("m", 1e9, tp=rng.choice([1, 2]), pp=rng.choice([1, 2]))
            dp = rng.randint(2, 4)
            try:
                placement = place_job(topo, model, dp, seed * 10 + j, occupied)
            except ValueError:
                break  # the fabric is full
            occupied.update(placement)
            job = Job(f"j{j}", model, dp, 0.0, 1, placement)
            rings = build_rings(job)
            commodities += [c for ring in rings for c in ring_allreduce_commodities(ring, 0)]
        instances.append((fail_spines(topo, rng.randrange(topo.num_spines), seed), commodities))
    return instances


def bench_instances():
    """Random commodities on the 32 x 64 reference fabric, intact and with 8
    spines failed. At 1500 commodities NIC slots repeat, so greedy's NIC floor
    comes into play."""
    reference = build_topology(32, 64, 4, 8, 1.0)
    instances = []
    for count in (100, 1000, 1500):
        for failed in (0, 8):
            topo = fail_spines(reference, failed, seed=3)
            instances.append((topo, random_commodities(topo, count, seed=count)))
    assert len({c.src for c in instances[-1][1]}) < 1500
    return instances


PINNED_INPUTS = {
    "unit": lambda: [random_unit_instance(seed) for seed in range(200)],
    "bench": bench_instances,
    "rings": ring_edge_instances,
}

# SHA-256 over (commodity id, route kind, spine) of every choice, per input
# family and scheme: identical colourings and spine choices across rewrites
PINNED_CHOICES = {
    "unit": {
        "greedy": "ac9a4eb7de4fe51724c1720764785c68bc8bb707e22565361987ea76738b5cb8",
        "ecmp": "649375972ed365eb5bf199b5c1e62890c7f295e8507b964430c0a294ca775674",
        "edge_coloring": "169422803ba6c863bfab76565dfd121943cf6f4e32f039e677fdf8cd12d92a29",
        "annealing": "24cbfff1c2516975f0e1f2c7ef93acdb322bf16e346b99e46abc174d88291df0",
        "exact": "d6c2a2153761325054b91366a96806ba4446d812194fbbd749029b122f3ba7a3",
    },
    "bench": {
        "greedy": "b2f979f212b1eb1066c6ab8d5bd3426a2c32dd615110d4094c16a61273dac562",
        "ecmp": "b73d4892d2528b4a4939dc438dbc37616c4b385baa0433679bdf39e6fd677e00",
        "edge_coloring": "ea63c84a113f09b209203bc920d3c6d17a8bef893f2957ff509da891d39263a4",
        "annealing": "1ce3a8e36e477cc75df73cd0eb6e0f99fe6d4a1ebfc4832d5472ef1eafaff4c2",
        "exact": "9fe0cc652e4f21763248de8493b8c0a9855f0b41e599c19fc2c90ee3961e6841",
    },
    "rings": {
        "greedy": "bf0c0302b988934f7c6d19111f07d77dc2a948f0fef763f1b3db62889612d316",
        "ecmp": "83f91752d3fe29a298360d54ccf3515c3ece4a835da3b152a56eced408d04e11",
        "edge_coloring": "bf0c0302b988934f7c6d19111f07d77dc2a948f0fef763f1b3db62889612d316",
        "annealing": "c61a1729e59f2cac0b8474b47fee40ea38343a8bd1000098804ad56256662cba",
        "exact": "d61461ff848b8fde80bac018e44c6b99469e43c852ab5c616440cef50f99b067",
    },
}


@pytest.mark.parametrize("family", sorted(PINNED_INPUTS))
def test_scheme_choices_match_pinned_digests(family):
    # annealing runs a short schedule on the large inputs to keep the test fast
    schedule = AnnealSchedule(moves_per_commodity=5 if family == "bench" else 100)
    instances = PINNED_INPUTS[family]()
    digests = {}
    for scheme in SCHEME_NAMES:
        digest = hashlib.sha256()
        for topo, cs in instances:
            choice = assign_by_scheme(scheme, cs, topo, seed=7, anneal_schedule=schedule)
            for c in cs:
                route = choice.assignment[c.id]
                # the kind string of the recorded digests, read off the route
                kind = "intra_tor" if route.links else "intra_host"
                kind = "spine" if route.spine is not None else kind
                digest.update(f"{c.id}|{kind}|{route.spine}\n".encode())
        digests[scheme] = digest.hexdigest()
    assert digests == PINNED_CHOICES[family]


# -- lazy views -----------------------------------------------------------------


def eager_assignment(commodities, spines):
    """Commodity id -> Route, built up front from build_routes' arguments: the
    next of spines for an inter-ToR commodity, no spine otherwise."""
    spine = iter(spines)
    return {c.id: Route(next(spine) if c.src.tor != c.dst.tor else None, c.src, c.dst)
            for c in commodities}


def lazy_view_instances():
    """Random unit instances, mixed ring edges on fabrics with failed spines,
    and random commodities on a fabric with half its spines failed."""
    failed = fail_spines(build_topology(6, 8, 2, 2, 1.0), 3, seed=1)
    return ([random_unit_instance(seed) for seed in range(30)] + ring_edge_instances()[:12]
            + [(failed, random_commodities(failed, n, seed=n)) for n in (5, 14, 40)])


@pytest.mark.parametrize("scheme", SCHEME_NAMES)
def test_lazy_views_match_eager_builds(scheme, monkeypatch):
    build = routing.build_routes
    calls = []

    def recording(commodities, spines):
        calls.append((commodities, list(spines)))
        return build(commodities, calls[-1][1])

    monkeypatch.setattr(routing, "build_routes", recording)
    for topo, cs in lazy_view_instances():
        choice = assign_by_scheme(scheme, cs, topo, seed=7)
        # the result is the last choice the scheme built
        assert repr(choice.assignment) == repr(eager_assignment(*calls[-1]))
        assert all(type(r) is Route for r in choice.assignment.values())
        assert choice.spine.dtype == np.int64
        assert choice.spine.tolist() == [
            -1 if r.spine is None else r.spine for r in choice.assignment.values()
        ]
        assert np.array_equal(choice.link_rows(topo),
                              route_link_rows(topo, choice.assignment.values()))
        alloc = waterfill(list(choice.assignment.items()), topo)
        assert list(alloc.rates) == [c.id for c in cs]
        assert alloc.rate.tobytes() == np.array(list(alloc.rates.values())).tobytes()
        ids = np.array([c.id for c in cs], dtype=object)
        by_rows = waterfill(LinkRows(ids, choice.link_rows(topo)), topo)
        assert by_rows.cids is ids and by_rows.rate.tobytes() == alloc.rate.tobytes()


# -- the generators against their per-function references ---------------------


def reference_unit_commodities_for_pairs(topo, pairs):
    """``unit_commodities_for_pairs`` with its own NIC-slot counts, refusing a
    self-pair or a ToR past its slots at the first pair that shows it."""
    out_rank, in_rank = {}, {}
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


def reference_random_unit_instance(seed, max_tors=8, max_spines=4, max_commodities=14):
    """``random_unit_instance`` sampling from a list of every ordered ToR pair:
    T(T - 1) tuples, so only for small max_tors."""
    rng = random.Random(seed)
    num_tors = rng.randint(2, max_tors)
    num_spines = rng.randint(1, max_spines)
    all_pairs = [(u, v) for u in range(num_tors) for v in range(num_tors) if u != v]
    count = rng.randint(1, min(max_commodities, len(all_pairs)))
    pairs = rng.sample(all_pairs, count)
    topo = build_topology(num_spines, num_tors, hosts_per_tor=max_tors, nics_per_host=1,
                          link_capacity=1.0)
    return topo, reference_unit_commodities_for_pairs(topo, pairs)


def reference_random_commodities(topo, count, seed):
    """``random_commodities`` with its own NIC-slot counts, cycling each ToR's slots."""
    rng = random.Random(seed)
    out_rank, in_rank = {}, {}
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


def outcome(make, *args):
    """What make(*args) gives, as text: its repr, or its ValueError's message."""
    try:
        return repr(make(*args))
    except ValueError as exc:
        return f"ValueError: {exc}"


small_fabrics = st.builds(build_topology, st.integers(1, 4), st.integers(2, 6),
                          st.integers(1, 3), st.integers(1, 3), st.just(1.0))
ONE_SLOT = build_topology(2, 3, 1, 1, 1.0)


@st.composite
def fabrics_and_pairs(draw):
    """A small fabric and up to 24 ToR pairs on it, self-pairs and ToRs with
    more pairs than NIC slots among them."""
    topo = draw(small_fabrics)
    tor = st.integers(0, topo.num_tors - 1)
    pairs = draw(st.lists(st.tuples(tor, tor).filter(lambda p: p[0] != p[1]), max_size=24))
    if draw(st.booleans()):
        self_pair = (draw(tor),) * 2
        pairs.insert(draw(st.integers(0, len(pairs))), self_pair)
    return topo, pairs


@settings(derandomize=True, max_examples=400, deadline=None)
@given(fabrics_and_pairs())
@example((ONE_SLOT, []))
@example((ONE_SLOT, [(0, 1), (1, 0), (2, 0)]))
@example((ONE_SLOT, [(0, 1), (0, 2)]))  # ToR 0 sends past its one slot
@example((ONE_SLOT, [(0, 2), (1, 2)]))  # ToR 2 receives past it
@example((ONE_SLOT, [(1, 1)]))
@example((ONE_SLOT, [(0, 1), (0, 2), (1, 1)]))  # both faults, the self-pair last
@example((build_topology(1, 4, 2, 2, 1.0), [(0, v % 3 + 1) for v in range(12)]))
def test_unit_commodities_for_pairs_is_its_reference(case):
    """The same commodities or the same refusal, except that a list with both
    faults is refused for its self-pair, wherever it stands."""
    topo, pairs = case
    expected = outcome(reference_unit_commodities_for_pairs, topo, pairs)
    if any(u == v for u, v in pairs):
        expected = "ValueError: pairs must connect distinct ToRs"
    assert outcome(unit_commodities_for_pairs, topo, pairs) == expected


@settings(derandomize=True, max_examples=300, deadline=None)
@given(small_fabrics, st.integers(0, 60), st.integers(0, 2**32))
@example(ONE_SLOT, 0, 0)
@example(ONE_SLOT, 40, 3)  # every ToR's one slot reused
@example(build_topology(4, 6, 3, 2, 1.0), 60, 7)
def test_random_commodities_is_its_reference(topo, count, seed):
    assert repr(random_commodities(topo, count, seed)) == repr(
        reference_random_commodities(topo, count, seed))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(0, 2**32), st.integers(2, 12), st.integers(1, 5), st.integers(1, 40))
@example(0, 2, 1, 1)
@example(0, 8, 4, 14)
@example(7, 12, 5, 132)  # up to every ordered pair of 12 ToRs
def test_random_unit_instance_is_its_reference(seed, max_tors, max_spines, most):
    assert repr(random_unit_instance(seed, max_tors, max_spines, most)) == repr(
        reference_random_unit_instance(seed, max_tors, max_spines, most))


def test_random_unit_instance_on_a_hundred_thousand_tors_takes_under_a_second():
    """It draws pair indices, where listing every ordered pair would take
    about 10^10 tuples."""
    start = time.perf_counter()
    topo, cs = random_unit_instance(0, max_tors=10**5)
    assert time.perf_counter() - start < 1.0
    assert topo.hosts_per_tor == 10**5 and 1 <= len(cs) <= 14
    assert all(c.src.tor != c.dst.tor for c in cs)
