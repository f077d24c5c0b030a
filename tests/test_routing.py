import itertools
import math
import random

import pytest

from closroute.routing import (
    ALL_LINKS,
    SPINE_LINKS_ONLY,
    AnnealSchedule,
    PathChoice,
    anneal_assign,
    assign_by_scheme,
    decompose_components,
    ecmp_assign,
    edge_color_assign,
    exact_assign,
    greedy_assign,
    load_map,
    max_link_load,
    random_commodities,
    random_unit_instance,
    unit_commodities_for_pairs,
)
from closroute.topology import SPINE, build_topology, enumerate_routes, fail_spines

FIG_PAIRS = [(0, 1), (1, 0), (1, 2), (2, 0)]  # the 4-ToR worked example demands


@pytest.fixture()
def fig_topo():
    return build_topology(2, 4, 2, 1, 1.0)


@pytest.fixture()
def fig_commodities(fig_topo):
    return unit_commodities_for_pairs(fig_topo, FIG_PAIRS)


def brute_force_min_max_load(commodities, topo):
    """Independent oracle: enumerate every spine vector, no pruning."""
    live = topo.live_spines
    inter = [c for c in commodities if c.src.tor != c.dst.tor]
    best = math.inf
    for vector in itertools.product(live, repeat=len(inter)):
        loads = {}
        for c, s in zip(inter, vector):
            for link in ((c.src.tor, "u", s), (s, "d", c.dst.tor)):
                loads[link] = loads.get(link, 0) + 1
        best = min(best, max(loads.values(), default=0))
    return 0 if best is math.inf else best


def spine_degree_bound(commodities, live_spines):
    out_deg, in_deg = {}, {}
    for c in commodities:
        if c.src.tor == c.dst.tor:
            continue
        out_deg[c.src.tor] = out_deg.get(c.src.tor, 0) + 1
        in_deg[c.dst.tor] = in_deg.get(c.dst.tor, 0) + 1
    degrees = list(out_deg.values()) + list(in_deg.values())
    return math.ceil(max(degrees) / live_spines) if degrees else 0


def assert_choice_valid(choice, commodities, topo):
    assert set(choice.assignment) == {c.id for c in commodities}
    for c in commodities:
        assert choice.assignment[c.id] in enumerate_routes(topo, c.src, c.dst)


# -- greedy -------------------------------------------------------------------


def test_greedy_on_worked_example_is_disjoint(fig_topo, fig_commodities):
    choice = greedy_assign(fig_commodities, fig_topo)
    spines = [choice.assignment[c.id].spine for c in fig_commodities]
    assert spines == [0, 0, 1, 1]  # hand-run of the least-congested scan
    assert max_link_load(choice, fig_topo, SPINE_LINKS_ONLY) == 1
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
    loads = load_map(choice)
    up = sorted(
        count for link, count in loads.items() if link[0] == ("tor", 0) and link[1][0] == "spine"
    )
    assert up == [1, 2]
    assert max_link_load(choice, topo, SPINE_LINKS_ONLY) == 2


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
    assert max_link_load(choice, topo, ALL_LINKS) == 2  # the shared NIC up-link


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
    topo = build_topology(2, 4, 2, 2, 1.0)
    from closroute.workload import CommoditySpec
    from closroute.topology import Endpoint

    intra = CommoditySpec("x", "j", Endpoint(0, 0, 0), Endpoint(0, 1, 0), 1)
    inter = unit_commodities_for_pairs(topo, [(0, 1), (0, 2)])
    parts = decompose_components([intra] + inter)
    assert [[c.id for c in p] for p in parts] == [["x"], ["c0", "c1"]]


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


# -- ecmp ---------------------------------------------------------------------


def test_ecmp_collision_seed_matches_example(fig_topo, fig_commodities):
    choice = ecmp_assign(fig_commodities, fig_topo, seed=1)
    s_out_1 = choice.assignment["c1"].spine
    s_out_2 = choice.assignment["c2"].spine
    assert s_out_1 == s_out_2  # ToR 1's two flows contend on one up-link
    loads = load_map(choice)
    assert loads[(("tor", 1), ("spine", s_out_1))] == 2


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
    assert max_link_load(choice, fig_topo, SPINE_LINKS_ONLY) == 1
    assert_choice_valid(choice, fig_commodities, fig_topo)


def test_coloring_single_commodity():
    topo = build_topology(4, 4, 1, 1, 1.0)
    cs = unit_commodities_for_pairs(topo, [(2, 3)])
    choice = edge_color_assign(cs, topo)
    assert choice.assignment[cs[0].id].spine == 0
    assert max_link_load(choice, topo, SPINE_LINKS_ONLY) == 1


def test_coloring_achieves_degree_bound_with_fewer_spines():
    # max degree 7 over 3 live spines: ceil(7/3) = 3
    topo = build_topology(3, 8, 8, 1, 1.0)
    pairs = [(0, v) for v in range(1, 8)]
    cs = unit_commodities_for_pairs(topo, pairs)
    choice = edge_color_assign(cs, topo)
    assert max_link_load(choice, topo, SPINE_LINKS_ONLY) == 3


def test_coloring_always_hits_degree_bound_on_random_instances():
    for seed in range(200):
        topo, cs = random_unit_instance(seed, max_tors=8, max_spines=4, max_commodities=14)
        choice = edge_color_assign(cs, topo)
        bound = spine_degree_bound(cs, len(topo.live_spines))
        assert max_link_load(choice, topo, SPINE_LINKS_ONLY) == bound
        assert_choice_valid(choice, cs, topo)


# -- annealing ----------------------------------------------------------------


def test_anneal_zero_moves_is_ecmp(fig_topo, fig_commodities):
    schedule = AnnealSchedule(moves_per_commodity=0)
    assert anneal_assign(fig_commodities, fig_topo, schedule, seed=3) == ecmp_assign(
        fig_commodities, fig_topo, seed=3
    )


def test_anneal_finds_optimum_of_small_search_space(fig_topo, fig_commodities):
    schedule = AnnealSchedule(moves_per_commodity=250)  # 1000 moves over 4 commodities
    choice = anneal_assign(fig_commodities, fig_topo, schedule, seed=0)
    assert max_link_load(choice, fig_topo, SPINE_LINKS_ONLY) == 1


def test_anneal_never_worse_than_its_ecmp_start():
    def energy(choice):
        loads = load_map(choice)
        return (max(loads.values()), sum(v * v for v in loads.values()))

    for seed in range(10):
        topo, cs = random_unit_instance(seed + 500, max_tors=6, max_spines=4)
        start = energy(ecmp_assign(cs, topo, seed))
        end = energy(anneal_assign(cs, topo, AnnealSchedule(), seed))
        assert end <= start


def test_anneal_deterministic_per_seed(fig_topo, fig_commodities):
    a = anneal_assign(fig_commodities, fig_topo, AnnealSchedule(), seed=9)
    b = anneal_assign(fig_commodities, fig_topo, AnnealSchedule(), seed=9)
    assert a == b


# -- exact --------------------------------------------------------------------


def test_exact_on_worked_example(fig_topo, fig_commodities):
    choice = exact_assign(fig_commodities, fig_topo)
    assert max_link_load(choice, fig_topo, SPINE_LINKS_ONLY) == 1
    assert_choice_valid(choice, fig_commodities, fig_topo)


def test_exact_single_commodity_prefers_spine_zero():
    topo = build_topology(4, 4, 1, 1, 1.0)
    cs = unit_commodities_for_pairs(topo, [(1, 2)])
    choice = exact_assign(cs, topo)
    assert choice.assignment[cs[0].id].spine == 0
    assert max_link_load(choice, topo, SPINE_LINKS_ONLY) == 1


def test_exact_matches_no_pruning_enumeration():
    rng = random.Random(2024)
    for _ in range(40):
        topo, cs = random_unit_instance(rng.randrange(10**6), max_tors=6, max_spines=3,
                                        max_commodities=10)
        bnb = max_link_load(exact_assign(cs, topo), topo, SPINE_LINKS_ONLY)
        assert bnb == brute_force_min_max_load(cs, topo)


def test_exact_guard_rejects_large_instances():
    topo = build_topology(2, 16, 4, 1, 1.0)
    cs = random_commodities(topo, 40, seed=0)
    with pytest.raises(ValueError):
        exact_assign(cs, topo, max_commodities=16)


# -- load accounting and cross-scheme properties ------------------------------


def test_max_link_load_scopes_and_empty():
    topo = build_topology(2, 4, 2, 1, 1.0)
    assert max_link_load(PathChoice({}), topo) == 0
    cs = unit_commodities_for_pairs(topo, [(0, 1), (2, 1)])
    forced = PathChoice(
        {c.id: enumerate_routes(topo, c.src, c.dst)[0] for c in cs}
    )  # both on spine 0
    assert max_link_load(forced, topo, SPINE_LINKS_ONLY) == 2
    assert max_link_load(forced, topo, ALL_LINKS) == 2


def test_all_schemes_emit_complete_valid_choices():
    topo, cs = random_unit_instance(77, max_tors=6, max_spines=3, max_commodities=12)
    for scheme in ("greedy", "ecmp", "edge_coloring", "annealing", "exact"):
        choice = assign_by_scheme(scheme, cs, topo, seed=5)
        assert_choice_valid(choice, cs, topo)


def test_greedy_two_approximation_and_coloring_optimality():
    for seed in range(300):
        topo, cs = random_unit_instance(seed * 13 + 1)
        greedy_load = max_link_load(greedy_assign(cs, topo), topo, SPINE_LINKS_ONLY)
        exact_load = max_link_load(exact_assign(cs, topo), topo, SPINE_LINKS_ONLY)
        coloring = max_link_load(edge_color_assign(cs, topo), topo, SPINE_LINKS_ONLY)
        assert greedy_load <= 2 * exact_load
        assert coloring == exact_load == spine_degree_bound(cs, len(topo.live_spines))


def test_schemes_work_with_failed_spines():
    topo = fail_spines(build_topology(4, 6, 8, 1, 1.0), 2, seed=1)
    cs = unit_commodities_for_pairs(topo, [(0, 1), (0, 2), (1, 2), (3, 0), (4, 5)])
    live = set(topo.live_spines)
    for scheme in ("greedy", "ecmp", "edge_coloring", "annealing", "exact"):
        choice = assign_by_scheme(scheme, cs, topo, seed=2)
        assert {r.spine for r in choice.assignment.values() if r.kind == SPINE} <= live
