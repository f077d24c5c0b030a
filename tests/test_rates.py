import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closroute.rates import FEASIBILITY_RTOL, LinkRows, waterfill
from closroute.routing import (
    greedy_assign,
    max_link_load,
    random_unit_instance,
    unit_commodities_for_pairs,
)
from closroute.topology import (
    INTRA_HOST,
    INTRA_TOR,
    Endpoint,
    Route,
    build_topology,
    route_link_rows,
    spine_route,
)


def flows_for(choice):
    return sorted(choice.assignment.items())


def exact_fill(flows, capacity):
    """Plain progressive filling in exact rationals, for flows that cross
    links: raise every unfrozen flow to the smallest fair share of a link,
    freeze the flows on the links at that share, repeat."""
    links = {cid: route.links for cid, route in flows if route.links}
    residual = {link: Fraction(capacity) for path in links.values() for link in path}
    rates = {}
    while len(rates) < len(links):
        count = {}
        for cid, path in links.items():
            if cid not in rates:
                for link in path:
                    count[link] = count.get(link, 0) + 1
        level = min(residual[link] / n for link, n in count.items())
        newly = [
            cid for cid, path in links.items()
            if cid not in rates and any(residual[link] / count[link] == level for link in path)
        ]
        for cid in newly:
            rates[cid] = level
            for link in links[cid]:
                residual[link] -= level
    return rates


def link_usage(flows, rates):
    usage = {}
    for cid, route in flows:
        for link in route.links:
            usage[link] = usage.get(link, 0.0) + rates[cid]
    return usage


def test_two_flows_share_a_unit_link_evenly():
    topo = build_topology(2, 4, 2, 1, 1.0)
    cs = unit_commodities_for_pairs(topo, [(1, 0), (1, 2)])
    # force both onto spine 0 so they share the ToR-1 up-link
    from closroute.topology import spine_route

    flows = [(c.id, spine_route(c.src, c.dst, 0)) for c in cs]
    alloc = waterfill(flows, topo)
    assert alloc.rates == {"c0": 0.5, "c1": 0.5}


def test_lone_flow_gets_line_rate():
    topo = build_topology(2, 4, 2, 1, 100e9)
    cs = unit_commodities_for_pairs(topo, [(0, 1)])
    route = spine_route(cs[0].src, cs[0].dst, 0)
    alloc = waterfill([(cs[0].id, route)], topo)
    assert alloc.rates[cs[0].id] == 100e9


def test_three_flow_bottleneck_chain():
    # A and B share one link, C is alone: hand-run progressive filling gives
    # A=B=0.5 and C=1.0
    topo = build_topology(2, 6, 1, 1, 1.0)
    from closroute.topology import spine_route

    a = ("A", spine_route(Endpoint(0, 0, 0), Endpoint(2, 0, 0), 0))
    b = ("B", spine_route(Endpoint(1, 0, 0), Endpoint(2, 0, 0), 0))  # shares spine0->ToR2
    c = ("C", spine_route(Endpoint(3, 0, 0), Endpoint(4, 0, 0), 1))
    alloc = waterfill([a, b, c], topo)
    assert alloc.rates == {"A": 0.5, "B": 0.5, "C": 1.0}


def test_intra_host_flows_get_infinite_sentinel():
    topo = build_topology(2, 4, 2, 2, 1.0)
    route = Route(INTRA_HOST, None, Endpoint(0, 0, 0), Endpoint(0, 0, 1))
    alloc = waterfill([("local", route)], topo)
    assert math.isinf(alloc.rates["local"])


def test_empty_input_is_empty_allocation():
    topo = build_topology(2, 4, 1, 1, 1.0)
    assert waterfill([], topo).rates == {}


def test_order_invariance():
    topo = build_topology(4, 8, 4, 2, 1.0)
    from closroute.routing import random_commodities

    cs = random_commodities(topo, 64, seed=3)
    flows = flows_for(greedy_assign(cs, topo))
    base = waterfill(flows, topo).rates
    rng = random.Random(0)
    for _ in range(5):
        shuffled = flows.copy()
        rng.shuffle(shuffled)
        assert waterfill(shuffled, topo).rates == base


def test_feasibility_and_bottleneck_consistency():
    for seed in range(25):
        topo, cs = random_unit_instance(seed + 900, max_tors=8, max_spines=4)
        flows = flows_for(greedy_assign(cs, topo))
        rates = waterfill(flows, topo).rates
        usage = link_usage(flows, rates)
        cap = topo.link_capacity
        for link, used in usage.items():
            assert used <= cap * (1 + FEASIBILITY_RTOL)
        # every flow is limited by at least one saturated link on its path
        for cid, route in flows:
            saturated = [
                link for link in route.links if usage[link] >= cap * (1 - 1e-9)
            ]
            assert saturated, f"flow {cid} has spare capacity everywhere"


def test_max_min_certificate():
    # classic optimality certificate: every flow crosses a saturated link on
    # which it is among the largest sharers, so raising it must lower an
    # equal-or-smaller flow
    for seed in (123, 321, 999):
        topo, cs = random_unit_instance(seed, max_tors=6, max_spines=3)
        flows = flows_for(greedy_assign(cs, topo))
        rates = waterfill(flows, topo).rates
        usage = link_usage(flows, rates)
        on_link = {}
        for cid, route in flows:
            for link in route.links:
                on_link.setdefault(link, []).append(cid)
        cap = topo.link_capacity
        for cid, route in flows:
            certified = False
            for link in route.links:
                if usage[link] >= cap * (1 - 1e-9):
                    if rates[cid] >= max(rates[o] for o in on_link[link]) - 1e-12:
                        certified = True
                        break
            assert certified, f"flow {cid} lacks a max-min bottleneck"


@st.composite
def fabric_flows(draw):
    """A small fabric and up to 40 flows on spine, intra-ToR and intra-host
    routes, each spine route on a spine drawn at random."""
    topo = build_topology(
        draw(st.integers(1, 4)), draw(st.integers(2, 5)), draw(st.integers(1, 3)),
        draw(st.integers(1, 3)), draw(st.sampled_from([1.0, 3.0, 100e9])),
    )
    endpoints = list(topo.endpoints())
    pick = st.integers(0, len(endpoints) - 1)
    flows = []
    for i in range(draw(st.integers(1, 40))):
        src = endpoints[draw(pick)]
        kind = draw(st.sampled_from(["host", "tor", "any"]))
        if kind == "host" and topo.nics_per_host > 1:
            dst = Endpoint(src.tor, src.host, (src.nic + 1) % topo.nics_per_host)
        elif kind == "tor" and topo.hosts_per_tor > 1:
            dst = Endpoint(src.tor, (src.host + 1) % topo.hosts_per_tor, src.nic)
        else:
            dst = endpoints[draw(pick)]
            if dst == src:
                continue
        if src.tor != dst.tor:
            route = spine_route(src, dst, draw(st.integers(0, topo.num_spines - 1)))
        else:
            route = Route(INTRA_HOST if src.host == dst.host else INTRA_TOR, None, src, dst)
        flows.append((f"f{i}", route))
    return topo, flows, draw(st.randoms(use_true_random=False))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(fabric_flows())
def test_waterfill_is_feasible_max_min_and_order_free(case):
    topo, flows, rng = case
    rates = waterfill(flows, topo).rates
    assert list(rates) == [cid for cid, _ in flows]
    for cid, route in flows:
        assert math.isinf(rates[cid]) == (route.kind == INTRA_HOST)
    usage = link_usage([f for f in flows if f[1].kind != INTRA_HOST], rates)
    cap = topo.link_capacity
    assert all(used <= cap * (1 + FEASIBILITY_RTOL) for used in usage.values())
    on_link = {}
    for cid, route in flows:
        for link in route.links:
            on_link.setdefault(link, []).append(rates[cid])
    # max-min certificate: each finite-rate flow crosses a saturated link on
    # which no flow gets more than it does
    for cid, route in flows:
        if route.kind == INTRA_HOST:
            continue
        assert any(
            usage[link] >= cap * (1 - FEASIBILITY_RTOL) and rates[cid] >= max(on_link[link])
            for link in route.links
        ), f"flow {cid} lacks a max-min bottleneck"
    shuffled = flows.copy()
    rng.shuffle(shuffled)
    assert waterfill(shuffled, topo).rates == rates
    rows = LinkRows([cid for cid, _ in shuffled], route_link_rows(topo, [r for _, r in shuffled]))
    assert waterfill(rows, topo).rates == rates


@settings(derandomize=True, max_examples=150, deadline=None)
@given(fabric_flows())
def test_waterfill_matches_exact_progressive_filling(case):
    topo, flows, _ = case
    rates = waterfill(flows, topo).rates
    exact = exact_fill(flows, topo.link_capacity)
    assert {cid for cid, r in rates.items() if math.isfinite(r)} == set(exact)
    for cid, rate in exact.items():
        assert abs(rates[cid] - rate) <= 1e-12 * rate, (cid, rates[cid], rate)


def test_uniform_single_bottleneck_share():
    from closroute.topology import spine_route

    topo = build_topology(2, 4, 8, 1, 9.0)
    flows = [
        (f"f{i}", spine_route(Endpoint(0, i, 0), Endpoint(1, i, 0), 0)) for i in range(3)
    ]
    alloc = waterfill(flows, topo)
    assert all(rate == pytest.approx(3.0) for rate in alloc.rates.values())


def test_min_bandwidth_respects_load_bound():
    for seed in (5, 21, 77):
        topo, cs = random_unit_instance(seed, max_tors=8, max_spines=4)
        choice = greedy_assign(cs, topo)
        load = max_link_load(choice, topo)
        alloc = waterfill(flows_for(choice), topo)
        assert min(alloc.rates.values()) >= topo.link_capacity / load - 1e-12


def test_greedy_min_bandwidth_within_half_of_exact():
    from closroute.routing import exact_assign

    for seed in range(40):
        topo, cs = random_unit_instance(seed + 4000, max_tors=8, max_spines=4)
        greedy_alloc = waterfill(flows_for(greedy_assign(cs, topo)), topo)
        exact_alloc = waterfill(flows_for(exact_assign(cs, topo)), topo)
        assert min(greedy_alloc.rates.values()) >= 0.5 * min(exact_alloc.rates.values()) - 1e-12
