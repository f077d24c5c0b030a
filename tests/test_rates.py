import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_topology import all_endpoints

from closroute.rates import FEASIBILITY_RTOL, LinkRows, waterfill
from closroute.routing import (
    greedy_assign,
    max_link_load,
    random_unit_instance,
    unit_commodities_for_pairs,
)
from closroute.topology import (
    Endpoint,
    Route,
    build_topology,
    fail_spines,
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


def full_fill(flows, topo):
    """Progressive filling in which every link the flows use takes part: the
    reference that ``waterfill``, whose rounds leave out the links only one
    flow crosses, must match bit for bit."""
    links = route_link_rows(topo, [route for _, route in flows])
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
    active = np.bincount(le, minlength=num_links)
    while unfrozen.any():
        share = np.where(active > 0, residual / np.maximum(active, 1), np.inf)
        level = share.min()
        freeze = np.zeros(len(flows), dtype=bool)
        freeze[fe[(share == level)[le] & unfrozen[fe]]] = True
        rate[freeze] = level
        unfrozen &= ~freeze
        newly = np.bincount(le[freeze[fe]], minlength=num_links)
        active -= newly
        residual = np.maximum(residual - level * newly, 0.0)
    return dict(zip([cid for cid, _ in flows], rate.tolist()))


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


def test_waterfill_rejects_routes_off_the_fabric():
    """A link row is read off a route's endpoints and spine alone, so an
    endpoint off the fabric or a spine out of range would name some other
    link's id: route_link_rows raises, naming the first such route."""
    topo = build_topology(2, 4, 1, 2, 100.0)
    ok = ("a", spine_route(Endpoint(0, 0, 1), Endpoint(2, 0, 0), 0))
    for route, named in [
        # NIC -1 on host t1.h0 would read as NIC-up id 1, t0.h0.n1's link
        (spine_route(Endpoint(1, 0, -1), Endpoint(3, 0, 0), 1), "src endpoint t1.h0.n-1"),
        (spine_route(Endpoint(1, 0, 0), Endpoint(9, 0, 0), 1), "dst endpoint t9.h0.n0"),
        (Route(None, Endpoint(3, 0, 1), Endpoint(3, 1, 0)), "dst endpoint t3.h1.n0"),
    ]:
        with pytest.raises(ValueError, match=f"^route 1: {named} is off the fabric$"):
            waterfill([ok, ("b", route)], topo)
    for spine in (2, -2):
        route = spine_route(Endpoint(1, 0, 0), Endpoint(3, 0, 0), spine)
        with pytest.raises(ValueError, match=rf"^route 1: spine {spine} is not in \[0, 2\)$"):
            waterfill([ok, ("b", route)], topo)
    # a route takes a spine exactly when its ToRs differ: without one, the
    # first would cross no spine link, and the second would load two
    n0, n1 = Endpoint(0, 0, 0), Endpoint(1, 0, 0)
    for route, named in [
        (Route(None, n0, n1), "None does not fit ToRs 0 -> 1"),
        (Route(1, n0, n0), "1 does not fit ToRs 0 -> 0"),
        (Route(-1, Endpoint(2, 0, 0), Endpoint(3, 0, 0)), "-1 does not fit ToRs 2 -> 3"),
        (Route(0, Endpoint(3, 0, 0), Endpoint(3, 0, 0)), "0 does not fit ToRs 3 -> 3"),
    ]:
        with pytest.raises(ValueError, match=f"^route 1: spine {named}$"):
            waterfill([ok, ("b", route)], topo)
        with pytest.raises(ValueError, match=f"^route 0: spine {named}$"):
            route_link_rows(build_topology(2, 4, 1, 1, 100.0), [route])
    fits = ("b", spine_route(Endpoint(1, 0, 0), Endpoint(3, 0, 0), 1))
    assert waterfill([ok, fits], topo).rates == {"a": 100.0, "b": 100.0}
    # a spine that has failed carries nothing: a route over it would fill a dead link
    down = fail_spines(build_topology(2, 4, 1, 1, 100.0), 1, seed=0)
    assert down.failed_spines == {1}
    over = spine_route(Endpoint(0, 0, 0), Endpoint(1, 0, 0), 1)
    with pytest.raises(ValueError, match="^route 0: spine 1 has failed$"):
        waterfill([("a", over)], down)
    live = ("a", spine_route(Endpoint(2, 0, 0), Endpoint(3, 0, 0), 0))
    with pytest.raises(ValueError, match="^route 1: spine 1 has failed$"):
        route_link_rows(down, [live[1], over, Route(None, Endpoint(2, 0, 0), Endpoint(2, 0, 0))])
    assert waterfill([live, ("b", over._replace(spine=0))], down).rates == {"a": 100.0, "b": 100.0}


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
    route = Route(None, Endpoint(0, 0, 0), Endpoint(0, 0, 1))
    alloc = waterfill([("local", route)], topo)
    assert math.isinf(alloc.rates["local"])
    # and beside two flows that share only their destination NIC's link
    flows = [
        ("local", route),
        ("p", spine_route(Endpoint(0, 0, 0), Endpoint(1, 0, 0), 0)),
        ("q", spine_route(Endpoint(0, 0, 1), Endpoint(1, 0, 0), 1)),
    ]
    rows = LinkRows([cid for cid, _ in flows], route_link_rows(topo, [r for _, r in flows]))
    assert waterfill(rows, topo).rates == {"local": math.inf, "p": 0.5, "q": 0.5}


def test_empty_input_is_empty_allocation():
    topo = build_topology(2, 4, 1, 1, 1.0)
    assert waterfill([], topo).rates == {}
    assert waterfill(LinkRows([], np.empty((0, 4), dtype=np.int64)), topo).rates == {}


def test_flows_on_links_of_their_own_get_exactly_link_capacity():
    # every link here carries one flow, so none takes part in the filling
    topo = build_topology(4, 4, 2, 2, 3.0)
    flows = [
        ("a", spine_route(Endpoint(0, 0, 0), Endpoint(1, 0, 0), 0)),
        ("b", spine_route(Endpoint(0, 1, 1), Endpoint(1, 1, 1), 1)),
        ("c", Route(None, Endpoint(2, 0, 0), Endpoint(2, 1, 0))),
        ("d", Route(None, Endpoint(3, 0, 0), Endpoint(3, 0, 1))),
    ]
    rates = waterfill(flows, topo).rates
    assert rates == {"a": 3.0, "b": 3.0, "c": 3.0, "d": math.inf}
    rows = LinkRows([cid for cid, _ in flows], route_link_rows(topo, [r for _, r in flows]))
    assert waterfill(rows, topo).rates == rates


def test_two_flows_sharing_only_a_nic_link_halve_it():
    # one source NIC, two spines, two destination NICs: only the NIC-up link
    # carries both flows
    topo = build_topology(2, 2, 2, 1, 100e9)
    src = Endpoint(0, 0, 0)
    flows = [
        ("x", spine_route(src, Endpoint(1, 0, 0), 0)),
        ("y", spine_route(src, Endpoint(1, 1, 0), 1)),
        ("z", spine_route(Endpoint(0, 1, 0), Endpoint(1, 1, 0), 0)),
    ]
    # z shares both spine-0 links with x and the NIC-down link with y; each
    # of those links carries two flows, so all three flows get half
    assert waterfill(flows[:2], topo).rates == {"x": 50e9, "y": 50e9}
    assert waterfill(flows, topo).rates == {"x": 50e9, "y": 50e9, "z": 50e9}


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
    endpoints = all_endpoints(topo)
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
        flows.append((f"f{i}", draw_route(draw, topo, src, dst)))
    return topo, flows, draw(st.randoms(use_true_random=False))


def draw_route(draw, topo, src, dst):
    """The route from src to dst, on a spine drawn at random if it needs one."""
    if src.tor != dst.tor:
        return spine_route(src, dst, draw(st.integers(0, topo.num_spines - 1)))
    return Route(None, src, dst)


@st.composite
def hub_flows(draw):
    """Flows to and from a few hub endpoints, so that the hubs' NIC links
    carry two or more flows while many spine links carry one; the fabric has
    up to 8 spines to spread the spine routes over."""
    topo = build_topology(
        draw(st.integers(1, 8)), draw(st.integers(2, 5)), draw(st.integers(1, 3)),
        draw(st.integers(1, 2)), draw(st.sampled_from([1.0, 3.0, 100e9])),
    )
    endpoints = all_endpoints(topo)
    pick = st.integers(0, len(endpoints) - 1)
    hubs = [endpoints[draw(pick)] for _ in range(draw(st.integers(1, 3)))]
    flows = []
    for i in range(draw(st.integers(1, 24))):
        hub, other = draw(st.sampled_from(hubs)), endpoints[draw(pick)]
        if other == hub:
            continue
        src, dst = (hub, other) if draw(st.booleans()) else (other, hub)
        flows.append((f"h{i}", draw_route(draw, topo, src, dst)))
    return topo, flows


@settings(derandomize=True, max_examples=150, deadline=None)
@given(fabric_flows())
def test_waterfill_is_feasible_max_min_and_order_free(case):
    topo, flows, rng = case
    rates = waterfill(flows, topo).rates
    assert list(rates) == [cid for cid, _ in flows]
    for cid, route in flows:
        assert math.isinf(rates[cid]) == (route.links == ())
    usage = link_usage([f for f in flows if f[1].links], rates)
    cap = topo.link_capacity
    assert all(used <= cap * (1 + FEASIBILITY_RTOL) for used in usage.values())
    on_link = {}
    for cid, route in flows:
        for link in route.links:
            on_link.setdefault(link, []).append(rates[cid])
    # max-min certificate: each finite-rate flow crosses a saturated link on
    # which no flow gets more than it does
    for cid, route in flows:
        if not route.links:
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
    assert rates == full_fill(flows, topo)
    exact = exact_fill(flows, topo.link_capacity)
    assert {cid for cid, r in rates.items() if math.isfinite(r)} == set(exact)
    for cid, rate in exact.items():
        assert abs(rates[cid] - rate) <= 1e-12 * rate, (cid, rates[cid], rate)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(hub_flows())
def test_waterfill_matches_full_fill_with_shared_endpoints(case):
    topo, flows = case
    assert waterfill(flows, topo).rates == full_fill(flows, topo)


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
