import dataclasses
import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closroute.routing import PathChoice, max_link_load
from closroute.topology import (
    INTRA_HOST,
    INTRA_TOR,
    SPINE,
    ClosTopology,
    Endpoint,
    build_topology,
    fail_spines,
    forced_route,
    route_link_ids,
    spine_route,
)


def candidate_routes(topo, src, dst):
    """Every shortest path: the forced route, or one route per live spine."""
    forced = forced_route(topo, src, dst)
    return [forced] if forced else [spine_route(src, dst, s) for s in topo.live_spines]


def test_build_reference_fabric_has_2048_endpoints():
    topo = build_topology(32, 64, 4, 8, 100e9)
    assert topo.num_endpoints == 2048
    assert topo.failed_spines == frozenset()


def test_build_example_and_minimal_fabrics():
    fig = build_topology(2, 4, 2, 1, 1.0)
    assert fig.num_endpoints == 8
    tiny = build_topology(1, 2, 1, 1, 1.0)
    assert tiny.live_spines == [0]


@pytest.mark.parametrize(
    "args",
    [
        (0, 4, 1, 1, 1.0),
        (2, 1, 1, 1, 1.0),
        (2, 4, 0, 1, 1.0),
        (2, 4, 1, 0, 1.0),
        (2, 4, 1, 1, 0.0),
        (2, 4, 1, 1, -5.0),
    ],
)
def test_build_rejects_bad_sizes(args):
    with pytest.raises(ValueError):
        build_topology(*args)


def test_intra_host_and_intra_tor_routes():
    topo = build_topology(2, 4, 2, 2, 1.0)
    same_host = forced_route(topo, Endpoint(0, 0, 0), Endpoint(0, 0, 1))
    assert same_host.kind == INTRA_HOST
    assert same_host.links == ()

    same_tor = forced_route(topo, Endpoint(0, 0, 0), Endpoint(0, 1, 0))
    assert same_tor.kind == INTRA_TOR
    assert len(same_tor.links) == 2


def test_inter_tor_routes_one_per_live_spine_ascending():
    topo = build_topology(4, 4, 1, 1, 1.0)
    routes = candidate_routes(topo, Endpoint(0, 0, 0), Endpoint(3, 0, 0))
    assert [r.spine for r in routes] == [0, 1, 2, 3]
    assert all(r.kind == SPINE and len(r.links) == 4 for r in routes)


def test_route_links_chain_head_to_tail():
    topo = build_topology(3, 4, 2, 2, 1.0)
    for dst in (Endpoint(0, 0, 1), Endpoint(0, 1, 0), Endpoint(2, 1, 1)):
        for route in candidate_routes(topo, Endpoint(0, 0, 0), dst):
            for a, b in zip(route.links, route.links[1:]):
                assert a[1] == b[0]


def test_enumerate_rejects_same_endpoint_and_out_of_bounds():
    topo = build_topology(2, 4, 1, 1, 1.0)
    ep = Endpoint(0, 0, 0)
    with pytest.raises(ValueError):
        forced_route(topo, ep, ep)
    with pytest.raises(ValueError):
        forced_route(topo, ep, Endpoint(9, 0, 0))


def test_failed_spines_are_filtered_from_routes():
    topo = fail_spines(build_topology(4, 4, 1, 1, 1.0), 2, seed=0)
    # derived by filtering the enumeration with the failed set
    expected = [s for s in range(4) if s not in topo.failed_spines]
    routes = candidate_routes(topo, Endpoint(0, 0, 0), Endpoint(1, 0, 0))
    assert [r.spine for r in routes] == expected


def test_fail_spines_is_deterministic_and_additive():
    topo = build_topology(32, 64, 1, 1, 1.0)
    a = fail_spines(topo, 8, seed=7)
    b = fail_spines(topo, 8, seed=7)
    assert a.failed_spines == b.failed_spines
    assert len(a.failed_spines) == 8
    assert fail_spines(topo, 0, seed=1) == topo

    more = fail_spines(a, 4, seed=3)
    assert a.failed_spines <= more.failed_spines
    assert len(more.failed_spines) == 12


def test_fail_spines_must_leave_a_survivor():
    topo = build_topology(2, 4, 1, 1, 1.0)
    with pytest.raises(ValueError):
        fail_spines(topo, 2, seed=0)
    one_down = fail_spines(topo, 1, seed=0)
    with pytest.raises(ValueError):
        fail_spines(one_down, 1, seed=0)


def test_all_spines_failed_rejects_inter_tor_routing():
    # no topology without a live spine can be built, so every inter-ToR pair
    # always has a route and the schemes need no check for it
    with pytest.raises(ValueError, match="alive"):
        ClosTopology(2, 4, 1, 1, 1.0, failed_spines=frozenset({0, 1}))
    crippled = fail_spines(build_topology(2, 4, 1, 1, 1.0), 1, seed=0)
    with pytest.raises(ValueError, match="alive"):
        dataclasses.replace(crippled, failed_spines=frozenset({0, 1}))


def test_forced_route_matches_enumeration():
    topo = build_topology(2, 4, 2, 2, 1.0)
    cases = [
        (Endpoint(0, 0, 0), Endpoint(0, 0, 1), INTRA_HOST),
        (Endpoint(0, 0, 0), Endpoint(0, 1, 1), INTRA_TOR),
        (Endpoint(0, 0, 0), Endpoint(1, 0, 0), None),
    ]
    for src, dst, kind in cases:
        forced = forced_route(topo, src, dst)
        if kind is None:
            assert forced is None
        else:
            assert (forced.kind, forced.spine, forced.src, forced.dst) == (kind, None, src, dst)


# -- the integer link layout ----------------------------------------------------


@st.composite
def fabrics(draw):
    topo = build_topology(
        draw(st.integers(1, 4)), draw(st.integers(2, 5)), draw(st.integers(1, 3)),
        draw(st.integers(1, 3)), 1.0,
    )
    failed = draw(st.integers(0, topo.num_spines - 1))
    return fail_spines(topo, failed, seed=draw(st.integers(0, 99)))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(fabrics())
def test_link_ids_match_route_links(topo):
    routes = [
        route
        for src, dst in itertools.permutations(topo.endpoints(), 2)
        for route in candidate_routes(topo, src, dst)
    ]
    ids, counts = route_link_ids(topo, routes)
    assert counts.tolist() == [len(r.links) for r in routes]
    assert ids.min() >= 0 and ids.max() < topo.num_links
    id_of = {}
    for route, route_ids in zip(routes, np.split(ids, np.cumsum(counts)[:-1])):
        for link, link_id in zip(route.links, route_ids.tolist()):
            assert id_of.setdefault(link, link_id) == link_id
            touches_spine = "spine" in (link[0][0], link[1][0])
            assert (link_id >= topo.spine_link_base) == touches_spine
        if route.kind == SPINE:
            src, dst, s = route.src, route.dst, route.spine
            assert route_ids.tolist() == [
                topo.nic_up_id(src), topo.tor_up_id(src.tor, s),
                topo.tor_down_id(s, dst.tor), topo.nic_down_id(dst),
            ]
    assert len(set(id_of.values())) == len(id_of)
    up, down = topo.spine_link_views(np.arange(topo.num_links))
    tors, spines = range(topo.num_tors), range(topo.num_spines)
    assert up.tolist() == [[topo.tor_up_id(t, s) for s in spines] for t in tors]
    assert down.tolist() == [[topo.tor_down_id(s, t) for t in tors] for s in spines]

    # loads by link id against a count over the routes' own links
    link_counts = Counter(link for route in routes for link in route.links)
    loads = np.bincount(ids, minlength=topo.num_links)
    assert {link: int(loads[id_of[link]]) for link in link_counts} == link_counts
    assert loads.sum() == sum(link_counts.values())
    spine_counts = [n for link, n in link_counts.items() if "spine" in (link[0][0], link[1][0])]
    choice = PathChoice({str(i): route for i, route in enumerate(routes)})
    assert max_link_load(choice, topo) == max(spine_counts, default=0)
