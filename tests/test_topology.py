import dataclasses
import itertools
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from closroute import topology
from closroute.rates import waterfill
from closroute.routing import PathChoice, max_link_load
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
from closroute.workload import CommoditySpec


def all_endpoints(topo):
    """Every endpoint of topo in (tor, host, nic) order: its NIC up-link id order."""
    sizes = topo.num_tors, topo.hosts_per_tor, topo.nics_per_host
    return [Endpoint(*parts) for parts in itertools.product(*map(range, sizes))]


def candidate_routes(topo, src, dst):
    """Every shortest path: the one forced route, or one route per live spine."""
    if src.tor != dst.tor:
        return [spine_route(src, dst, s) for s in topo.live_spines]
    return [Route(None, src, dst)]


def nic_ids(topo, src, dst):
    """The link ids of src's NIC up-link and dst's NIC down-link: an
    endpoint's position in ``all_endpoints(topo)``, plus E for a down-link."""
    position = {ep: i for i, ep in enumerate(all_endpoints(topo))}
    return position[src], topo.num_endpoints + position[dst]


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
        (2, 4, 1, 1, float("nan")),
    ],
)
def test_build_rejects_bad_sizes(args):
    with pytest.raises(ValueError):
        build_topology(*args)


def test_intra_host_and_intra_tor_routes():
    topo = build_topology(2, 4, 2, 2, 1.0)
    cs = [
        CommoditySpec("host", "j", Endpoint(0, 0, 0), Endpoint(0, 0, 1), 1),
        CommoditySpec("tor", "j", Endpoint(0, 0, 0), Endpoint(0, 1, 0), 1),
    ]
    routes = build_routes(classify(topo, cs), []).assignment
    assert routes["host"].spine is None
    assert routes["host"].links == ()
    assert routes["tor"].spine is None
    assert len(routes["tor"].links) == 2


def test_inter_tor_routes_one_per_live_spine_ascending():
    topo = build_topology(4, 4, 1, 1, 1.0)
    routes = candidate_routes(topo, Endpoint(0, 0, 0), Endpoint(3, 0, 0))
    assert [r.spine for r in routes] == [0, 1, 2, 3]
    assert all(r.spine is not None and len(r.links) == 4 for r in routes)


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
        CommoditySpec("x", "j", ep, ep, 1)
    for src, dst, named in [
        (ep, Endpoint(9, 0, 0), "dst endpoint t9.h0.n0"),
        (Endpoint(0, 1, 0), ep, "src endpoint t0.h1.n0"),
        (ep, Endpoint(1, 0, -1), "dst endpoint t1.h0.n-1"),
    ]:
        ok = CommoditySpec("ok", "j", ep, Endpoint(1, 0, 0), 1)
        cs = [ok, CommoditySpec("x", "j", src, dst, 1)]
        with pytest.raises(ValueError, match=f"commodity x: {named} is off the fabric"):
            classify(topo, cs)


PART = 2**20  # the bound of each part of an Endpoint key
# the largest fabric, on which every endpoint whose parts are in [0, 2**20) lies
LARGEST = build_topology(PART, PART, PART, PART, 1.0)


def pin_each_part(test):
    """Pinned examples: each part of src at 0, 2**20 - 1, 2**20 and -1."""
    for i in range(3):
        for value in (0, PART - 1, PART, -1):
            parts = [1, 1, 1]
            parts[i] = value
            test = example(src=tuple(parts), dst=(0, 1, 1))(test)
    return test


part = st.one_of(st.sampled_from([0, 1, PART - 1, PART, -1]), st.integers(-2, 5),
                 st.integers(-PART, 2 * PART))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(src=st.tuples(part, part, part), dst=st.tuples(part, part, part))
@pin_each_part
def test_endpoint_keys_read_as_their_parts(src, dst):
    """An Endpoint packs its parts into one key when each is in [0, 2**20),
    and _read_endpoints unpacks them; an endpoint with a part out of that
    range, or off the fabric, is rejected by classify with its message."""
    assume(src != dst)
    a, b = Endpoint(*src), Endpoint(*dst)
    assert a == Endpoint(*src) and hash(a) == hash(Endpoint(*src))
    assert repr(a) == "Endpoint(tor={}, host={}, nic={})".format(*src)
    assert (a < b) == (src < dst)

    def on(topo):
        dims = (topo.num_tors, topo.hosts_per_tor, topo.nics_per_host)
        return [all(0 <= p < d for p, d in zip(ends, dims)) for ends in (src, dst)]

    in_range = on(LARGEST)
    assert [e.key == -1 for e in (a, b)] == [not packs for packs in in_range]
    # NumPy integer parts, wherever their type holds them, read as the equal ints
    for dtype in (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64):
        info = np.iinfo(dtype)
        for parts, e in ((src, a), (dst, b)):
            if all(info.min <= p <= info.max for p in parts):
                assert Endpoint(*map(dtype, parts)).key == e.key, dtype
    if all(in_range):
        routes = [Route(0, a, b), Route(0, b, a)]
        # the reference reads each endpoint attribute by attribute
        reference = [[[e.tor, e.host, e.nic] for e in (r.src, r.dst)] for r in routes]
        assert topology._read_endpoints(routes).tolist() == reference
    cs = [CommoditySpec("ok", "j", Endpoint(0, 0, 0), Endpoint(1, 0, 0), 1),
          CommoditySpec("x", "j", a, b, 1)]
    for topo in (LARGEST, build_topology(2, 4, 2, 3, 1.0)):
        src_on, dst_on = on(topo)
        if src_on and dst_on:
            assert classify(topo, cs).kinds.src_tor.tolist() == [0, src[0]]
        else:
            end, off = ("dst", b) if src_on else ("src", a)
            with pytest.raises(ValueError,
                               match=f"^commodity x: {end} endpoint {off} is off the fabric$"):
                classify(topo, cs)


@pytest.mark.parametrize("field", ["num_spines", "num_tors", "hosts_per_tor", "nics_per_host"])
def test_a_fabric_dimension_above_2_to_the_20_is_refused(field, tmp_path, capsys):
    """Every endpoint on a fabric must pack into its key, so no dimension may
    exceed 2**20; a scenario that asks for more exits 2 naming the field."""
    from closroute.cli import main

    sizes = {"num_spines": 2, "num_tors": 4, "hosts_per_tor": 1, "nics_per_host": 1}
    assert getattr(build_topology(**{**sizes, field: PART}, link_capacity=1.0), field) == PART
    with pytest.raises(ValueError, match=rf"^{field} must be in \[\d, 2\*\*20\], got {PART + 1}$"):
        build_topology(**{**sizes, field: PART + 1}, link_capacity=1.0)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"topology": {field: PART + 1}}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: topology: {field} must be in ")


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


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_fail_spines_is_monotone(data):
    spines = data.draw(st.integers(1, 16))
    topo = build_topology(spines, 2, 1, 1, 1.0)
    k1 = data.draw(st.integers(0, spines - 1))
    first = fail_spines(topo, k1, seed=data.draw(st.integers(0, 99)))
    k2 = data.draw(st.integers(0, spines - 1 - k1))
    second = fail_spines(first, k2, seed=data.draw(st.integers(0, 99)))
    assert len(first.failed_spines) == k1
    assert first.failed_spines <= second.failed_spines
    assert len(second.failed_spines) == k1 + k2
    assert set(second.live_spines) <= set(first.live_spines)
    assert second.live_spines == [s for s in range(spines) if s not in second.failed_spines]
    assert second.live_spines
    with pytest.raises(ValueError, match="one must survive"):
        fail_spines(second, len(second.live_spines), seed=0)


def test_all_spines_failed_rejects_inter_tor_routing():
    # no topology without a live spine can be built, so every inter-ToR pair
    # always has a route and the schemes need no check for it
    with pytest.raises(ValueError, match="alive"):
        ClosTopology(2, 4, 1, 1, 1.0, failed_spines=frozenset({0, 1}))
    crippled = fail_spines(build_topology(2, 4, 1, 1, 1.0), 1, seed=0)
    with pytest.raises(ValueError, match="alive"):
        dataclasses.replace(crippled, failed_spines=frozenset({0, 1}))


def test_classify_matches_hand_cases():
    topo = build_topology(2, 4, 2, 2, 1.0)
    # each case with the number of links its route crosses: none within a
    # host, the two NIC links within a ToR, four through a spine
    cases = [
        (Endpoint(0, 0, 0), Endpoint(0, 0, 1), 0),
        (Endpoint(0, 0, 0), Endpoint(0, 1, 1), 2),
        (Endpoint(0, 0, 0), Endpoint(1, 0, 0), 4),
        (Endpoint(3, 1, 1), Endpoint(2, 1, 0), 4),
    ]
    cs = [CommoditySpec(f"c{i}", "j", src, dst, 1) for i, (src, dst, _) in enumerate(cases)]
    batch = classify(topo, cs)
    kinds = batch.kinds
    assert kinds.inter.tolist() == (kinds.src_tor != kinds.dst_tor).tolist()
    assert kinds.inter.tolist() == [hops == 4 for _, _, hops in cases]
    assert kinds.src_tor.tolist() == [src.tor for src, _, _ in cases]
    assert kinds.dst_tor.tolist() == [dst.tor for _, dst, _ in cases]
    # a commodity within its host crosses no link: both NIC link ids are -1
    assert list(zip(kinds.nic_up.tolist(), kinds.nic_down.tolist())) == [
        (-1, -1) if hops == 0 else nic_ids(topo, src, dst) for src, dst, hops in cases
    ]
    choice = build_routes(batch, [1, 0])
    routes = choice.assignment
    assert [(r.spine, r.src, r.dst, len(r.links)) for r in routes.values()] == [
        ({2: 1, 3: 0}.get(i), src, dst, hops) for i, (src, dst, hops) in enumerate(cases)
    ]
    rows = route_link_rows(topo, routes.values())
    assert rows[0].tolist() == [-1] * 4 and (rows[1, 1:3] == -1).all() and (rows[2:] >= 0).all()
    assert np.array_equal(rows, choice.link_rows(topo))
    assert len(batch) == len(cs) and list(batch) == list(batch) == cs  # columns iterate again
    empty = classify(topo, [])
    assert all(column.tolist() == [] for column in empty.kinds) and list(empty) == []


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
        for src, dst in itertools.permutations(all_endpoints(topo), 2)
        for route in candidate_routes(topo, src, dst)
    ]
    rows = route_link_rows(topo, routes)
    ids = rows[rows >= 0]
    assert (rows >= 0).sum(axis=1).tolist() == [len(r.links) for r in routes]
    assert ids.min() >= 0 and ids.max() < topo.num_links
    id_of = {}
    for route, row in zip(routes, rows):
        route_ids = row[row >= 0]
        for link, link_id in zip(route.links, route_ids.tolist()):
            assert id_of.setdefault(link, link_id) == link_id
            touches_spine = "spine" in (link[0][0], link[1][0])
            assert (link_id >= topo.spine_link_base) == touches_spine
        if route.spine is not None:
            src, dst, s = route.src, route.dst, route.spine
            nic_up, nic_down = nic_ids(topo, src, dst)
            assert route_ids.tolist() == [
                nic_up, topo.tor_up_id(src.tor, s), topo.tor_down_id(s, dst.tor), nic_down,
            ]
    assert len(set(id_of.values())) == len(id_of)
    # the spine-link ids: ToR->spine links in (ToR, spine) order, then
    # spine->ToR links in (spine, ToR) order
    tors, spines = range(topo.num_tors), range(topo.num_spines)
    up = [topo.tor_up_id(t, s) for t in tors for s in spines]
    down = [topo.tor_down_id(s, t) for s in spines for t in tors]
    assert up + down == list(range(topo.spine_link_base, topo.num_links))

    # loads by link id against a count over the routes' own links
    link_counts = Counter(link for route in routes for link in route.links)
    loads = np.bincount(ids, minlength=topo.num_links)
    assert {link: int(loads[id_of[link]]) for link in link_counts} == link_counts
    assert loads.sum() == sum(link_counts.values())
    spine_counts = [n for link, n in link_counts.items() if "spine" in (link[0][0], link[1][0])]
    cs = [CommoditySpec(str(i), "j", route.src, route.dst, 1) for i, route in enumerate(routes)]
    spines = [-1 if route.spine is None else route.spine for route in routes]
    batch = classify(topo, cs)
    assert batch.kinds.inter.tolist() == [route.spine is not None for route in routes]
    choice = PathChoice(batch, np.array(spines, dtype=np.int64))
    assert list(choice.assignment.values()) == routes
    assert max_link_load(choice, topo) == max(spine_counts, default=0)


def layout_id(topo, link):
    """A link's id by the layout formulas of the topology module docstring."""
    E, T, S = topo.num_endpoints, topo.num_tors, topo.num_spines
    position = {ep: i for i, ep in enumerate(all_endpoints(topo))}
    (tail_kind, *tail), (head_kind, *head) = link
    if tail_kind == "nic":
        return position[Endpoint(*tail)]
    if head_kind == "nic":
        return E + position[Endpoint(*head)]
    if head_kind == "spine":
        return 2 * E + tail[0] * S + head[0]
    return 2 * E + T * S + tail[0] * T + head[0]


@st.composite
def fabric_routes(draw):
    """A small fabric with 0-2 failed spines, and routes between any two of its
    endpoints, a route from an endpoint to itself included, each with a spine
    of None, -1 or any index on the fabric."""
    topo = build_topology(draw(st.integers(1, 4)), draw(st.integers(2, 4)),
                          draw(st.integers(1, 3)), draw(st.integers(1, 2)), 100.0)
    failed = draw(st.integers(0, min(2, topo.num_spines - 1)))
    topo = fail_spines(topo, failed, seed=draw(st.integers(0, 99)))
    end = st.sampled_from(all_endpoints(topo))
    spine = st.one_of(st.none(), st.just(-1), st.integers(0, topo.num_spines - 1))
    return topo, draw(st.lists(st.builds(Route, spine, end, end), max_size=8))


FIG = build_topology(2, 4, 2, 1, 100.0)
ONE_DOWN = fail_spines(build_topology(2, 4, 1, 1, 100.0), 1, seed=0)  # spine 1 has failed


@settings(derandomize=True, max_examples=200, deadline=None)
@given(fabric_routes())
# a route within a ToR across two hosts, and one from an endpoint to itself
@example((FIG, [Route(None, Endpoint(0, 0, 0), Endpoint(0, 1, 0)),
                Route(None, Endpoint(0, 0, 0), Endpoint(0, 0, 0))]))
@example((ONE_DOWN, [Route(0, Endpoint(0, 0, 0), Endpoint(1, 0, 0)),
                     Route(1, Endpoint(0, 0, 0), Endpoint(1, 0, 0))]))
@example((ONE_DOWN, [Route(-1, Endpoint(2, 0, 0), Endpoint(3, 0, 0)),
                     Route(0, Endpoint(3, 0, 0), Endpoint(3, 0, 0))]))
# no spine between ToRs, and a spine within one, on a fabric with every spine up
@example((FIG, [Route(None, Endpoint(0, 0, 0), Endpoint(1, 0, 0)),
                Route(-1, Endpoint(0, 0, 0), Endpoint(1, 0, 0)),
                Route(0, Endpoint(0, 0, 0), Endpoint(0, 1, 0))]))
def test_a_route_row_holds_its_links(case):
    """route_link_rows refuses a route exactly when its spine does not fit its
    ToRs or has failed, and Route.links, which knows no fabric, exactly when
    the spine does not fit; otherwise the row's ids, in order, are the route's
    links by the layout formulas, and the route's rate is inf exactly when it
    crosses no link."""
    topo, routes = case

    def fits_tors(route):
        on_spine = route.spine is not None and route.spine >= 0
        return on_spine == (route.src.tor != route.dst.tor)

    accepted = []
    for route in routes:
        misfit = f"spine {route.spine} does not fit ToRs {route.src.tor} -> {route.dst.tor}$"
        if fits_tors(route):
            assert len(route.links) in (0, 2, 4)
        else:
            with pytest.raises(ValueError, match=f"^{misfit}"):
                route.links
        if route.spine in topo.failed_spines:
            with pytest.raises(ValueError, match=f"^route 0: spine {route.spine} has failed$"):
                route_link_rows(topo, [route])
        elif not fits_tors(route):
            with pytest.raises(ValueError, match=f"^route 0: {misfit}"):
                route_link_rows(topo, [route])
        else:
            accepted.append(route)
            assert route_link_rows(topo, [route]).shape == (1, 4)
    if len(accepted) < len(routes):
        with pytest.raises(ValueError, match="^route "):
            route_link_rows(topo, routes)
    rows = route_link_rows(topo, accepted)
    for route, row in zip(accepted, rows.tolist()):
        assert [i for i in row if i >= 0] == [layout_id(topo, link) for link in route.links]
        hops = len(route.links)
        assert [i >= 0 for i in row] == [hops > 0, hops == 4, hops == 4, hops > 0]
    rates = waterfill([(str(i), route) for i, route in enumerate(accepted)], topo).rate
    assert np.isinf(rates).tolist() == [route.links == () for route in accepted]
