"""Each output check accepts a right answer and rejects a deliberately wrong one.

    python3 -m pytest benchmarks/test_checks.py -q
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402
from closroute.rates import FEASIBILITY_RTOL, waterfill  # noqa: E402
from closroute.routing import edge_color_assign, greedy_assign, unit_commodities_for_pairs  # noqa: E402
from closroute.sim import MetricsRecord  # noqa: E402
from closroute.topology import Endpoint, build_topology, fail_spines, spine_route  # noqa: E402
from closroute.workload import MODEL_CATALOG, CommoditySpec  # noqa: E402

CAPACITY = 100e9


@pytest.fixture()
def instance():
    topo = fail_spines(build_topology(4, 6, 2, 4, CAPACITY), 1, seed=0)
    pairs = [(0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 4), (4, 5), (5, 3), (1, 2)]
    return topo, unit_commodities_for_pairs(topo, pairs)


# -- routing --------------------------------------------------------------------------


def test_routes_accept_the_schemes_and_reject_a_failed_spine(instance):
    topo, cs = instance
    greedy = greedy_assign(cs, topo).assignment
    checks.check_routes("greedy", cs, greedy, topo.live_spines)
    (dead,) = topo.failed_spines
    bad = dict(greedy)
    bad[cs[0].id] = spine_route(cs[0].src, cs[0].dst, dead)
    with pytest.raises(CheckFailed, match="not a live spine"):
        checks.check_routes("greedy", cs, bad, topo.live_spines)


def test_routes_reject_foreign_endpoints_and_missing_routes(instance):
    topo, cs = instance
    greedy = greedy_assign(cs, topo).assignment
    swapped = dict(greedy)
    swapped[cs[0].id], swapped[cs[1].id] = greedy[cs[1].id], greedy[cs[0].id]
    with pytest.raises(CheckFailed, match="does not join"):
        checks.check_routes("greedy", cs, swapped, topo.live_spines)
    missing = dict(greedy)
    del missing[cs[-1].id]
    with pytest.raises(CheckFailed, match="routes for"):
        checks.check_routes("greedy", cs, missing, topo.live_spines)


def test_load_bounds(instance):
    topo, cs = instance
    live = len(topo.live_spines)
    delta = checks.max_tor_degree(cs)
    assert delta == 3  # ToR 0 sends three and receives two
    coloring = edge_color_assign(cs, topo).assignment
    checks.check_coloring_optimal(checks.max_spine_load(cs, coloring), delta, live)
    checks.check_greedy_bound(2, delta, live)
    with pytest.raises(CheckFailed, match="exceeds"):
        checks.check_greedy_bound(3, delta, live)
    for wrong in (0, 2):
        with pytest.raises(CheckFailed, match="edge_coloring"):
            checks.check_coloring_optimal(wrong, delta, live)


def test_spine_load_counts_each_direction(instance):
    topo, cs = instance
    on_spine0 = {c.id: spine_route(c.src, c.dst, 0) for c in cs}
    # ToR 0 sends three commodities; all of them on spine 0 load that uplink 3 times
    assert checks.max_spine_load(cs, on_spine0) == 3


# -- rates ----------------------------------------------------------------------------


def test_max_min_accepts_waterfill_and_rejects_broken_allocations(instance):
    topo, cs = instance
    flows = list(greedy_assign(cs, topo).assignment.items())
    rates = waterfill(flows, topo).rates
    checks.check_max_min(flows, rates, CAPACITY, FEASIBILITY_RTOL)

    over = dict(rates)
    over[cs[0].id] *= 1.5
    with pytest.raises(CheckFailed, match="carries"):
        checks.check_max_min(flows, over, CAPACITY, FEASIBILITY_RTOL)
    # feasible but wasteful: nothing is saturated any more
    halved = {cid: r / 2 for cid, r in rates.items()}
    with pytest.raises(CheckFailed, match="no saturated link"):
        checks.check_max_min(flows, halved, CAPACITY, FEASIBILITY_RTOL)
    stalled = dict(rates)
    stalled[cs[0].id] = 0.0
    with pytest.raises(CheckFailed, match="has rate"):
        checks.check_max_min(flows, stalled, CAPACITY, FEASIBILITY_RTOL)


def test_max_min_rejects_an_unfair_split():
    topo = build_topology(1, 2, 1, 2, CAPACITY)
    a = CommoditySpec("a", "j", Endpoint(0, 0, 0), Endpoint(1, 0, 0), 1)
    b = CommoditySpec("b", "j", Endpoint(0, 0, 1), Endpoint(1, 0, 1), 1)
    flows = [(c.id, spine_route(c.src, c.dst, 0)) for c in (a, b)]
    checks.check_max_min(flows, {"a": CAPACITY / 2, "b": CAPACITY / 2}, CAPACITY, 1e-9)
    # saturated, but b's only saturated link carries the larger flow a
    with pytest.raises(CheckFailed, match="flow b"):
        checks.check_max_min(flows, {"a": 0.7 * CAPACITY, "b": 0.3 * CAPACITY}, CAPACITY, 1e-9)


# -- simulations ----------------------------------------------------------------------


def _records(times):
    return [MetricsRecord("job0", i, t, ()) for i, t in enumerate(times)]


def test_iterations_reject_a_missing_or_repeated_iteration():
    checks.check_iterations(_records([1.0, 1.0, 1.0]), {"job0": 3})
    with pytest.raises(CheckFailed, match="expected 0..2"):
        checks.check_iterations(_records([1.0, 1.0]), {"job0": 3})
    doubled = _records([1.0, 1.0, 1.0]) + [MetricsRecord("job0", 1, 1.0, ())]
    with pytest.raises(CheckFailed, match="expected 0..2"):
        checks.check_iterations(doubled, {"job0": 3})
    with pytest.raises(CheckFailed, match="unknown jobs"):
        checks.check_iterations(_records([1.0]) + [MetricsRecord("x", 0, 1.0, ())], {"job0": 1})


def test_allreduce_floor_rejects_a_faster_than_link_rate_sync():
    bloom = MODEL_CATALOG["BLOOM"]
    volume = checks.edge_volume(bloom.num_params, bloom.bytes_per_param, bloom.tp, bloom.pp, 8)
    # about 14/8 of a 14.7 GB shard; criterion 3 puts it near 210 Gbit
    assert volume * 8 == pytest.approx(14 * 15e9, rel=0.1)
    floor = 8 * volume / CAPACITY
    checks.check_allreduce_floor(_records([floor, 2.1]), {"job0": floor})
    with pytest.raises(CheckFailed, match="below the link-rate floor"):
        checks.check_allreduce_floor(_records([2.1, 0.99 * floor]), {"job0": floor})


def test_scheme_order_and_byte_identity():
    checks.check_not_worse(1.0, 1.0)
    with pytest.raises(CheckFailed, match="greedy"):
        checks.check_not_worse(1.1, 1.0)
    checks.check_identical("out.csv", b"a,b\n", b"a,b\n")
    with pytest.raises(CheckFailed, match="different bytes"):
        checks.check_identical("out.csv", b"a,b\n", b"a,c\n")


def test_ring_edges_skip_same_host_pairs():
    # tp=pp=1, dp=3: replicas 0 and 1 share a host, replica 2 is elsewhere
    placement = (Endpoint(0, 0, 0), Endpoint(0, 0, 1), Endpoint(1, 0, 0))
    edges = checks.ring_edges(placement, tp=1, pp=1, dp=3)
    assert edges == [(placement[1], placement[2]), (placement[2], placement[0])]


def _row(scenario="s:k8", job="job0", iteration=0, start=0.0, end=1.0, volume=10, port=""):
    return {
        "scenario": scenario, "scheme": "greedy", "seed": "0", "job": job,
        "iteration": str(iteration), "commodity": f"{job}:it{iteration}",
        "volume_bytes": str(volume), "start_s": repr(start), "end_s": repr(end),
        "udp_port": str(port),
    }


def test_trace_totals_reject_a_lost_flow_or_wrong_volume():
    rows = [_row(), _row(iteration=1, start=1.0, end=2.0)]
    checks.check_trace_totals(rows, {"s:k8": (2, 20)})
    with pytest.raises(CheckFailed, match="placements give"):
        checks.check_trace_totals(rows[:1], {"s:k8": (2, 20)})
    with pytest.raises(CheckFailed, match="placements give"):
        checks.check_trace_totals([rows[0], dict(rows[1], volume_bytes="11")], {"s:k8": (2, 20)})
    with pytest.raises(CheckFailed, match="trace scenarios"):
        checks.check_trace_totals(rows, {"s:k8": (2, 20), "s:k4": (2, 20)})


def test_barrier_rejects_an_early_next_iteration():
    checks.check_barrier([_row(end=1.0), _row(iteration=1, start=1.0, end=2.0)])
    with pytest.raises(CheckFailed, match="starts at"):
        checks.check_barrier([_row(end=1.0), _row(iteration=1, start=0.5, end=2.0)])


def test_failure_checks():
    checks.check_stranded("s:k8", 3)
    with pytest.raises(CheckFailed, match="stranded no elephant"):
        checks.check_stranded("s:k8", 0)
    failed = frozenset({5})
    on_dead = checks.PORT_BASE + 5
    # ending before the controller reacted is allowed; after it, not
    checks.check_failed_spines_unused([_row(end=1.0, port=on_dead)], failed, after_s=1.0)
    checks.check_failed_spines_unused([_row(end=3.0, port=checks.PORT_BASE + 4)], failed, 1.0)
    with pytest.raises(CheckFailed, match="on failed spine 5"):
        checks.check_failed_spines_unused([_row(end=1.5, port=on_dead)], failed, after_s=1.0)
