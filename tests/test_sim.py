import contextlib
import dataclasses
import math
from collections import Counter
from itertools import compress
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from closroute import routing, sim
from closroute.cli import measure_scheme_runtime
from closroute.rates import LinkRows, RateAllocation, waterfill
from closroute.sim import (
    ControllerModel,
    FailurePlan,
    SimInvariantError,
    run_scenario,
    stable_seed,
)
from closroute.topology import (
    INTRA_HOST,
    INTRA_TOR,
    SPINE,
    Classified,
    Route,
    build_topology,
    classify,
    fail_spines,
    route_link_rows,
)
from closroute.workload import (
    MODEL_CATALOG,
    HardwareModel,
    Job,
    ModelConfig,
    build_rings,
    compute_phase_duration,
    place_job,
    ring_allreduce_commodities,
)

FAST_HW = HardwareModel(peak_flops=312e12, utilization=0.3, tokens_per_batch=2e4)


def make_job(topo, model, dp, seed=0, iters=2, occupied=frozenset(), job_id=None):
    placement = place_job(topo, model, dp, seed, occupied)
    return Job(job_id or f"{model.name}-{seed}", model, dp, 0.0, iters, placement)


@pytest.fixture(scope="module")
def cluster():
    return build_topology(32, 64, 4, 8, 100e9)


# one replica = exactly one 8-NIC host, so ring edges cross the network
MINI = ModelConfig("MINI", 4e9, tp=4, pp=2)


def test_single_bloom_job_allreduce_time(cluster):
    job = make_job(cluster, MODEL_CATALOG["BLOOM"], dp=8, seed=0, iters=2)
    result = run_scenario(cluster, [job], ControllerModel(scheme="greedy"), seed=0)
    assert len(result.records) == 2
    # 25666666668 B/edge at 100 Gbps plus the 10 ms controller round trip
    expected = 25666666668 * 8 / 100e9 + 10e-3
    for rec in result.records:
        assert rec.allreduce_time == pytest.approx(expected, rel=1e-6)
        assert len(rec.flow_records) == 48 * 8
        for cid, fct, throughput in rec.flow_records:
            assert throughput == pytest.approx(25666666668 * 8 / fct, rel=1e-9)


def test_determinism_byte_identical_results(cluster):
    job = make_job(cluster, MODEL_CATALOG["GPT-3"], dp=2, seed=4, iters=2)
    plan = FailurePlan(times=(1.0,), counts=(3,), seed=11)
    runs = [
        run_scenario(cluster, [job], ControllerModel(scheme="greedy"), failures=plan, seed=9)
        for _ in range(2)
    ]
    assert repr(runs[0].records) == repr(runs[1].records)
    assert runs[0].flow_log == runs[1].flow_log
    assert runs[0].controller_log == runs[1].controller_log


def test_degenerate_job_without_communication(cluster):
    job = make_job(cluster, MINI, dp=1, seed=2, iters=3)  # rings of size 1
    result = run_scenario(cluster, [job], ControllerModel(scheme="greedy"), seed=0)
    assert [r.allreduce_time for r in result.records] == [0.0, 0.0, 0.0]
    assert all(r.flow_records == () for r in result.records)
    assert len(result.flow_log) == 0 and list(result.flow_log) == []


def test_flow_log_counts_replays_and_compares_its_rows(cluster):
    first = make_job(cluster, MINI, dp=4, seed=8, iters=2, job_id="a")
    second = make_job(cluster, MINI, dp=2, seed=9, iters=3,
                      occupied=frozenset(first.placement), job_id="b")
    plan = FailurePlan(times=(0.4,), counts=(8,), seed=3)
    result, again, other = (
        run_scenario(cluster, [first, second], ControllerModel(scheme=scheme),
                     hardware=FAST_HW, failures=plan, seed=4)
        for scheme in ("greedy", "greedy", "ecmp")
    )
    log = result.flow_log
    records = {cid: (fct, throughput)
               for r in result.records for cid, fct, throughput in r.flow_records}
    assert len(log) == sum(len(r.flow_records) for r in result.records) == len(records) > 0
    rows = list(log)
    assert rows == list(log) and len(rows) == len(log)
    assert [e["end_s"] for e in rows] == sorted(e["end_s"] for e in rows)  # completion order
    assert {e["commodity"] for e in rows} == set(records)
    assert all(records[e["commodity"]][0] == e["end_s"] - e["start_s"] for e in rows)
    assert again.flow_log == log and other.flow_log != log
    # the batches carry the engine's FCT and throughput, row for row
    assert [
        flow for b in log.batches
        for flow in zip(b.cid.tolist(), b.fct.tolist(), b.throughput.tolist())
    ] == [(e["commodity"], *records[e["commodity"]]) for e in rows]
    # a record holds its job iteration's rows of the batches, by id: MINI's
    # template emits r1.0 before r0.1, so neither emission nor completion
    # order is id order
    iteration_rows = {}
    for b in log.batches:
        for j, it, flow in zip(b.job.tolist(), b.iteration.tolist(),
                               zip(b.cid.tolist(), b.fct.tolist(), b.throughput.tolist())):
            iteration_rows.setdefault((log.templates[j].job_id, it), []).append(flow)
    assert len(iteration_rows) == len(result.records) == 2 + 3
    for r in result.records:
        ids = [cid for cid, _, _ in r.flow_records]
        assert ids == sorted(ids)
        assert sorted(r.flow_records) == sorted(iteration_rows[r.job_id, r.iteration])
        assert r.allreduce_time == max(fct for _, fct, _ in r.flow_records)


# 12 pipeline stages: ring ids run r0.0 ... r0.11, and r0.11 sorts before r0.2
DEEP = ModelConfig("DEEP", 2.4e9, tp=2, pp=12)


def test_records_are_in_id_order_where_it_is_not_ring_order(cluster):
    deep = make_job(cluster, DEEP, dp=3, seed=5, iters=2, job_id="deep")
    alone = make_job(cluster, MINI, dp=1, seed=6, iters=2, occupied=frozenset(deep.placement),
                     job_id="alone")  # one replica: no ring edge leaves a host
    result = run_scenario(cluster, [deep, alone], ControllerModel(scheme="greedy"),
                          hardware=FAST_HW, seed=2)
    iteration_rows = {}
    for b in result.flow_log.batches:
        for it, flow in zip(b.iteration.tolist(),
                            zip(b.cid.tolist(), b.fct.tolist(), b.throughput.tolist())):
            iteration_rows.setdefault(it, []).append(flow)
    by_job = {(r.job_id, r.iteration): r for r in result.records}
    assert set(by_job) == {("deep", 0), ("deep", 1), ("alone", 0), ("alone", 1)}
    for it in (0, 1):
        record = by_job["deep", it]
        ids = [cid for cid, _, _ in record.flow_records]
        assert ids == sorted(ids)
        assert ids.index(f"deep:it{it}:r0.11:e0") < ids.index(f"deep:it{it}:r0.2:e0")
        assert sorted(record.flow_records) == sorted(iteration_rows[it])
        assert record.allreduce_time == max(fct for _, fct, _ in record.flow_records)
        assert by_job["alone", it].flow_records == ()
        assert by_job["alone", it].allreduce_time == 0.0


def test_iteration_barrier_orders_flows(cluster):
    job = make_job(cluster, MINI, dp=4, seed=3, iters=3)
    result = run_scenario(cluster, [job], ControllerModel(scheme="greedy"),
                          hardware=FAST_HW, seed=1)
    by_iter = {}
    for e in result.flow_log:
        by_iter.setdefault(e["iteration"], []).append(e)
    for it in range(1, 3):
        prev_end = max(e["end_s"] for e in by_iter[it - 1])
        next_start = min(e["start_s"] for e in by_iter[it])
        assert next_start >= prev_end


def test_flow_conservation_is_enforced(cluster):
    # conservation is checked inside the engine; a finished run implies every
    # flow moved its whole volume. verify externally from the flow log too.
    job = make_job(cluster, MINI, dp=8, seed=5, iters=2)
    result = run_scenario(cluster, [job], ControllerModel(scheme="greedy"),
                          hardware=FAST_HW, seed=2)
    for e in result.flow_log:
        assert e["end_s"] > e["start_s"]
    total = sum(e["volume_bytes"] for e in result.flow_log)
    assert total == 2 * sum(e["volume_bytes"] for e in result.flow_log if e["iteration"] == 0)


def test_elephants_wait_reaction_latency_and_mice_do_not(cluster):
    latency = 0.25
    job = make_job(cluster, MINI, dp=2, seed=6, iters=1)
    controller = ControllerModel(scheme="greedy", reaction_latency=latency)
    result = run_scenario(cluster, [job], controller, hardware=FAST_HW, seed=3)
    # every network flow here is an elephant: nothing can finish before the
    # controller answers
    volume_bits = min(e["volume_bytes"] for e in result.flow_log) * 8
    for e in result.flow_log:
        assert e["end_s"] - e["start_s"] >= latency + volume_bits / 100e9 - 1e-9

    instant = ControllerModel(scheme="greedy", reaction_latency=0.0)
    quick = run_scenario(cluster, [job], instant, hardware=FAST_HW, seed=3)
    for e in quick.flow_log:
        assert e["end_s"] - e["start_s"] < latency


def test_spine_failure_stalls_and_reroutes(cluster):
    job = make_job(cluster, MODEL_CATALOG["BLOOM"], dp=8, seed=0, iters=1)
    base = run_scenario(cluster, [job], ControllerModel(scheme="greedy"), seed=0)
    base_time = base.records[0].allreduce_time

    # fail 8 spines mid-transfer; the run must still complete, more slowly
    plan = FailurePlan(times=(1.0,), counts=(8,), seed=7)
    failed = run_scenario(cluster, [job], ControllerModel(scheme="greedy"),
                          failures=plan, seed=0)
    assert failed.records[0].allreduce_time >= base_time
    # all post-failure decisions route only over surviving spines
    last = failed.controller_log[-1]
    assert last["max_spine_load"] >= 1


def test_precomputed_failure_reaction_is_instant(cluster):
    job = make_job(cluster, MINI, dp=4, seed=8, iters=1)
    plan = FailurePlan(times=(0.05,), counts=(16,), seed=3)
    slow = run_scenario(
        cluster, [job],
        ControllerModel(scheme="greedy", reaction_latency=0.2),
        hardware=FAST_HW, failures=plan, seed=4,
    )
    fast = run_scenario(
        cluster, [job],
        ControllerModel(scheme="greedy", reaction_latency=0.2, precomputed_failures=True),
        hardware=FAST_HW, failures=plan, seed=4,
    )
    assert fast.records[0].allreduce_time <= slow.records[0].allreduce_time


def test_ecmp_fallback_start_transmits_during_wait(cluster):
    job = make_job(cluster, MINI, dp=2, seed=9, iters=1)
    wait = ControllerModel(scheme="greedy", reaction_latency=0.5)
    fallback = ControllerModel(scheme="greedy", reaction_latency=0.5, ecmp_fallback_start=True)
    slow = run_scenario(cluster, [job], wait, hardware=FAST_HW, seed=5)
    quick = run_scenario(cluster, [job], fallback, hardware=FAST_HW, seed=5)
    assert quick.records[0].allreduce_time < slow.records[0].allreduce_time


# its ring edges, 2e8 bytes, are mice under a 1e9-byte threshold; MINI's are
# elephants
TINY = ModelConfig("TINY", 4e8, tp=4, pp=2)


@pytest.mark.parametrize("fallback", [False, True])
@pytest.mark.parametrize("scheme", routing.SCHEME_NAMES)
def test_engine_builds_no_route_or_rate_dict(cluster, monkeypatch, scheme, fallback):
    """The engine reads a scheme's spines and waterfill's rates as columns:
    neither dict view is built during a run, whatever the scheme."""
    elephants = make_job(cluster, MINI, dp=2, seed=6, iters=2, job_id="e")
    mice = make_job(cluster, TINY, dp=2, seed=7, iters=2,
                    occupied=frozenset(elephants.placement), job_id="m")
    # 8 of 32 spines fail during the first all-reduce
    plan = FailurePlan(times=(compute_phase_duration(elephants, FAST_HW) + 0.01,), counts=(8,),
                       seed=2)
    controller = ControllerModel(scheme=scheme, elephant_threshold=1e9,
                                 ecmp_fallback_start=fallback)

    def refuse(view):
        raise AssertionError(f"a {type(view).__name__} built its dict")

    monkeypatch.setattr(routing.PathChoice, "assignment", property(refuse))
    monkeypatch.setattr(RateAllocation, "rates", property(refuse))
    result = run_scenario(cluster, [elephants, mice], controller, hardware=FAST_HW,
                          failures=plan, seed=1)
    assert result.controller_log and len(result.records) == 4
    volumes = {e["volume_bytes"] for e in result.flow_log}
    assert min(volumes) < 1e9 <= max(volumes)


def _run_ecmp_recording(cluster, monkeypatch):
    """Two jobs under ECMP with 8 spines failing mid-transfer; also returns,
    per scheme call, the time, the topology and the elephant ids it was given."""
    first = make_job(cluster, MINI, dp=4, seed=8, iters=2, job_id="a")
    second = make_job(cluster, MINI, dp=2, seed=9, iters=3,
                      occupied=frozenset(first.placement), job_id="b")
    calls, engines = [], []
    assign = routing.assign_by_scheme
    run = sim._Engine.run

    def running(engine):
        engines.append(engine)
        return run(engine)

    def recording(scheme, commodities, topo, **kwargs):
        calls.append((engines[-1].now, topo, [c.id for c in commodities]))
        return assign(scheme, commodities, topo, **kwargs)

    monkeypatch.setattr(sim._Engine, "run", running)
    monkeypatch.setattr(sim, "assign_by_scheme", recording)
    plan = FailurePlan(times=(0.4,), counts=(8,), seed=3)
    result = run_scenario(cluster, [first, second], ControllerModel(scheme="ecmp"),
                          hardware=FAST_HW, failures=plan, seed=4)
    return result, calls


def test_ecmp_decisions_hash_only_unrouted_elephants(cluster, monkeypatch):
    result, calls = _run_ecmp_recording(cluster, monkeypatch)
    # a decision that finds every elephant routed logs its entry but calls no
    # scheme; every call is a logged decision's and routes an elephant
    logged = {e["time"]: e for e in result.controller_log}
    assert len(logged) == len(result.controller_log) > len(calls)
    assert all(t in logged and ids for t, _, ids in calls)
    topos = [topo for _, topo, _ in calls]
    failed_at = next(i for i, topo in enumerate(topos) if topo is not topos[0])
    assert topos[failed_at].failed_spines and all(t is topos[failed_at] for t in topos[failed_at:])
    # between failures each elephant is hashed once, however many decisions
    # it lives through
    for span in (calls[:failed_at], calls[failed_at:]):
        passed = Counter(cid for _, _, ids in span for cid in ids)
        assert set(passed.values()) == {1}
    assert any(len(ids) < logged[t]["flows"] for t, _, ids in calls)
    # the first decision after the failure hashes every active elephant
    t = calls[failed_at][0]
    active = {e["commodity"] for e in result.flow_log if e["start_s"] < t < e["end_s"]}
    assert set(calls[failed_at][2]) == active
    assert len(active) == logged[t]["flows"]

    # a fresh topology object at every decision defeats the reuse: the scheme
    # then hashes every elephant each time, with the same results
    decide = sim._Engine._on_decision

    def on_fresh_topology(engine, t):
        engine.topo = dataclasses.replace(engine.topo)
        decide(engine, t)

    monkeypatch.setattr(sim._Engine, "_on_decision", on_fresh_topology)
    full, full_calls = _run_ecmp_recording(cluster, monkeypatch)
    assert [(t, len(ids)) for t, _, ids in full_calls] == [
        (e["time"], e["flows"]) for e in full.controller_log
    ]
    assert repr(full.records) == repr(result.records)
    assert full.flow_log == result.flow_log
    assert full.controller_log == result.controller_log


def test_mice_are_hashed_in_one_call_per_emission_and_failure(cluster, monkeypatch):
    job = make_job(cluster, MINI, dp=8, seed=3, iters=2)
    mice_only = ControllerModel(scheme="greedy", elephant_threshold=1e12)
    # 8 of 32 spines fail during the first all-reduce
    plan = FailurePlan(times=(compute_phase_duration(job, FAST_HW) + 0.01,), counts=(8,), seed=2)
    hash_batch = sim.ecmp_assign
    calls = []

    def recording(commodities, topo, seed):
        calls.append([c.id for c in commodities])
        return hash_batch(commodities, topo, seed)

    def one_at_a_time(commodities, topo, seed):
        choices = [hash_batch([c], topo, seed) for c in commodities]
        return routing.PathChoice(commodities, np.concatenate([ch.kind for ch in choices]),
                                  np.concatenate([ch.spine for ch in choices]))

    monkeypatch.setattr(sim, "ecmp_assign", recording)
    result = run_scenario(cluster, [job], mice_only, hardware=FAST_HW, failures=plan, seed=1)
    emitted = [[e["commodity"] for e in result.flow_log if e["iteration"] == i] for i in (0, 1)]
    assert len(calls) == 3
    assert sorted(calls[0]) == sorted(emitted[0]) and sorted(calls[2]) == sorted(emitted[1])
    assert calls[1] and set(calls[1]) < set(emitted[0])  # the mice on a failed spine

    monkeypatch.setattr(sim, "ecmp_assign", one_at_a_time)
    single = run_scenario(cluster, [job], mice_only, hardware=FAST_HW, failures=plan, seed=1)
    assert repr(single.records) == repr(result.records)
    assert single.flow_log == result.flow_log


@pytest.mark.parametrize("threshold", [1e6, 1e12])  # a failure stalls elephants, re-hashes mice
def test_flow_table_rows_match_route_link_rows(cluster, monkeypatch, threshold):
    """The rows the engine builds piecewise (NIC ids at emission, spine links
    when routed) are those of route_link_rows for the flows' routes."""
    rewaterfill = sim._Engine._rewaterfill
    checked = []

    def checking(engine):
        f = engine.flows
        live = np.flatnonzero(f.transmitting)
        routes = [
            Route(SPINE, spine, c.src, c.dst) if spine >= 0 else Route(INTRA_TOR, None, c.src, c.dst)
            for c, spine in zip(f.commodity[live], f.spine[live].tolist())
        ]
        assert (f.links[live] == route_link_rows(engine.topo, routes)).all()
        checked.append(engine.topo.failed_spines)
        rewaterfill(engine)

    monkeypatch.setattr(sim._Engine, "_rewaterfill", checking)
    job = make_job(cluster, MINI, dp=8, seed=3, iters=2)
    plan = FailurePlan(times=(compute_phase_duration(job, FAST_HW) + 0.01,), counts=(8,), seed=2)
    controller = ControllerModel(scheme="greedy", elephant_threshold=threshold)
    run_scenario(cluster, [job], controller, hardware=FAST_HW, failures=plan, seed=1)
    assert checked[0] == frozenset() and checked[-1]


# 1.5 GB ring edges, half of MINI's 3 GB
HALF = ModelConfig("HALF", 2e9, tp=4, pp=2)


def _run_elephants_and_mice(cluster, **controller):
    """MINI's elephants and, arriving later, HALF's mice, both in flight when
    8 spines fail and again when 4 more do; returns the jobs."""
    big = make_job(cluster, MINI, dp=8, seed=3, iters=2, job_id="big")
    small = dataclasses.replace(
        make_job(cluster, HALF, dp=8, seed=4, iters=3, occupied=frozenset(big.placement),
                 job_id="small"),
        arrival_time=0.02,
    )
    plan = FailurePlan(times=(0.18, 0.2), counts=(8, 4), seed=2)
    run_scenario(cluster, [big, small], ControllerModel(elephant_threshold=2e9, **controller),
                 hardware=FAST_HW, failures=plan, seed=1)
    return [big, small]


@pytest.mark.parametrize("precomputed", [False, True])
def test_heap_holds_only_decisions_compute_phases_and_failures(cluster, monkeypatch, precomputed):
    """No event is pushed only to advance time: a completion check is no heap
    event, and a job's arrival is its first compute phase."""
    push = sim.heappush
    pushed = []

    def checking(heap, entry):
        push(heap, entry)
        pushed.append(entry)
        assert {kind for _, kind, _, _ in heap} <= {
            sim._CONTROLLER_DECISION, sim._COMPUTE_DONE, sim._SPINE_FAILURE
        }
        decisions = [t for t, kind, _, _ in heap if kind == sim._CONTROLLER_DECISION]
        assert len(decisions) == len(set(decisions))
        computing = [j for _, kind, _, j in heap if kind == sim._COMPUTE_DONE]
        assert len(computing) == len(set(computing))

    monkeypatch.setattr(sim, "heappush", checking)
    jobs = _run_elephants_and_mice(cluster, precomputed_failures=precomputed)
    first_compute = {}
    for t, kind, _, j in pushed:
        if kind == sim._COMPUTE_DONE:
            first_compute.setdefault(j, t)
    assert first_compute == {
        j: job.arrival_time + compute_phase_duration(job, FAST_HW) for j, job in enumerate(jobs)
    }
    assert sum(kind == sim._SPINE_FAILURE for _, kind, _, _ in pushed) == 2
    assert any(kind == sim._CONTROLLER_DECISION for _, kind, _, _ in pushed)


@pytest.mark.parametrize("scheme", ["greedy", "ecmp"])
def test_failure_stalls_elephants_and_rehashes_mice_in_the_link_rows(cluster, monkeypatch, scheme):
    on_failure = sim._Engine._on_failure
    seen = []

    def checking(engine, count, fseed):
        f = engine.flows
        live = np.flatnonzero(f.live)
        spine_before = f.spine[live]
        on_failure(engine, count, fseed)
        topo = engine.topo
        kinds = classify(topo, f.commodity[live].tolist())
        links = f.links[live]
        assert (links[:, 0] == kinds.nic_up).all() and (links[:, 3] == kinds.nic_down).all()
        hit = np.zeros(len(f.spine), dtype=bool)
        hit[live] = np.isin(spine_before, list(topo.failed_spines))
        stalled = hit & f.elephant
        assert (f.spine[stalled] == -1).all() and (f.rate[stalled] == 0).all()
        assert not f.transmitting[stalled].any() and (f.links[stalled, 1:3] == -1).all()
        mice = hit & ~f.elephant
        spine = f.spine[mice]
        assert np.isin(spine, topo.live_spines).all()
        assert (f.links[mice, 1] == topo.tor_up_id(f.src_tor[mice], spine)).all()
        assert (f.links[mice, 2] == topo.tor_down_id(spine, f.dst_tor[mice])).all()
        seen.append((int(stalled.sum()), int(mice.sum())))

    monkeypatch.setattr(sim._Engine, "_on_failure", checking)
    _run_elephants_and_mice(cluster, scheme=scheme)
    assert len(seen) == 2 and all(stalled and mice for stalled, mice in seen)


def assert_fresh_rates(engine, name):
    """The transmitting flows' rates are, bit for bit, what a fresh waterfill
    over the table's rows gives; the other flows' rates are 0."""
    f = engine.flows
    live = np.flatnonzero(f.transmitting)
    fresh = waterfill(LinkRows(f.cid[live], f.links[live]), engine.topo).rate
    assert f.rate[live].tobytes() == fresh.tobytes(), name
    assert not f.rate[~f.transmitting].any(), name


@pytest.mark.parametrize("fallback", [False, True])
@pytest.mark.parametrize("scheme", ["greedy", "ecmp"])
def test_every_handler_leaves_the_max_min_rates_of_its_rows(cluster, monkeypatch, scheme,
                                                             fallback):
    """After each event, the transmitting flows' rates are, bit for bit, what a
    fresh waterfill over the table's rows gives: so an ECMP decision that
    changes no row may skip the refill."""
    checked = Counter()

    def checking(name):
        handler = getattr(sim._Engine, name)

        def check(engine, *args):
            handler(engine, *args)
            assert_fresh_rates(engine, name)
            checked[name] += 1

        return check

    for name in ("_on_compute_done", "_on_completion", "_on_failure", "_on_decision"):
        monkeypatch.setattr(sim._Engine, name, checking(name))
    _run_elephants_and_mice(cluster, scheme=scheme, ecmp_fallback_start=fallback)
    assert checked["_on_failure"] == 2 and min(checked.values()) > 0 and len(checked) == 4


def test_flows_reach_the_schemes_and_the_trace_in_emission_order(cluster, monkeypatch):
    """Each decision's scheme call gets its elephants, and each completion
    batch holds its flows, in the order they were emitted: by their
    iteration's emission, then by their position in the job's template,
    though here a job of higher index emits first."""
    occupied = set()

    def arriving(model, dp, seed, job_id, arrival):
        job = make_job(cluster, model, dp, seed=seed, iters=3,
                       occupied=frozenset(occupied), job_id=job_id)
        occupied.update(job.placement)
        return dataclasses.replace(job, arrival_time=arrival)

    # c, then a, then b's mice emit, each while the others' flows are in flight;
    # a and c are alike and emit 0.1 ns apart, so their flows end in one batch
    jobs = [arriving(MINI, 8, 5, "a", 1e-10), arriving(HALF, 8, 6, "b", 0.05),
            arriving(MINI, 8, 7, "c", 0.0)]
    rank, emitters, decisions = {}, [], []
    emit, assign = sim.FlowTemplate.emit, sim.assign_by_scheme

    def recording(template, iteration):
        ids, commodities = emit(template, iteration)
        rank.update((cid, (len(emitters), p)) for p, cid in enumerate(ids))
        emitters.append(template.job_id)
        return ids, commodities

    def deciding(scheme, commodities, *args, **kwargs):
        decisions.append([c.id for c in commodities])
        return assign(scheme, commodities, *args, **kwargs)

    monkeypatch.setattr(sim.FlowTemplate, "emit", recording)
    monkeypatch.setattr(sim, "assign_by_scheme", deciding)
    controller = ControllerModel(scheme="greedy", elephant_threshold=2e9)
    result = run_scenario(cluster, jobs, controller, hardware=FAST_HW, seed=1)
    assert emitters[:3] == ["c", "a", "b"]
    batches = [b.cid.tolist() for b in result.flow_log.batches]
    for name, groups in (("decision", decisions), ("completion batch", batches)):
        # some of them hold the flows of two emissions, of two jobs
        assert any(len({rank[cid][0] for cid in cids}) > 1 for cids in groups), name
        for i, cids in enumerate(groups):
            order = [rank[cid] for cid in cids]
            assert order == sorted(order), f"{name} {i} is not in emission order"


def test_concurrent_jobs_share_fairly(cluster):
    occupied = set()
    jobs = []
    for i in range(3):
        job = make_job(cluster, MINI, dp=8, seed=20 + i, iters=2,
                       occupied=frozenset(occupied), job_id=f"job{i}")
        occupied.update(job.placement)
        jobs.append(job)
    result = run_scenario(cluster, jobs, ControllerModel(scheme="greedy"),
                          hardware=FAST_HW, seed=6)
    assert {r.job_id for r in result.records} == {"job0", "job1", "job2"}
    assert all(len(r.flow_records) > 0 for r in result.records)


def test_flow_log_carries_udp_ports(cluster):
    job = make_job(cluster, MINI, dp=2, seed=11, iters=1)
    result = run_scenario(cluster, [job], ControllerModel(scheme="greedy"),
                          hardware=FAST_HW, seed=7)
    spine_flows = [e for e in result.flow_log if e["udp_port"] is not None]
    assert spine_flows, "expected at least one spine-routed flow"
    for e in spine_flows:
        assert 49152 <= e["udp_port"] < 49152 + 32


def test_runtime_measurement_shape_and_ordering(cluster):
    rows = measure_scheme_runtime("greedy", [0, 100], cluster, seed=0, repetitions=3)
    assert [count for count, _ in rows] == [0, 100]
    assert all(median >= 0.0 for _, median in rows)

    greedy = measure_scheme_runtime("greedy", [1000], cluster, seed=0, repetitions=3)
    anneal = measure_scheme_runtime("annealing", [1000], cluster, seed=0, repetitions=3)
    assert greedy[0][1] <= anneal[0][1]


def test_stable_seed_is_stable():
    assert stable_seed(1, "ecmp") == stable_seed(1, "ecmp")
    assert stable_seed(1, "ecmp") != stable_seed(2, "ecmp")


def test_completion_that_cannot_progress_raises(cluster, monkeypatch):
    # with a tolerance no flow can meet, every current completion check finds
    # nothing done; once the next finish time is now, the engine must stop
    monkeypatch.setattr(sim, "DONE_SLACK_BITS", -math.inf)
    checks = []
    on_completion = sim._Engine._on_completion

    def counting(engine):
        checks.append(engine.now)
        assert len(checks) < 1000, "completion checks keep firing without progress"
        on_completion(engine)

    monkeypatch.setattr(sim._Engine, "_on_completion", counting)
    job = make_job(cluster, MINI, dp=2, seed=6, iters=1)
    with pytest.raises(SimInvariantError, match="none would finish"):
        run_scenario(cluster, [job], ControllerModel(scheme="greedy"), hardware=FAST_HW, seed=3)


@pytest.mark.parametrize("t", [math.nan, -1.0])
def test_engine_refuses_a_nan_or_backward_time(cluster, t):
    # after a NaN time every later time is NaN, which the watchdog never compares past
    engine = sim._Engine(cluster, [], ControllerModel(), FAST_HW, None, seed=0)
    with pytest.raises(SimInvariantError):
        engine._advance(t)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
def test_controller_and_failure_plan_refuse_bad_values(bad):
    with pytest.raises(ValueError, match="latency and threshold"):
        ControllerModel(reaction_latency=bad)
    with pytest.raises(ValueError, match="latency and threshold"):
        ControllerModel(elephant_threshold=bad)
    with pytest.raises(ValueError, match="failure times"):
        FailurePlan(times=(1.0, bad), counts=(1, 1))


SMALL_FABRIC = build_topology(4, 4, 2, 2, 100e9)  # 16 GPUs

job_specs = st.lists(
    st.tuples(
        st.sampled_from([(1, 1), (2, 1), (1, 2)]),  # tp, pp
        st.integers(1, 4),  # dp
        st.sampled_from([1e5, 1e8, 1e9]),  # parameters
        st.floats(0.0, 0.2),  # arrival time
        st.integers(1, 3),  # iterations
        st.integers(0, 2**16),  # placement seed
    ),
    min_size=1,
    max_size=3,
)
# spine failures at random times; one of the four spines always survives
failure_events = st.lists(st.tuples(st.floats(0.0, 1.5), st.integers(1, 3)), max_size=2).filter(
    lambda events: sum(k for _, k in events) <= 3
)


# the other parts of a generated scenario on SMALL_FABRIC (see small_scenario)
scenario_knobs = dict(
    failures=failure_events,
    scheme=st.sampled_from(["greedy", "ecmp"]),
    threshold=st.sampled_from([1e6, 1e12]),  # bytes; at 1e12 every flow is a mouse
    fallback=st.booleans(),
    precomputed=st.booleans(),
    seed=st.integers(0, 2**16),
)


def small_scenario(specs, failures, scheme, threshold, fallback, precomputed, seed):
    """The jobs of specs that fit on SMALL_FABRIC, in order, the failure plan
    and the controller, drawn from job_specs and scenario_knobs."""
    jobs, occupied = [], set()
    for i, ((tp, pp), dp, params, arrival, iters, place_seed) in enumerate(specs):
        model = ModelConfig(f"M{i}", params, tp=tp, pp=pp)
        if len(occupied) + model.gpus_per_replica * dp > SMALL_FABRIC.num_endpoints:
            continue
        placement = place_job(SMALL_FABRIC, model, dp, place_seed, frozenset(occupied))
        occupied.update(placement)
        jobs.append(Job(f"job{i}", model, dp, arrival, iters, placement))
    assume(jobs)
    plan = FailurePlan(tuple(t for t, _ in failures), tuple(k for _, k in failures), seed)
    controller = ControllerModel(scheme=scheme, elephant_threshold=threshold,
                                 ecmp_fallback_start=fallback, precomputed_failures=precomputed)
    return jobs, plan, controller


@settings(derandomize=True, deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.too_slow])
@given(specs=job_specs, **scenario_knobs)
def test_every_flow_completes_once(specs, failures, scheme, threshold, fallback, precomputed,
                                   seed):
    jobs, plan, controller = small_scenario(specs, failures, scheme, threshold, fallback,
                                            precomputed, seed)

    result = run_scenario(SMALL_FABRIC, jobs, controller, hardware=FAST_HW,
                          failures=plan, seed=seed)

    emitted = [
        c.id
        for job in jobs
        for iteration in range(job.num_iterations)
        for ring in build_rings(job)
        if len(ring.members) > 1
        for c in ring_allreduce_commodities(ring, iteration)
        if (c.src.tor, c.src.host) != (c.dst.tor, c.dst.host)
    ]
    logged = Counter(e["commodity"] for e in result.flow_log)
    assert logged == Counter(emitted)
    assert set(logged.values()) <= {1}
    for job in jobs:
        iterations = [r.iteration for r in result.records if r.job_id == job.id]
        assert iterations == list(range(job.num_iterations))
    # a flow still running when a spine fails finishes on a live spine
    topo, failed_at = SMALL_FABRIC, []
    for i in sorted(range(len(plan.times)), key=lambda i: plan.times[i]):
        topo = fail_spines(topo, plan.counts[i], stable_seed(plan.seed, i))
        failed_at.append((plan.times[i], topo.failed_spines))
    for e in result.flow_log:
        if e["udp_port"] is not None:
            spine = e["udp_port"] - sim.DEFAULT_PORT_BASE
            assert not any(spine in failed for t, failed in failed_at if e["end_s"] > t)


def test_completions_refill_exactly_when_a_survivor_shares_a_link():
    """After every handler, on generated scenarios, the transmitting flows'
    rates are, bit for bit, what a fresh waterfill over the table's rows
    gives, though a completion refills them only when a finished flow crossed
    a link that a flow still transmitting crosses. Both kinds of completion
    occur."""
    tally = Counter()
    rewaterfill = sim._Engine._rewaterfill

    def counting(engine):
        tally["refills"] += 1
        rewaterfill(engine)

    def checking(name):
        handler = getattr(sim._Engine, name)

        def check(engine, *args):
            refills, finished = tally["refills"], len(engine.finished)
            handler(engine, *args)
            assert_fresh_rates(engine, name)
            running = engine.flows.live.any()
            if name == "_on_completion" and len(engine.finished) > finished and running:
                tally["refilled" if tally["refills"] > refills else "skipped"] += 1

        return check

    # which generated scenarios refill at a completion depends on the modules
    # that hypothesis mines for constants; these two do, two jobs overlapping
    no_failure = dict(failures=[], threshold=1e6, fallback=False, precomputed=False)

    @settings(derandomize=True, deadline=None, max_examples=80,
              suppress_health_check=[HealthCheck.too_slow])
    @given(specs=job_specs, **scenario_knobs)
    @example(specs=[((2, 1), 4, 1e9, 0.11, 3, 43), ((1, 2), 3, 1e9, 0.12, 2, 41)],
             scheme="ecmp", seed=88, **no_failure)
    @example(specs=[((1, 2), 3, 1e5, 0.15, 2, 80), ((1, 2), 2, 1e5, 0.15, 2, 30)],
             scheme="greedy", seed=52, **no_failure)
    def run_checked(specs, failures, scheme, threshold, fallback, precomputed, seed):
        jobs, plan, controller = small_scenario(specs, failures, scheme, threshold, fallback,
                                                precomputed, seed)
        run_scenario(SMALL_FABRIC, jobs, controller, hardware=FAST_HW, failures=plan, seed=seed)

    with contextlib.ExitStack() as patches:
        patches.enter_context(mock.patch.object(sim._Engine, "_rewaterfill", counting))
        for name in ("_on_compute_done", "_on_completion", "_on_failure", "_on_decision"):
            patches.enter_context(mock.patch.object(sim._Engine, name, checking(name)))
        run_checked()
    assert tally["skipped"] and tally["refilled"], tally


def test_finish_times_keep_the_bits_each_flow_moved():
    """A reference for the engine's bit arithmetic on generated scenarios: the
    test integrates each slot's rate x dt at every step of time, as an engine
    that subtracts the bits moved at every event would. Every finished flow
    moved its volume, within the completion tolerance; after every handler, a
    transmitting flow's rate x (finish - now), and a waiting flow's bits
    remaining, are its volume less the bits it moved. Flows stall on a failure
    and finish after it."""
    tally = Counter()
    advance = sim._Engine._advance

    def integrating(engine, t):
        f = engine.flows
        moved = engine.__dict__.setdefault("moved", np.zeros(len(f.volume)))
        moved += f.rate * (t - engine.now)
        advance(engine, t)

    def assert_bits_left(engine, name):
        f, moved = engine.flows, engine.moved
        tolerance = sim.DONE_RTOL * f.volume + sim.DONE_SLACK_BITS
        on = f.transmitting
        left = f.rate[on] * (f.finish[on] - engine.now)
        assert (abs(left - (f.volume - moved)[on]) <= tolerance[on]).all(), name
        waiting = f.live & ~f.transmitting
        assert (abs(f.remaining - (f.volume - moved))[waiting] <= tolerance[waiting]).all(), name
        assert (f.finish[~on] == math.inf).all(), name

    def checking(name):
        handler = getattr(sim._Engine, name)

        def check(engine, *args):
            f = engine.flows  # _advance, which sets engine.moved, runs before every handler
            if name == "_on_compute_done":  # a new iteration's flows have moved nothing
                (j,) = args
                engine.moved[f.first[j]:f.first[j + 1]] = 0.0
            live, moving = f.live.copy(), f.transmitting.copy()
            handler(engine, *args)
            assert_bits_left(engine, name)
            done = live & ~f.live
            assert (abs(engine.moved - f.volume)[done]
                    <= (sim.DONE_RTOL * f.volume + sim.DONE_SLACK_BITS)[done]).all()
            tally["finished"] += int(done.sum())
            tally["stalled"] += int((moving & f.live & ~f.transmitting).sum())

        return check

    # the examples that a failure stalls depend on the modules that hypothesis
    # mines for constants; in these two, 2 of 4 spines fail under elephants
    elephants = dict(threshold=1e6, precomputed=False)

    @settings(derandomize=True, deadline=None, max_examples=80,
              suppress_health_check=[HealthCheck.too_slow])
    @given(specs=job_specs, **scenario_knobs)
    @example(specs=[((1, 1), 4, 1e9, 0.0, 2, 7), ((2, 1), 2, 1e9, 0.05, 2, 3)],
             failures=[(0.45, 2)], scheme="greedy", fallback=False, seed=1, **elephants)
    @example(specs=[((1, 2), 4, 1e9, 0.0, 2, 11)], failures=[(0.3, 2)], scheme="ecmp",
             fallback=True, seed=9, **elephants)
    def run_checked(specs, failures, scheme, threshold, fallback, precomputed, seed):
        jobs, plan, controller = small_scenario(specs, failures, scheme, threshold, fallback,
                                                precomputed, seed)
        run_scenario(SMALL_FABRIC, jobs, controller, hardware=FAST_HW, failures=plan, seed=seed)

    with contextlib.ExitStack() as patches:
        patches.enter_context(mock.patch.object(sim._Engine, "_advance", integrating))
        for name in ("_on_compute_done", "_on_completion", "_on_failure", "_on_decision"):
            patches.enter_context(mock.patch.object(sim._Engine, name, checking(name)))
        run_checked()
    assert tally["finished"] and tally["stalled"], tally


def test_ring_commodities_are_built_once_per_ring(cluster, monkeypatch):
    calls = []
    reference = sim.ring_allreduce_commodities

    def counting(ring, iteration):
        calls.append((ring.coordinate, iteration))
        return reference(ring, iteration)

    monkeypatch.setattr(sim, "ring_allreduce_commodities", counting)
    job = make_job(cluster, MINI, dp=4, seed=3, iters=3)
    result = run_scenario(cluster, [job], ControllerModel(scheme="greedy"), hardware=FAST_HW,
                          seed=1)
    assert [r.iteration for r in result.records] == [0, 1, 2]
    assert sorted(calls) == sorted((ring.coordinate, 0) for ring in build_rings(job))


@settings(derandomize=True, deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    specs=st.lists(
        st.tuples(
            st.sampled_from([(1, 1), (2, 1), (1, 2)]),  # tp, pp
            st.integers(1, 4),  # dp
            st.sampled_from([1e5, 1e8, 1e9]),  # parameters
            st.integers(1, 4),  # iterations
            st.integers(0, 2**16),  # placement seed
        ),
        min_size=1,
        max_size=3,
    ),
    threshold=st.sampled_from([0.0, 1e6, 1e9, 1e12]),  # bytes
)
def test_emitted_flows_match_the_reference_commodities(specs, threshold):
    """Every iteration the engine emits, from the job's template, what
    ring_allreduce_commodities gives for that iteration less the same-host
    edges, with classify's kinds and the threshold's elephants."""
    jobs, occupied = [], set()
    for i, ((tp, pp), dp, params, iters, place_seed) in enumerate(specs):
        model = ModelConfig(f"M{i}", params, tp=tp, pp=pp)
        if len(occupied) + model.gpus_per_replica * dp > SMALL_FABRIC.num_endpoints:
            continue
        placement = place_job(SMALL_FABRIC, model, dp, place_seed, frozenset(occupied))
        occupied.update(placement)
        jobs.append(Job(f"job{i}", model, dp, 0.0, iters, placement))
    assume(jobs)
    emitted = {job.id: [] for job in jobs}
    emit = sim.FlowTemplate.emit

    def recording(template, iteration):
        ids, commodities = emit(template, iteration)
        assert ids == [c.id for c in commodities]
        emitted[template.job_id].append((commodities, template.kinds, template.elephant))
        return ids, commodities

    with mock.patch.object(sim.FlowTemplate, "emit", recording):
        run_scenario(SMALL_FABRIC, jobs, ControllerModel(elephant_threshold=threshold),
                     hardware=FAST_HW, seed=0)

    for job in jobs:
        expected = []
        for iteration in range(job.num_iterations):
            reference = [
                c for ring in build_rings(job) if len(ring.members) >= 2
                for c in ring_allreduce_commodities(ring, iteration)
            ]
            kinds = classify(SMALL_FABRIC, reference)
            on_net = kinds.kind != INTRA_HOST
            if on_net.any():
                expected.append((list(compress(reference, on_net)),
                                 Classified(*(column[on_net] for column in kinds))))
        assert len(emitted[job.id]) == len(expected)
        for (commodities, kinds, elephant), (reference, reference_kinds) in zip(emitted[job.id],
                                                                                expected):
            assert commodities == reference
            for column, reference_column in zip(kinds, reference_kinds):
                assert column.tolist() == reference_column.tolist()
            assert elephant.tolist() == [c.volume >= threshold for c in reference]
