import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_topology import all_endpoints

from closroute.topology import Endpoint, build_topology
from closroute.workload import (
    MODEL_CATALOG,
    CommoditySpec,
    HardwareModel,
    Job,
    ModelConfig,
    Ring,
    arrival_schedule,
    build_rings,
    compute_phase_duration,
    place_job,
    ring_allreduce_commodities,
)


@pytest.fixture(scope="module")
def cluster():
    return build_topology(32, 64, 4, 8, 100e9)


def make_job(topo, name, dp, seed=0, iters=1):
    model = MODEL_CATALOG[name]
    placement = place_job(topo, model, dp, seed)
    return Job(f"{name.lower()}-{seed}", model, dp, 0.0, iters, placement)


def test_place_bloom_uses_384_gpus(cluster):
    placement = place_job(cluster, MODEL_CATALOG["BLOOM"], 8, seed=0)
    assert len(placement) == 384
    assert len(set(placement)) == 384


def test_place_is_reproducible(cluster):
    a = place_job(cluster, MODEL_CATALOG["GPT-3"], 4, seed=1)
    b = place_job(cluster, MODEL_CATALOG["GPT-3"], 4, seed=1)
    assert a == b


def test_place_consumes_hosts_contiguously(cluster):
    placement = place_job(cluster, MODEL_CATALOG["BLOOM"], 8, seed=3)
    # walking the placement, a host's NICs appear as an uninterrupted block
    seen_done = set()
    current = None
    for ep in placement:
        host = (ep.tor, ep.host)
        if host != current:
            assert host not in seen_done
            if current is not None:
                seen_done.add(current)
            current = host


def test_place_forced_when_exactly_enough_free():
    topo = build_topology(2, 2, 2, 2, 1.0)  # 8 endpoints
    model = ModelConfig("toy", 1e6, tp=2, pp=2)
    placement = place_job(topo, model, 2, seed=5)
    assert sorted(placement) == sorted(all_endpoints(topo))


def test_place_rejects_when_cluster_too_small():
    topo = build_topology(2, 2, 1, 1, 1.0)
    with pytest.raises(ValueError):
        place_job(topo, MODEL_CATALOG["BLOOM"], 2, seed=0)


def test_place_respects_occupied_set(cluster):
    first = place_job(cluster, MODEL_CATALOG["GPT-3"], 2, seed=0)
    second = place_job(cluster, MODEL_CATALOG["GPT-3"], 2, seed=0, occupied=set(first))
    assert not set(first) & set(second)


def walk_place_job(topo, model, dp, seed, occupied):
    """Reference placement: walk every endpoint of the fabric, group the free
    ones by host, and take hosts in a seeded shuffle of their sorted keys."""
    needed = model.gpus_per_replica * dp
    free_by_host = {}
    for ep in all_endpoints(topo):
        if ep not in occupied:
            free_by_host.setdefault((ep.tor, ep.host), []).append(ep)
    total_free = sum(len(v) for v in free_by_host.values())
    if total_free < needed:
        raise ValueError(f"need {needed} free endpoints, only {total_free} available")
    host_order = random.Random(seed).sample(sorted(free_by_host), len(free_by_host))
    return tuple([ep for host in host_order for ep in free_by_host[host]][:needed])


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    shape=st.tuples(st.integers(2, 4), st.integers(1, 3), st.integers(1, 4)),
    tp=st.integers(1, 4),
    dp=st.integers(1, 4),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_place_job_matches_endpoint_walk(shape, tp, dp, seed, data):
    topo = build_topology(2, *shape, 1.0)
    occupied = data.draw(st.frozensets(st.sampled_from(all_endpoints(topo))))
    model = ModelConfig("M", 1e9, tp=tp, pp=1)
    try:
        expected = walk_place_job(topo, model, dp, seed, occupied)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            place_job(topo, model, dp, seed, occupied)
        assert str(raised.value) == str(exc)
        return
    assert place_job(topo, model, dp, seed, occupied) == expected


def test_bloom_rings_and_shard_size(cluster):
    job = make_job(cluster, "BLOOM", dp=8)
    rings = build_rings(job)
    assert len(rings) == 48
    assert all(len(r.members) == 8 for r in rings)
    assert rings[0].shard_bytes == math.ceil(176e9 * 4 / 48)


def test_llama_rings_formula(cluster):
    job = make_job(cluster, "LLaMA2-70B", dp=4)
    rings = build_rings(job)
    assert len(rings) == 128
    assert all(len(r.members) == 4 for r in rings)
    assert rings[0].shard_bytes == 70e9 * 4 / 128  # divides exactly


def test_rings_partition_the_placement(cluster):
    job = make_job(cluster, "GPT-3", dp=4)
    rings = build_rings(job)
    members = [ep for ring in rings for ep in ring.members]
    assert len(members) == len(job.placement)
    assert set(members) == set(job.placement)


def test_ring_member_order_is_replica_major(cluster):
    job = make_job(cluster, "GPT-3", dp=2)
    tp, pp = job.model.tp, job.model.pp
    rings = build_rings(job)
    for ring in rings:
        i, j = ring.coordinate
        for r, member in enumerate(ring.members):
            assert member == job.placement[r * tp * pp + j * tp + i]


def test_ring_edge_volume_formula():
    members = tuple(Endpoint(t, 0, 0) for t in range(4))
    ring = Ring("j", (0, 0), members, shard_bytes=4_000_000_000)
    commodities = ring_allreduce_commodities(ring, 0)
    assert len(commodities) == 4
    assert all(c.volume == 6_000_000_000 for c in commodities)  # 2 * 3/4 * 4e9
    # edges close the ring: member k sends to member k+1 mod N
    for k, c in enumerate(commodities):
        assert c.src == ring.members[k]
        assert c.dst == ring.members[(k + 1) % 4]


def test_two_member_ring_sends_shard_each_way():
    ring = Ring("j", (0, 0), (Endpoint(0, 0, 0), Endpoint(1, 0, 0)), shard_bytes=10**9)
    commodities = ring_allreduce_commodities(ring, 0)
    assert [c.volume for c in commodities] == [ring.shard_bytes] * 2


def test_ring_volume_sums_to_twice_shard_per_member(cluster):
    for dp in (2, 4, 8):
        job = make_job(cluster, "BLOOM", dp=dp, seed=dp)
        ring = build_rings(job)[0]
        total = sum(c.volume for c in ring_allreduce_commodities(ring, 0))
        assert total == pytest.approx(2 * (dp - 1) * ring.shard_bytes, rel=1e-9)


def test_shard_rounding_stays_within_one_byte_per_shard(cluster):
    for name, dp in (("BLOOM", 2), ("GPT-3", 4), ("LLaMA2-70B", 4)):
        job = make_job(cluster, name, dp=dp, seed=7)
        shard = build_rings(job)[0].shard_bytes
        total = job.model.num_params * job.model.bytes_per_param
        slices = job.model.tp * job.model.pp
        assert total <= shard * slices <= total + slices


def test_singleton_ring_rejected():
    lone = Ring("j", (0, 0), (Endpoint(0, 0, 0),), shard_bytes=10**9)
    with pytest.raises(ValueError):
        ring_allreduce_commodities(lone, 0)


def test_compute_duration_formula_and_linearity(cluster):
    hw = HardwareModel(peak_flops=312e12, utilization=0.3, tokens_per_batch=2e6)
    job = make_job(cluster, "GPT-3", dp=4, seed=2)
    expected = 6 * 175e9 * 2e6 / (8 * 8 * 4 * 312e12 * 0.3)
    assert compute_phase_duration(job, hw) == pytest.approx(expected, rel=1e-12)

    double = make_job(cluster, "GPT-3", dp=8, seed=3)
    assert compute_phase_duration(double, hw) == pytest.approx(expected / 2, rel=1e-12)


def test_compute_duration_rejects_bad_hardware():
    with pytest.raises(ValueError):
        HardwareModel(peak_flops=0)
    with pytest.raises(ValueError):
        HardwareModel(utilization=-0.1)
    for bad in ({"peak_flops": math.nan}, {"tokens_per_batch": math.nan},
                {"utilization": math.nan}):
        with pytest.raises(ValueError):
            HardwareModel(**bad)
    assert HardwareModel(utilization=1.0).utilization == 1.0
    # a utilization above 1 would compute faster than the GPUs' peak rate
    with pytest.raises(ValueError, match=r"^utilization must be in \(0, 1\], got 7.5$"):
        HardwareModel(utilization=7.5)


def test_model_config_rejects_sizes_no_model_has():
    for args in ((0, 1, 1), (math.nan, 1, 1), (1e9, 0, 1), (1e9, 1, 0), (1e9, 1, math.nan),
                 (1e9, 1, 1, 0), (1e9, 1, 1, math.nan)):
        with pytest.raises(ValueError):
            ModelConfig("x", *args)


def test_arrival_schedule_contract():
    times = arrival_schedule(5, 10.0, seed=3)
    assert times == arrival_schedule(5, 10.0, seed=3)
    assert times == sorted(times)
    assert all(0.0 <= t < 10.0 for t in times)
    assert len(arrival_schedule(1, 10.0, seed=0)) == 1
    for window in (0.0, math.nan):
        with pytest.raises(ValueError):
            arrival_schedule(3, window, seed=0)


def test_commodity_is_a_checked_tuple_that_make_does_not_check():
    src, dst = Endpoint(0, 0, 0), Endpoint(1, 0, 0)
    fields = ("c", "j", src, dst, 8)
    c = CommoditySpec(*fields)
    assert c == fields and hash(c) == hash(fields)
    assert repr(c) == (
        "CommoditySpec(id='c', job_id='j', src=Endpoint(tor=0, host=0, nic=0), "
        "dst=Endpoint(tor=1, host=0, nic=0), volume=8)"
    )
    assert CommoditySpec(id="c", job_id="j", src=src, dst=dst, volume=8) == c
    for ends, volume in (((src, dst), 0), ((src, dst), math.nan), ((src, src), 8)):
        with pytest.raises(ValueError):
            CommoditySpec("c", "j", *ends, volume)
    unchecked = CommoditySpec._make(("c", "j", src, src, 0))
    assert type(unchecked) is CommoditySpec and unchecked.volume == 0
