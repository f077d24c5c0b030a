"""End-to-end acceptance gate.

One test per advertised guarantee, each at its stated tolerance:
  1. greedy stays within 2x of the exact optimum on >=1000 random instances
  2. the 4-ToR worked example reproduces exactly (loads, rates, ECMP collision)
  3. the 384-GPU BLOOM job moves ~205 Gbit per sender and syncs in 2.0-2.3 s
  4. edge coloring always matches ceil(max degree / live spines) and the optimum
  5. greedy routes 1500 commodities in <=100 ms median, >=10x faster than annealing
  6. over >=20 seeded multi-job scenarios, mean all-reduce: greedy <= ECMP,
     and greedy <= 2x exact for every job there and on scaled-down jobs
  7. failure sweeps (k=1/4/8) complete with invariants intact; the 2x bound
     holds on degraded fabrics
  8. re-running any scenario command yields byte-identical CSV output
  9. greedy over a whole commodity set equals the merge of greedy run on each
     of its components
"""

import csv
import json
import random
import time

import pytest

from closroute.cli import main, measure_scheme_runtime
from closroute.rates import waterfill
from closroute.routing import (
    decompose_components,
    ecmp_assign,
    edge_color_assign,
    exact_assign,
    greedy_assign,
    max_link_load,
    random_commodities,
    random_unit_instance,
    unit_commodities_for_pairs,
)
from closroute.sim import ControllerModel, run_scenario, stable_seed
from closroute.topology import build_topology, fail_spines
from closroute.workload import MODEL_CATALOG, Job, place_job


def report(criterion: int, text: str):
    print(f"PASS criterion {criterion}: {text}")


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


# -- criterion 1: empirical 2-approximation ------------------------------------


def test_criterion_1_greedy_within_2x_of_optimum(capsys):
    start = time.perf_counter()
    code = main(["validate", "--instances", "1000", "--seed", "0"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert "greedy 2x bound violations: 0" in out
    ratio = float(out.split("ratio: ")[1].split()[0])
    assert ratio <= 2.0
    assert elapsed < 60.0
    report(1, f"1000 instances, max ratio {ratio:.3f}, 0 violations, {elapsed:.1f}s")


# -- criterion 2: the worked 4-ToR example -------------------------------------


def test_criterion_2_worked_example_golden():
    topo = build_topology(2, 4, 2, 1, 1.0)
    commodities = unit_commodities_for_pairs(topo, [(0, 1), (1, 0), (1, 2), (2, 0)])

    for scheme_fn in (greedy_assign, edge_color_assign, exact_assign):
        choice = scheme_fn(commodities, topo)
        assert max_link_load(choice, topo) == 1
        alloc = waterfill(list(choice.assignment.items()), topo)
        assert min(alloc.rates.values()) == pytest.approx(1.0, abs=1e-9)

    # an ECMP seed that hashes both of ToR 1's flows onto one spine
    collision_seed = next(
        seed
        for seed in range(1000)
        if ecmp_assign(commodities, topo, seed).assignment["c1"].spine
        == ecmp_assign(commodities, topo, seed).assignment["c2"].spine
    )
    choice = ecmp_assign(commodities, topo, collision_seed)
    alloc = waterfill(list(choice.assignment.items()), topo)
    assert alloc.rates["c1"] == pytest.approx(0.5, abs=1e-9)
    assert alloc.rates["c2"] == pytest.approx(0.5, abs=1e-9)
    report(2, f"all optimal schemes at load 1 / rate 1.0; ECMP seed {collision_seed} halves both")


# -- criterion 3: BLOOM back-of-envelope ----------------------------------------


def test_criterion_3_bloom_volume_and_allreduce_time():
    topo = build_topology(32, 64, 4, 8, 100e9)
    model = MODEL_CATALOG["BLOOM"]
    placement = place_job(topo, model, 8, seed=0)
    job = Job("bloom", model, 8, 0.0, 10, placement)

    from closroute.workload import build_rings, ring_allreduce_commodities

    rings = build_rings(job)
    assert len(rings) == 48 and all(len(r.members) == 8 for r in rings)
    edge = ring_allreduce_commodities(rings[0], 0)[0]
    per_sender_bits = edge.volume * 8  # one ring edge per sender
    assert per_sender_bits == pytest.approx(14 * 15e9, rel=0.10)

    result = run_scenario(topo, [job], ControllerModel(scheme="greedy"), seed=0)
    times = [rec.allreduce_time for rec in result.records]
    assert len(times) == 10
    assert all(2.0 <= t <= 2.3 for t in times)
    report(3, f"per-sender {per_sender_bits / 1e9:.1f} Gbit, all-reduce {times[0]:.3f}s x10 iterations")


# -- criterion 4: edge-coloring optimality --------------------------------------


def test_criterion_4_edge_coloring_is_optimal(capsys):
    code = main(["validate", "--instances", "1000", "--seed", "100"])
    out = capsys.readouterr().out
    assert code == 0
    assert "edge-coloring vs exact mismatches: 0" in out
    assert "1000/1000" in out
    report(4, "edge coloring == ceil(degree/spines) == exact on 1000/1000 instances")


# -- criterion 5: scheme runtime -------------------------------------------------


def test_criterion_5_greedy_runtime_budget():
    topo = build_topology(32, 64, 4, 8, 100e9)
    greedy = measure_scheme_runtime("greedy", [1500], topo, seed=0)[0][1]
    anneal = measure_scheme_runtime("annealing", [1500], topo, seed=0)[0][1]
    assert greedy <= 0.100, f"greedy median {greedy * 1e3:.1f} ms exceeds 100 ms"
    assert anneal >= 10 * greedy, (
        f"annealing {anneal * 1e3:.0f} ms is not 10x slower than greedy {greedy * 1e3:.1f} ms"
    )
    report(5, f"greedy {greedy * 1e3:.1f} ms vs annealing {anneal * 1e3:.0f} ms at 1500 commodities")


# -- criterion 6: scheme ordering over seeded scenarios --------------------------


def _scenario_config(seed: int) -> dict:
    """1 to 5 concurrent jobs, each a random model with a random dp from
    {2, 4, 8} among those that still fit the 2048-GPU cluster."""
    rng = random.Random(stable_seed(seed, "scenario"))
    num_jobs = rng.randint(1, 5)
    remaining = 2048
    jobs = []
    for _ in range(num_jobs):
        name = rng.choice(sorted(MODEL_CATALOG))
        per_replica = MODEL_CATALOG[name].gpus_per_replica
        fitting = [dp for dp in (2, 4, 8) if per_replica * dp <= remaining]
        if not fitting:
            continue
        dp = rng.choice(fitting)
        remaining -= per_replica * dp
        jobs.append({"model": name, "dp": dp, "num_iterations": 10})
    return {
        "scenario_id": f"sweep{seed}",
        "jobs": jobs,
        "schemes": ["greedy", "ecmp", "exact"],
        "seeds": [seed],
    }


def test_criterion_6_greedy_beats_ecmp_and_tracks_exact(tmp_path):
    sums = {"greedy": 0.0, "ecmp": 0.0}
    counts = {"greedy": 0, "ecmp": 0}
    scale_ratios = []
    for seed in range(20):
        cfg_path = tmp_path / f"s{seed}.json"
        cfg_path.write_text(json.dumps(_scenario_config(seed)))
        out = tmp_path / f"s{seed}.csv"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        allreduce = {(row["scheme"], row["job"]): float(row["value"])
                     for row in read_rows(str(out)) if row["metric"] == "allreduce_time_s"}
        for (scheme, job), value in allreduce.items():
            if scheme in sums:
                sums[scheme] += value
                counts[scheme] += 1
            if scheme == "greedy":
                exact = allreduce[("exact", job)]
                scale_ratios.append(value / exact)
                assert value <= 2 * exact + 1e-9
    means = {s: sums[s] / counts[s] for s in sums}
    assert means["greedy"] <= means["ecmp"]

    # and per iteration, on scaled-down jobs on a 16-ToR fabric
    topo = build_topology(8, 16, 2, 8, 100e9)
    from closroute.workload import ModelConfig

    toy = ModelConfig("TOY", 8e9, tp=8, pp=1)
    ratios = []
    for seed in range(8):
        placement = place_job(topo, toy, 2, seed=seed)
        job = Job("toy", toy, 2, 0.0, 3, placement)
        per_scheme = {}
        for scheme in ("greedy", "exact"):
            result = run_scenario(topo, [job], ControllerModel(scheme=scheme), seed=seed)
            per_scheme[scheme] = [r.allreduce_time for r in result.records]
        for g, e in zip(per_scheme["greedy"], per_scheme["exact"]):
            ratios.append(g / e)
            assert g <= 2 * e + 1e-9
    report(
        6,
        f"mean all-reduce greedy {means['greedy']:.3f}s <= ecmp {means['ecmp']:.3f}s; "
        f"greedy/exact worst ratio {max(scale_ratios):.3f} over {len(scale_ratios)} jobs, "
        f"{max(ratios):.3f} over {len(ratios)} toy iterations",
    )


# -- criterion 7: failure robustness ---------------------------------------------


FAILSWEEP_CONFIG = {
    "scenario_id": "faulted",
    "topology": {
        "num_spines": 32,
        "num_tors": 64,
        "hosts_per_tor": 4,
        "nics_per_host": 8,
        "link_capacity_bps": 100e9,
    },
    "models": {"MINI": {"num_params": 8e9, "bytes_per_param": 4, "tp": 8, "pp": 1}},
    "allowed_dp": [2, 4, 8],
    "jobs": [
        {"model": "MINI", "dp": 8, "num_iterations": 3},
        {"model": "MINI", "dp": 4, "num_iterations": 3},
    ],
    "arrival_window_s": 0.2,
    "schemes": ["greedy"],
    "seeds": [0],
    "failures": {"time_s": 0.25, "counts": [], "seed": 9},
}


def test_criterion_7_failsweep_and_post_failure_bound(tmp_path):
    cfg_path = tmp_path / "faulted.json"
    cfg_path.write_text(json.dumps(FAILSWEEP_CONFIG))
    out = tmp_path / "sweep.csv"
    assert main([
        "failsweep", "--config", str(cfg_path), "--out", str(out),
        "--counts", "1,4,8", "--trace",
    ]) == 0
    rows = read_rows(str(out))
    assert {r["scenario"] for r in rows} == {"faulted:k1", "faulted:k4", "faulted:k8"}
    assert all(float(r["value"]) >= 0 for r in rows)

    # barrier invariant from the trace: iteration i+1 never starts before i ends
    trace = read_rows(str(tmp_path / "sweep.trace.csv"))
    by_key = {}
    for row in trace:
        by_key.setdefault((row["scenario"], row["job"], int(row["iteration"])), []).append(row)
    for (scenario, job, iteration), flows in by_key.items():
        nxt = by_key.get((scenario, job, iteration + 1))
        if nxt:
            assert min(float(r["start_s"]) for r in nxt) >= max(float(r["end_s"]) for r in flows)

    # criterion-1 bound re-checked on degraded fabrics
    worst = 0.0
    for seed in range(200):
        topo, commodities = random_unit_instance(stable_seed("faulted", seed))
        if len(topo.live_spines) > 1:
            topo = fail_spines(topo, 1, seed)
        greedy_load = max_link_load(greedy_assign(commodities, topo), topo)
        exact_load = max_link_load(exact_assign(commodities, topo), topo)
        worst = max(worst, greedy_load / exact_load)
        assert greedy_load <= 2 * exact_load
    report(7, f"k=1/4/8 sweeps complete; post-failure worst greedy/exact ratio {worst:.3f}")


# -- criterion 8: byte determinism -----------------------------------------------


def test_criterion_8_byte_identical_reruns(tmp_path):
    config = {
        "scenario_id": "det",
        "topology": {
            "num_spines": 8,
            "num_tors": 16,
            "hosts_per_tor": 2,
            "nics_per_host": 8,
            "link_capacity_bps": 100e9,
        },
        "models": {"MINI": {"num_params": 8e9, "bytes_per_param": 4, "tp": 8, "pp": 1}},
        "allowed_dp": [2, 4],
        "jobs": [
            {"model": "MINI", "dp": 4, "num_iterations": 2},
            {"model": "MINI", "dp": 2, "num_iterations": 2},
        ],
        "schemes": ["greedy", "ecmp", "edge_coloring", "annealing"],
        "seeds": [0, 1],
        "failures": {"time_s": 0.5, "counts": [], "seed": 2},
    }
    cfg_path = tmp_path / "det.json"
    cfg_path.write_text(json.dumps(config))

    for tag, argv in {
        "run": ["run", "--config", str(cfg_path), "--trace"],
        "failsweep": ["failsweep", "--config", str(cfg_path), "--counts", "2,4"],
    }.items():
        outs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{tag}-{attempt}.csv"
            assert main(argv + ["--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1], f"{tag} output differs between identical runs"
    # traces too
    a = (tmp_path / "run-a.trace.csv").read_bytes()
    b = (tmp_path / "run-b.trace.csv").read_bytes()
    assert a == b
    report(8, "run and failsweep CSVs (and traces) byte-identical across reruns")


# -- criterion 9: greedy factors over components ----------------------------------


def test_criterion_9_parallel_greedy_equivalence():
    """Greedy run per component, in any order or in parallel, equals whole-set
    greedy: the property a per-component cache of greedy decisions relies on."""
    mismatches = 0
    for trial in range(100):
        topo = build_topology(4, 16, 4, 8, 100e9)
        commodities = random_commodities(topo, 200, seed=stable_seed("par", trial))
        composed = {}
        for component in decompose_components(commodities):
            composed.update(greedy_assign(component, topo).assignment)
        mismatches += greedy_assign(commodities, topo).assignment != composed
    assert mismatches == 0
    report(9, "100/100 trials: whole-set greedy == merged greedy per component")
