"""The benchmark's workloads and the measurement loop around them.

Each workload is built once (its set-up), then runs whole rounds of the same
operations until the run's seconds are spent. A round's host time is the sum
of its timed operations; the output checks run between operations and are
not timed. The seed orders the operations and names the commodities; the
scenarios themselves are fixed, so the simulated metrics repeat exactly from
seed to seed and from run to run.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import resource
import statistics
import sys
import time

import checks
from calibrate import Speed, rescale_calls
from closroute import cli, config, rates, routing, topology, workload
from closroute.rates import FEASIBILITY_RTOL
from closroute.sim import stable_seed
from spans import Tracer, per_layer

CAPACITY_BPS = 100e9
# Edge colouring replays the greedy decisions of a simulator workload's first
# round once when they number at least SHADOW_CALLS, else SHADOW_PASSES times,
# so that each decision's median over the passes drops a stray slow call (a
# garbage collection, say) and the p90 rests on enough calls.
SHADOW_CALLS = 100
SHADOW_PASSES = 5
PERCENTILE_BAND = 5


def _timed(tracer: Tracer, fn, *args):
    """Call fn; return its result and its seconds, less the speed probes
    that the tracer took in the meantime."""
    probed = tracer.probe_time
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start - (tracer.probe_time - probed)


def _iter_rows(path: str):
    """Stream a large CSV, so checking it does not set the peak memory."""
    with open(path, newline="") as fh:
        yield from csv.DictReader(fh)


def _count_rows(path: str) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _write_json(path: str, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)


def _per_input(passes: list[list[float]]) -> list[float]:
    """One time per distinct input: the median over the passes that repeated it.

    Every pass makes the same calls in the same order, so position k holds the
    same input in each. Reducing each input to its median before taking
    percentiles keeps a percentile on the same input from run to run, instead
    of letting noise and the number of passes pick between neighbours of very
    different size. Passes of unequal length (a failed operation) are pooled.
    """
    if any(len(p) != len(passes[0]) for p in passes):
        return [t for p in passes for t in p]
    return [statistics.median(times) for times in zip(*passes)]


def _percentile_ms(times: list[float], q: int) -> float:
    """q-th percentile of per-input seconds, in milliseconds, smoothed: the
    mean of the times ranked within PERCENTILE_BAND points of it. Where the
    inputs' sizes jump, as at the middle of fabric8k_failover's decisions,
    the plain order statistic jumped by a third between runs as noise
    reordered two neighbours; the band mean moves by a fraction of that."""
    ranked = sorted(times)
    lo = int(len(ranked) * (q - PERCENTILE_BAND) / 100)
    hi = max(lo + 1, math.ceil(len(ranked) * (q + PERCENTILE_BAND) / 100))
    return statistics.fmean(ranked[lo:hi]) * 1e3


class Round:
    def __init__(self):
        self.wall_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.flows = 0
        self.sim: dict[str, float] = {}


# -- simulator workloads, run through the CLI -------------------------------------


class _SimWorkload:
    """Operations are ``cli.main`` calls; simulated outputs come from greedy."""

    # the engine never calls edge colouring, so its decisions are replayed
    shadow_coloring = True

    def __init__(self, out_dir: str):
        self.out_dir = out_dir

    def _run_op(self, argv, rnd: Round, tracer: Tracer, speed: Speed):
        rnd.attempted += 1
        try:
            code, elapsed = _timed(tracer, cli.main, argv)
        except Exception as exc:  # noqa: BLE001 - an operation that raises failed
            code, elapsed = repr(exc), 0.0
        speed.add(rnd, elapsed)
        speed.boundary()
        results = tracer.take_results()
        if tracer.capture is not None:
            tracer.compact_capture()
        if code != 0:
            # a failed operation counts in ``failed``; ``correct`` speaks only
            # of the operations that succeeded
            rnd.failed += 1
            print(f"operation {argv} failed: exit {code}", file=sys.stderr)
            return None
        rnd.flows += sum(r["flows"] for r in results)
        return results

    @staticmethod
    def _sim_metrics(greedy_runs: list[dict]) -> dict[str, float]:
        return {
            "allreduce_s": statistics.fmean(
                rec.allreduce_time for r in greedy_runs for rec in r["records"]
            ),
            "min_bandwidth_gbps": min(r["slowest_bps"] for r in greedy_runs) / 1e9,
            "max_spine_load": max(r["max_spine_load"] for r in greedy_runs),
        }

    def replay_coloring(self, captured, repeat: int, speed: Speed, errors: list[str]):
        """Edge colouring on the elephant sets greedy saw in the first round."""
        for call, (ends, topo) in enumerate(captured):
            speed.boundary()
            commodities = [
                workload.CommoditySpec(
                    f"r{repeat}d{call}c{i}", "shadow",
                    topology.Endpoint(*src), topology.Endpoint(*dst), 1,
                )
                for i, (src, dst) in enumerate(zip(ends[:, :3].tolist(), ends[:, 3:].tolist()))
            ]
            try:
                choice = routing.edge_color_assign(commodities, topo)
                live = len(topo.live_spines)
                checks.check_coloring_optimal(
                    checks.max_spine_load(commodities, choice.assignment),
                    checks.max_tor_degree(commodities),
                    live,
                )
            except Exception as exc:  # noqa: BLE001 - reported as an incorrect output
                errors.append(f"shadow edge colouring: {exc}")


def scenario_config(seed: int) -> dict:
    """Acceptance criterion 6's scenario generator: 1 to 5 concurrent jobs,
    each a random model with a random dp from {2, 4, 8} among those that
    still fit the 2048-GPU cluster."""
    rng = random.Random(stable_seed(seed, "scenario"))
    num_jobs = rng.randint(1, 5)
    remaining = 2048
    jobs = []
    for _ in range(num_jobs):
        name = rng.choice(sorted(workload.MODEL_CATALOG))
        per_replica = workload.MODEL_CATALOG[name].gpus_per_replica
        fitting = [dp for dp in (2, 4, 8) if per_replica * dp <= remaining]
        if not fitting:
            continue
        dp = rng.choice(fitting)
        remaining -= per_replica * dp
        jobs.append({"model": name, "dp": dp, "num_iterations": 10})
    return {
        "scenario_id": f"sweep{seed}",
        "jobs": jobs,
        "schemes": ["greedy", "ecmp"],
        "seeds": [seed],
    }


def _floor_s(model, dp: int) -> float:
    volume = checks.edge_volume(model.num_params, model.bytes_per_param, model.tp, model.pp, dp)
    return 8 * volume / CAPACITY_BPS


class Sweep20(_SimWorkload):
    """The 20 criterion-6 scenarios, each one ``closroute run`` under greedy
    and ECMP, in an order drawn from the seed."""

    def __init__(self, seed: int, out_dir: str):
        super().__init__(out_dir)
        self.order = list(range(20))
        random.Random(seed).shuffle(self.order)
        self.scenarios = []
        for s in self.order:
            cfg = scenario_config(s)
            path = os.path.join(out_dir, f"sweep{s}.json")
            _write_json(path, cfg)
            models = [workload.MODEL_CATALOG[j["model"]] for j in cfg["jobs"]]
            self.scenarios.append({
                "path": path,
                "out": os.path.join(out_dir, f"sweep{s}.csv"),
                "schemes": cfg["schemes"],
                "iterations": {f"job{i}": j["num_iterations"] for i, j in enumerate(cfg["jobs"])},
                "floor_s": {
                    f"job{i}": _floor_s(m, j["dp"])
                    for i, (m, j) in enumerate(zip(models, cfg["jobs"]))
                },
            })

    def run_round(self, tracer: Tracer, speed: Speed, index: int, errors: list[str]) -> Round:
        rnd = Round()
        greedy_results = []
        allreduce_rows: dict[str, list[float]] = {"greedy": [], "ecmp": []}
        for sc in self.scenarios:
            argv = ["run", "--config", sc["path"], "--out", sc["out"]]
            results = self._run_op(argv, rnd, tracer, speed)
            if results is None:
                continue
            rows = list(_iter_rows(sc["out"]))
            tracer.count("cli.rows_written", len(rows))
            try:
                for scheme, result in zip(sc["schemes"], results, strict=True):
                    checks.check_iterations(result["records"], sc["iterations"])
                    checks.check_allreduce_floor(result["records"], sc["floor_s"])
                    if scheme == "greedy":
                        greedy_results.append(result)
            except (checks.CheckFailed, ValueError) as exc:
                errors.append(f"{sc['path']}: {exc}")
            for row in rows:
                if row["metric"] == "allreduce_time_s" and row["job"] != "all":
                    allreduce_rows[row["scheme"]].append(float(row["value"]))
        try:
            checks.check_not_worse(
                statistics.fmean(allreduce_rows["greedy"]), statistics.fmean(allreduce_rows["ecmp"])
            )
        except (checks.CheckFailed, statistics.StatisticsError) as exc:
            errors.append(str(exc))
        if greedy_results:
            rnd.sim = self._sim_metrics(greedy_results)
        return rnd

    def verify(self, errors: list[str]):
        """Re-run scenario 0, one of the cheapest, and compare the bytes it writes."""
        sc = self.scenarios[self.order.index(0)]
        again = sc["out"][: -len(".csv")] + ".rerun.csv"
        if cli.main(["run", "--config", sc["path"], "--out", again]) != 0:
            errors.append(f"re-run of {sc['path']} failed")
            return
        try:
            checks.check_identical(sc["path"], _read_bytes(sc["out"]), _read_bytes(again))
        except checks.CheckFailed as exc:
            errors.append(str(exc))


FABRIC8K_CONFIG = {
    "scenario_id": "fabric8k",
    # 32 spines = 32 NICs per ToR: the paper's non-blocking Clos
    "topology": {
        "num_spines": 32,
        "num_tors": 256,
        "hosts_per_tor": 4,
        "nics_per_host": 8,
        "link_capacity_bps": CAPACITY_BPS,
    },
    "jobs": (
        [{"model": "BLOOM", "dp": 8, "num_iterations": 3, "arrival_time": 0.0}] * 6
        + [{"model": "GPT-3", "dp": 8, "num_iterations": 3, "arrival_time": 0.0}] * 5
        + [{"model": "LLaMA2-70B", "dp": 8, "num_iterations": 3, "arrival_time": 0.0}] * 3
    ),
    # LLaMA2-70B's 3.8 GB ring edges fall below the threshold and are hashed as
    # mice, so the mice path (and its rehash on failure) runs too
    "controller": {"elephant_threshold_bytes": 5e9},
    "schemes": ["greedy"],
    "seeds": [0],
    # the BLOOM jobs' first all-reduce is in flight at 59.5 s
    "failures": {"time_s": 59.5, "counts": [], "seed": 1},
}
FAILURE_LEVELS = (4, 8)


class Fabric8kFailover(_SimWorkload):
    """14 jobs packed onto 8192 GPUs, all arriving at t=0, with 4 and then 8
    spines failing mid all-reduce; one ``closroute failsweep --trace``."""

    def __init__(self, seed: int, out_dir: str):
        super().__init__(out_dir)
        self.path = os.path.join(out_dir, "fabric8k.json")
        _write_json(self.path, FABRIC8K_CONFIG)
        self.out = os.path.join(out_dir, "fabric8k.csv")
        self.trace = os.path.join(out_dir, "fabric8k.trace.csv")
        levels = list(FAILURE_LEVELS)
        random.Random(seed).shuffle(levels)
        self.levels = levels
        parsed = config.parse_config(FABRIC8K_CONFIG)
        self.failure_time = parsed.failure_time
        flows = volume = 0
        self.iterations = {}
        for job in config.build_jobs(parsed, parsed.seeds[0]):
            m = job.model
            edges = len(checks.ring_edges(job.placement, m.tp, m.pp, job.dp))
            flows += edges * job.num_iterations
            volume += (
                edges * job.num_iterations
                * checks.edge_volume(m.num_params, m.bytes_per_param, m.tp, m.pp, job.dp)
            )
            self.iterations[job.id] = job.num_iterations
        self.expected = {f"fabric8k:k{k}": (flows, volume) for k in levels}

    def _argv(self, out: str) -> list[str]:
        return [
            "failsweep", "--config", self.path, "--out", out,
            "--counts", ",".join(map(str, self.levels)), "--trace",
        ]

    def run_round(self, tracer: Tracer, speed: Speed, index: int, errors: list[str]) -> Round:
        rnd = Round()
        results = self._run_op(self._argv(self.out), rnd, tracer, speed)
        if results is None:
            return rnd
        tracer.count("cli.rows_written", _count_rows(self.out) + _count_rows(self.trace))
        try:
            checks.check_trace_totals(_iter_rows(self.trace), self.expected)
            checks.check_barrier(_iter_rows(self.trace))
            for result in results:
                checks.check_iterations(result["records"], self.iterations)
        except (checks.CheckFailed, ValueError) as exc:
            errors.append(f"fabric8k: {exc}")
        rnd.sim = self._sim_metrics(results)
        return rnd

    def verify(self, errors: list[str]):
        """Re-run with decisions observed: the bytes repeat, the failure
        strands elephants, and after the controller's reaction no flow is left
        on a failed spine."""
        out = os.path.join(self.out_dir, "fabric8k.rerun.csv")
        observer = Tracer(full=False, observe=True)
        with observer.installed():
            code = cli.main(self._argv(out))
        if code != 0:
            errors.append("re-run of fabric8k failed")
            return
        try:
            checks.check_identical("fabric8k.csv", _read_bytes(self.out), _read_bytes(out))
            checks.check_identical(
                "fabric8k.trace.csv",
                _read_bytes(self.trace),
                _read_bytes(os.path.join(self.out_dir, "fabric8k.rerun.trace.csv")),
            )
            for k, run, result in zip(self.levels, observer.runs, observer.take_results(),
                                      strict=True):
                scenario = f"fabric8k:k{k}"
                checks.check_stranded(scenario, run["stranded"])
                reaction = min(t for t in result["decision_times"] if t > self.failure_time)
                checks.check_failed_spines_unused(
                    (r for r in _iter_rows(self.trace) if r["scenario"] == scenario),
                    run["failed_spines"],
                    reaction,
                )
        except (checks.CheckFailed, ValueError) as exc:
            errors.append(f"fabric8k: {exc}")


# -- decision replay: the algorithms alone ------------------------------------------

REPLAY_CONFIG = {
    "scenario_id": "replay",
    "topology": FABRIC8K_CONFIG["topology"],
    "jobs": [
        {"model": model, "dp": dp}
        for model, dp in [
            ("BLOOM", 2), ("GPT-3", 2), ("LLaMA2-70B", 2),
            ("BLOOM", 4), ("GPT-3", 4), ("LLaMA2-70B", 4),
            ("BLOOM", 8), ("GPT-3", 8), ("LLaMA2-70B", 8),
            ("BLOOM", 8), ("GPT-3", 8), ("LLaMA2-70B", 8),
            ("GPT-3", 8), ("LLaMA2-70B", 8),
        ]
    ],
}
# a set is a window of consecutive jobs (cyclic) of one of these widths,
# starting at every other job
WINDOWS = (1, 2, 4, 8)
REPLAY_FAILED_SPINES = 8


class DecisionReplay:
    """Ring all-reduce elephant sets of jobs placed on the 8192-GPU fabric,
    each routed by greedy, edge colouring and ECMP, then rated by waterfill
    over greedy's routes. Every other set sees 8 failed spines. The seed
    names the commodities and seeds ECMP's hash."""

    shadow_coloring = False

    def __init__(self, seed: int, out_dir: str):
        parsed = config.parse_config(REPLAY_CONFIG)
        jobs = config.build_jobs(parsed, 0)
        self.rings = [workload.build_rings(job) for job in jobs]
        intact = parsed.topology
        degraded = topology.fail_spines(intact, REPLAY_FAILED_SPINES, seed=1)
        self.sets = []
        for width in WINDOWS:
            for start in range(0, len(jobs), 2):
                members = [(start + i) % len(jobs) for i in range(width)]
                fabric = degraded if len(self.sets) % 2 else intact
                self.sets.append((members, fabric))
        # The order of the sets is fixed: shuffled, it moved the process's
        # peak memory by a tenth from seed to seed.
        self.seed = seed
        self.first: list[tuple] | None = None  # round 1's outputs, for repeat checks
        self.allreduce: list[float] = []
        self.sim: dict[str, float] = {}

    def commodities(self, members, iteration: int):
        """Fresh ids per call: the iteration number, which the commodity ids
        carry, is unique within a run and differs from seed to seed."""
        out = []
        for j in members:
            for ring in self.rings[j]:
                for c in workload.ring_allreduce_commodities(ring, iteration):
                    if (c.src.tor, c.src.host) != (c.dst.tor, c.dst.host):
                        out.append(c)
        return out

    def run_round(self, tracer: Tracer, speed: Speed, index: int, errors: list[str]) -> Round:
        rnd = Round()
        outputs = []
        for pos, (members, topo) in enumerate(self.sets):
            speed.boundary()
            cs = self.commodities(members, (self.seed * 1000 + index) * len(self.sets) + pos)
            out = []
            calls = (
                lambda: routing.greedy_assign(cs, topo),
                lambda: routing.edge_color_assign(cs, topo),
                lambda: routing.ecmp_assign(cs, topo, self.seed),
                lambda: rates.waterfill(list(out[0].assignment.items()), topo),
            )
            for call in calls:
                rnd.attempted += 1
                try:
                    result, elapsed = _timed(tracer, call)
                except Exception as exc:  # noqa: BLE001 - an operation that raises failed
                    rnd.failed += 1
                    print(f"replay set {pos} failed: {exc!r}", file=sys.stderr)
                    break
                speed.add(rnd, elapsed)
                out.append(result)
            if len(out) < len(calls):
                continue
            rnd.flows += len(cs)
            greedy, coloring, _, alloc = out
            outputs.append((
                tuple(greedy.assignment[c.id].spine for c in cs),
                tuple(coloring.assignment[c.id].spine for c in cs),
                tuple(alloc.rates[c.id] for c in cs),
            ))
            if self.first is None:
                self._check(pos, cs, topo, out, errors)
        if self.first is None:
            self.first = outputs
        elif outputs != self.first:
            errors.append("replay: a repeated set gave different routes or rates")
        rnd.sim = dict(self.sim)
        return rnd

    def _check(self, pos, cs, topo, out, errors):
        """Check one set's outputs in full, and fold them into the metrics."""
        greedy, coloring, ecmp, alloc = out
        live = topo.live_spines
        delta = checks.max_tor_degree(cs)
        load = checks.max_spine_load(cs, greedy.assignment)
        try:
            for scheme, choice in (("greedy", greedy), ("edge_coloring", coloring),
                                   ("ecmp", ecmp)):
                checks.check_routes(scheme, cs, choice.assignment, live)
            checks.check_greedy_bound(load, delta, len(live))
            checks.check_coloring_optimal(
                checks.max_spine_load(cs, coloring.assignment), delta, len(live)
            )
            checks.check_max_min(
                list(greedy.assignment.items()), alloc.rates, topo.link_capacity,
                FEASIBILITY_RTOL,
            )
        except checks.CheckFailed as exc:
            errors.append(f"replay set {pos}: {exc}")
        # all-reduce time: per job, its slowest ring edge at the max-min rates
        slowest: dict[str, float] = {}
        for c in cs:
            t = 8 * c.volume / alloc.rates[c.id]
            slowest[c.job_id] = max(slowest.get(c.job_id, 0.0), t)
        self.allreduce.extend(slowest.values())
        self.sim = {
            "allreduce_s": statistics.fmean(self.allreduce),
            "min_bandwidth_gbps": min(
                self.sim.get("min_bandwidth_gbps", math.inf), min(alloc.rates.values()) / 1e9
            ),
            "max_spine_load": max(self.sim.get("max_spine_load", 0), load),
        }

    def verify(self, errors):
        """Nothing to re-run: every round after the first is compared with it."""


WORKLOADS = {
    "sweep20": Sweep20,
    "fabric8k_failover": Fabric8kFailover,
    "decision_replay": DecisionReplay,
}

UNITS = {
    "wall_s": "s",
    "flows_per_s": "1/s",
    "peak_rss_mb": "MB",
    "greedy_p50_ms": "ms",
    "greedy_p90_ms": "ms",
    "coloring_p50_ms": "ms",
    "coloring_p90_ms": "ms",
    "waterfill_p50_ms": "ms",
    "waterfill_p90_ms": "ms",
    "allreduce_s": "sim_s",
    "min_bandwidth_gbps": "Gbit/s",
    "max_spine_load": "flows",
}
LAYER_UNITS = {"_s": "s", "_ratio": "ratio", "_per_decision": "count"}


def _layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def measure(work, seconds: float, trace: bool) -> dict:
    """Run whole rounds for ``seconds``, check the outputs, and return the
    result object without ``setup_s``, which the parent process measures."""
    tracer = Tracer(full=trace, probe=True)
    speed = Speed(tracer.probes)
    errors: list[str] = []
    rounds: list[Round] = []
    layers: list[dict[str, float]] = []
    ends: list[dict[str, int]] = []  # the number of calls per layer after each pass
    captured: list = []

    def end_pass():
        speed.boundary(force=True)
        ends.append({layer: len(times) for layer, times in tracer.samples.items()})

    start = time.perf_counter()
    with tracer.installed():
        while not rounds or time.perf_counter() - start < seconds:
            tracer.capture = captured if work.shadow_coloring and not rounds else None
            rounds.append(work.run_round(tracer, speed, len(rounds), errors))
            end_pass()
            layers.append(per_layer(tracer.take_counts()))
        tracer.capture = None
        if work.shadow_coloring and captured:
            for repeat in range(1 if len(captured) >= SHADOW_CALLS else SHADOW_PASSES):
                work.replay_coloring(captured, repeat, speed, errors)
                end_pass()
    del captured
    work.verify(errors)

    sims = [r.sim for r in rounds]
    if any(s != sims[0] for s in sims):
        errors.append("simulated outputs differ between rounds")
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)
    factors = speed.factors
    print(f"{len(rounds)} rounds of {statistics.median(r.wall_s for r in rounds):.4g} s; "
          f"host seconds x {min(factors):.3f} to {max(factors):.3f} (median "
          f"{statistics.median(factors):.3f}) give the times at the reference speed",
          file=sys.stderr)

    if trace:
        values = {name: statistics.median(l[name] for l in layers) for name in layers[0]}
        units = {name: _layer_unit(name) for name in values}
    else:
        wall = statistics.median(r.wall_s for r in rounds)
        per_input = {}
        for layer, times in tracer.samples.items():
            times = rescale_calls(times, tracer.sample_probe[layer], tracer.probes)
            bounds = [0] + [end[layer] for end in ends]
            passes = [times[a:b] for a, b in zip(bounds, bounds[1:]) if b > a]
            if passes:
                per_input[layer] = _per_input(passes)
        pct = lambda layer, q: _percentile_ms(per_input[layer], q)  # noqa: E731
        values = {
            "wall_s": wall,
            "flows_per_s": statistics.median(r.flows / r.wall_s for r in rounds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "greedy_p50_ms": pct("routing.greedy", 50),
            "greedy_p90_ms": pct("routing.greedy", 90),
            "coloring_p50_ms": pct("routing.coloring", 50),
            "coloring_p90_ms": pct("routing.coloring", 90),
            "waterfill_p50_ms": pct("rates.waterfill", 50),
            "waterfill_p90_ms": pct("rates.waterfill", 90),
            **sims[0],
        }
        units = UNITS
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "rounds": len(rounds),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }
