"""Scenario configuration: JSON schema, validation, and scenario building.

A scenario file describes the fabric, the model catalogue, the jobs, the
controller, and the experiment knobs (schemes, seeds, failure plan). Every
validation error names the offending field path.
"""

from __future__ import annotations

import copy
import json
import random
from dataclasses import dataclass
from itertools import compress

from .routing import SCHEME_NAMES, AnnealSchedule
from .sim import ControllerModel, FailurePlan, is_elephant, stable_seed
from .topology import ClosTopology, build_topology, classify
from .workload import (
    HardwareModel,
    Job,
    ModelConfig,
    arrival_schedule,
    build_rings,
    place_job,
    ring_allreduce_commodities,
)


class ConfigError(ValueError):
    """Scenario configuration failed validation; message names the field."""


DEFAULT_CONFIG: dict = {
    "scenario_id": "clos32x64",
    "topology": {
        "num_spines": 32,
        "num_tors": 64,
        "hosts_per_tor": 4,
        "nics_per_host": 8,
        "link_capacity_bps": 100e9,
    },
    "models": {
        "BLOOM": {"num_params": 176e9, "bytes_per_param": 4, "tp": 4, "pp": 12},
        "GPT-3": {"num_params": 175e9, "bytes_per_param": 4, "tp": 8, "pp": 8},
        "LLaMA2-70B": {"num_params": 70e9, "bytes_per_param": 4, "tp": 8, "pp": 16},
    },
    "allowed_dp": [2, 4, 8],
    "jobs": [
        {"model": "BLOOM", "dp": 8, "num_iterations": 10},
        {"model": "GPT-3", "dp": 4, "num_iterations": 10},
        {"model": "LLaMA2-70B", "dp": 2, "num_iterations": 10},
    ],
    "arrival_window_s": 10.0,
    "controller": {
        "reaction_latency_s": 10e-3,
        "elephant_threshold_bytes": 1e6,
        "precomputed_failures": False,
        "ecmp_fallback_start": False,
    },
    "hardware": {"peak_flops": 312e12, "utilization": 0.3, "tokens_per_batch": 2e6},
    "schemes": ["greedy", "ecmp"],
    "seeds": [0],
    "annealing": {"initial_temp": 1.0, "cooling_factor": 0.999, "moves_per_commodity": 100},
    "exact_max_commodities": 16,
    "failures": {"time_s": 5.0, "counts": [], "seed": 1},
}


@dataclass(frozen=True)
class ScenarioConfig:
    scenario_id: str
    topology: ClosTopology
    models: dict[str, ModelConfig]
    allowed_dp: list[int]
    job_specs: list[dict]
    arrival_window: float
    controller_params: dict
    hardware: HardwareModel
    schemes: list[str]
    seeds: list[int]
    anneal_schedule: AnnealSchedule
    exact_max_commodities: int
    failure_time: float
    failure_counts: list[int]
    failure_seed: int


def _require(mapping: dict, key: str, kind, path: str):
    if key not in mapping:
        raise ConfigError(f"{path}.{key}: missing required field")
    value = mapping[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ConfigError(f"{path}.{key}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(raw)


def default_config() -> dict:
    return copy.deepcopy(DEFAULT_CONFIG)


def parse_config(raw: dict) -> ScenarioConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    merged = default_config()
    for key, value in raw.items():
        if key not in merged:
            raise ConfigError(f"{key}: unknown field")
        if isinstance(merged[key], dict) and isinstance(value, dict) and key != "models":
            merged[key].update(value)
        else:
            merged[key] = value

    scenario_id = _require(merged, "scenario_id", str, "config")

    t = merged["topology"]
    try:
        topo = build_topology(
            _require(t, "num_spines", int, "topology"),
            _require(t, "num_tors", int, "topology"),
            _require(t, "hosts_per_tor", int, "topology"),
            _require(t, "nics_per_host", int, "topology"),
            _require(t, "link_capacity_bps", float, "topology"),
        )
    except ValueError as exc:
        raise ConfigError(f"topology: {exc}") from exc

    models: dict[str, ModelConfig] = {}
    if not isinstance(merged["models"], dict) or not merged["models"]:
        raise ConfigError("models: must be a non-empty object")
    for name, m in merged["models"].items():
        try:
            models[name] = ModelConfig(
                name=name,
                num_params=_require(m, "num_params", float, f"models.{name}"),
                tp=_require(m, "tp", int, f"models.{name}"),
                pp=_require(m, "pp", int, f"models.{name}"),
                bytes_per_param=int(m.get("bytes_per_param", 4)),
            )
        except ValueError as exc:
            raise ConfigError(f"models.{name}: {exc}") from exc

    allowed_dp = merged["allowed_dp"]
    if not isinstance(allowed_dp, list) or not all(
        isinstance(d, int) and d >= 1 for d in allowed_dp
    ):
        raise ConfigError("allowed_dp: must be a list of positive integers")

    job_specs = merged["jobs"]
    if not isinstance(job_specs, list) or not job_specs:
        raise ConfigError("jobs: must be a non-empty list")
    for i, js in enumerate(job_specs):
        if not isinstance(js, dict):
            raise ConfigError(f"jobs[{i}]: must be an object")
        unknown = set(js) - {"model", "dp", "num_iterations", "arrival_time"}
        if unknown:
            raise ConfigError(f"jobs[{i}].{sorted(unknown)[0]}: unknown field")
        model_name = js.get("model", "random")
        if model_name != "random" and model_name not in models:
            raise ConfigError(f"jobs[{i}].model: unknown model {model_name!r}")
        dp = js.get("dp", "random")
        if dp != "random":
            if not isinstance(dp, int):
                raise ConfigError(f"jobs[{i}].dp: expected int or 'random'")
            if dp not in allowed_dp:
                raise ConfigError(f"jobs[{i}].dp: {dp} not in allowed_dp {allowed_dp}")
        iters = js.get("num_iterations", 10)
        if not isinstance(iters, int) or iters < 1:
            raise ConfigError(f"jobs[{i}].num_iterations: must be a positive integer")
        arrival = js.get("arrival_time")
        if arrival is not None and not isinstance(arrival, (int, float)):
            raise ConfigError(f"jobs[{i}].arrival_time: must be a number")

    window = merged["arrival_window_s"]
    if not isinstance(window, (int, float)) or window <= 0:
        raise ConfigError("arrival_window_s: must be a positive number")

    c = merged["controller"]
    controller_params = {
        "reaction_latency": _require(c, "reaction_latency_s", float, "controller"),
        "elephant_threshold": _require(c, "elephant_threshold_bytes", float, "controller"),
        "precomputed_failures": _require(c, "precomputed_failures", bool, "controller"),
        "ecmp_fallback_start": _require(c, "ecmp_fallback_start", bool, "controller"),
    }
    if controller_params["reaction_latency"] < 0:
        raise ConfigError("controller.reaction_latency_s: must be >= 0")
    if controller_params["elephant_threshold"] < 0:
        raise ConfigError("controller.elephant_threshold_bytes: must be >= 0")

    h = merged["hardware"]
    try:
        hardware = HardwareModel(
            peak_flops=_require(h, "peak_flops", float, "hardware"),
            utilization=_require(h, "utilization", float, "hardware"),
            tokens_per_batch=_require(h, "tokens_per_batch", float, "hardware"),
        )
    except ValueError as exc:
        raise ConfigError(f"hardware: {exc}") from exc

    schemes = merged["schemes"]
    if not isinstance(schemes, list) or not schemes:
        raise ConfigError("schemes: must be a non-empty list")
    for i, s in enumerate(schemes):
        if s not in SCHEME_NAMES:
            raise ConfigError(f"schemes[{i}]: unknown scheme {s!r}; valid: {list(SCHEME_NAMES)}")

    seeds = merged["seeds"]
    if not isinstance(seeds, list) or not seeds or not all(isinstance(s, int) for s in seeds):
        raise ConfigError("seeds: must be a non-empty list of integers")

    a = merged["annealing"]
    try:
        anneal = AnnealSchedule(
            initial_temp=_require(a, "initial_temp", float, "annealing"),
            cooling_factor=_require(a, "cooling_factor", float, "annealing"),
            moves_per_commodity=_require(a, "moves_per_commodity", int, "annealing"),
        )
    except ValueError as exc:
        raise ConfigError(f"annealing: {exc}") from exc

    exact_max = merged["exact_max_commodities"]
    if not isinstance(exact_max, int) or exact_max < 1:
        raise ConfigError("exact_max_commodities: must be a positive integer")

    f = merged["failures"]
    failure_time = _require(f, "time_s", float, "failures")
    failure_counts = f.get("counts", [])
    if not isinstance(failure_counts, list) or not all(
        isinstance(k, int) and k >= 0 for k in failure_counts
    ):
        raise ConfigError("failures.counts: must be a list of non-negative integers")
    if sum(failure_counts) >= topo.num_spines:
        raise ConfigError(
            f"failures.counts: {sum(failure_counts)} failures in total would kill all "
            f"{topo.num_spines} spines"
        )
    failure_seed = f.get("seed", 0)
    if not isinstance(failure_seed, int):
        raise ConfigError("failures.seed: must be an integer")

    return ScenarioConfig(
        scenario_id=scenario_id,
        topology=topo,
        models=models,
        allowed_dp=list(allowed_dp),
        job_specs=list(job_specs),
        arrival_window=float(window),
        controller_params=controller_params,
        hardware=hardware,
        schemes=list(schemes),
        seeds=list(seeds),
        anneal_schedule=anneal,
        exact_max_commodities=exact_max,
        failure_time=float(failure_time),
        failure_counts=[int(k) for k in failure_counts],
        failure_seed=int(failure_seed),
    )


def build_jobs(config: ScenarioConfig, seed: int) -> list[Job]:
    """Materialize the configured jobs for one seed: resolve random model/dp
    choices, draw arrival times, and place every job on free endpoints."""
    # Unless they start on ECMP, elephants wait for the controller, so the exact
    # scheme's first decision after a compute phase sees all of the job's.
    params = config.controller_params
    check_exact = "exact" in config.schemes and not params["ecmp_fallback_start"]
    specs = config.job_specs
    arrivals = arrival_schedule(len(specs), config.arrival_window, stable_seed(seed, "arrivals"))
    jobs: list[Job] = []
    occupied: set = set()
    for i, js in enumerate(specs):
        rng_seed = stable_seed(seed, "job", i)
        model_name = js.get("model", "random")
        if model_name == "random":
            names = sorted(config.models)
            model_name = names[random.Random(stable_seed(rng_seed, "model")).randrange(len(names))]
        model = config.models[model_name]
        dp = js.get("dp", "random")
        if dp == "random":
            dp = config.allowed_dp[
                random.Random(stable_seed(rng_seed, "dp")).randrange(len(config.allowed_dp))
            ]
        arrival = js.get("arrival_time")
        if arrival is None:
            arrival = arrivals[i]
        try:
            placement = place_job(
                config.topology, model, dp, stable_seed(rng_seed, "place"), occupied
            )
        except ValueError as exc:
            raise ConfigError(f"jobs[{i}]: {model_name} dp={dp}: {exc}") from exc
        occupied.update(placement)
        job = Job(
            id=f"job{i}",
            model=model,
            dp=dp,
            arrival_time=float(arrival),
            num_iterations=int(js.get("num_iterations", 10)),
            placement=placement,
        )
        if check_exact:
            rings = [ring for ring in build_rings(job) if len(ring.members) >= 2]
            ring_edges = [c for ring in rings for c in ring_allreduce_commodities(ring, 0)]
            inter = compress(ring_edges, classify(config.topology, ring_edges).inter)
            elephants = sum(is_elephant(c, params["elephant_threshold"]) for c in inter)
            if elephants > config.exact_max_commodities:
                raise ConfigError(
                    f"jobs[{i}]: {model_name} dp={dp}: {elephants} inter-ToR elephant flows "
                    f"per iteration exceed exact_max_commodities = "
                    f"{config.exact_max_commodities}"
                )
        jobs.append(job)
    return jobs


def controller_for(config: ScenarioConfig, scheme: str) -> ControllerModel:
    return ControllerModel(
        scheme=scheme,
        anneal_schedule=config.anneal_schedule,
        exact_max_commodities=config.exact_max_commodities,
        **config.controller_params,
    )


def failure_plan(config: ScenarioConfig, counts: list[int] | None = None) -> FailurePlan | None:
    counts = config.failure_counts if counts is None else counts
    counts = [k for k in counts if k > 0]
    if not counts:
        return None
    return FailurePlan(
        times=tuple(config.failure_time for _ in counts),
        counts=tuple(counts),
        seed=config.failure_seed,
    )
