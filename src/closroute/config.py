"""Scenario configuration: JSON schema, validation, and scenario building.

A scenario file describes the fabric, the model catalogue, the jobs, the
controller, and the experiment knobs (schemes, seeds, failure plan). Every
validation error names the offending field path.
"""

from __future__ import annotations

import copy
import json
import math
import random
from dataclasses import asdict, dataclass, fields

from .routing import EXACT_MAX_COMMODITIES, SCHEME_NAMES, AnnealSchedule
from .sim import ControllerModel, FailurePlan, stable_seed
from .topology import ClosTopology, build_topology
from .workload import (
    MODEL_CATALOG,
    HardwareModel,
    Job,
    ModelConfig,
    arrival_schedule,
    place_job,
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
        m.name: {key: value for key, value in asdict(m).items() if key != "name"}
        for m in MODEL_CATALOG.values()
    },
    "allowed_dp": [2, 4, 8],
    "jobs": [
        {"model": "BLOOM", "dp": 8, "num_iterations": 10},
        {"model": "GPT-3", "dp": 4, "num_iterations": 10},
        {"model": "LLaMA2-70B", "dp": 2, "num_iterations": 10},
    ],
    "arrival_window_s": 10.0,
    "controller": {
        "reaction_latency_s": ControllerModel.reaction_latency,
        "elephant_threshold_bytes": ControllerModel.elephant_threshold,
        "precomputed_failures": ControllerModel.precomputed_failures,
        "ecmp_fallback_start": ControllerModel.ecmp_fallback_start,
    },
    "hardware": asdict(HardwareModel()),
    "schemes": ["greedy", "ecmp"],
    "seeds": [0],
    "annealing": asdict(AnnealSchedule()),
    "exact_max_commodities": EXACT_MAX_COMMODITIES,
    "failures": {"time_s": 5.0, "counts": [], "seed": 1},
}

# the fields of a job and their values when omitted
_JOB_DEFAULTS = {"model": "random", "dp": "random", "num_iterations": 10, "arrival_time": None}
# the fields of a model entry
_MODEL_FIELDS = [f.name for f in fields(ModelConfig) if f.name != "name"]


@dataclass(frozen=True)
class ScenarioConfig:
    scenario_id: str
    topology: ClosTopology
    models: dict[str, ModelConfig]
    allowed_dp: list[int]
    job_specs: list[dict]
    arrival_window: float
    controller: ControllerModel  # of scheme greedy; a run replaces the scheme
    hardware: HardwareModel
    schemes: list[str]
    seeds: list[int]
    failure_time: float
    failure_counts: list[int]
    failure_seed: int


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _require(mapping: dict, key: str, kind, path: str):
    if key not in mapping:
        raise ConfigError(f"{path}.{key}: missing required field")
    value = mapping[key]
    if kind is float and _is_int(value):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ConfigError(f"{path}.{key}: expected {kind.__name__}, got {type(value).__name__}")
    # JSON as Python reads it admits NaN and Infinity
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{path}.{key}: must be finite, got {value}")
    return value


def _object(value, path: str, known) -> dict:
    """value, checked to be an object whose keys are all in known."""
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: must be an object")
    unknown = sorted(set(value) - set(known))
    if unknown:
        raise ConfigError(f"{path}.{unknown[0]}: unknown field")
    return value


def distinct(values: list, path: str) -> list:
    """values, checked to hold an entry and to repeat none, which would rerun its work."""
    if not values:
        raise ConfigError(f"{path}: names no entry")
    for i, value in enumerate(values):
        if values.index(value) < i:
            raise ConfigError(f"{path}[{i}]: {value!r} repeats {path}[{values.index(value)}]")
    return values


def _build(path: str, make, **kwargs):
    """make(**kwargs), its ValueError a ConfigError naming path. The kwargs are
    read before the call, so their own errors name their fields alone."""
    try:
        return make(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


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
        if isinstance(merged[key], dict) and key != "models":
            merged[key].update(_object(value, key, merged[key]))
        else:
            merged[key] = value

    scenario_id = merged["scenario_id"]
    if not isinstance(scenario_id, str):
        raise ConfigError(f"scenario_id: expected str, got {type(scenario_id).__name__}")

    t = merged["topology"]
    topo = _build(
        "topology",
        build_topology,
        num_spines=_require(t, "num_spines", int, "topology"),
        num_tors=_require(t, "num_tors", int, "topology"),
        hosts_per_tor=_require(t, "hosts_per_tor", int, "topology"),
        nics_per_host=_require(t, "nics_per_host", int, "topology"),
        link_capacity=_require(t, "link_capacity_bps", float, "topology"),
    )

    models: dict[str, ModelConfig] = {}
    if not isinstance(merged["models"], dict) or not merged["models"]:
        raise ConfigError("models: must be a non-empty object")
    for name, m in merged["models"].items():
        path = f"models.{name}"
        m = {"bytes_per_param": ModelConfig.bytes_per_param, **_object(m, path, _MODEL_FIELDS)}
        models[name] = _build(
            path,
            ModelConfig,
            name=name,
            num_params=_require(m, "num_params", float, path),
            tp=_require(m, "tp", int, path),
            pp=_require(m, "pp", int, path),
            bytes_per_param=_require(m, "bytes_per_param", int, path),
        )

    allowed_dp = merged["allowed_dp"]
    if not isinstance(allowed_dp, list) or not all(_is_int(d) and d >= 1 for d in allowed_dp):
        raise ConfigError("allowed_dp: must be a list of positive integers")
    if not allowed_dp:
        raise ConfigError("allowed_dp: must not be empty")

    job_specs = []
    if not isinstance(merged["jobs"], list) or not merged["jobs"]:
        raise ConfigError("jobs: must be a non-empty list")
    for i, js in enumerate(merged["jobs"]):
        js = {**_JOB_DEFAULTS, **_object(js, f"jobs[{i}]", _JOB_DEFAULTS)}
        job_specs.append(js)
        model_name = js["model"]
        if not isinstance(model_name, str):
            raise ConfigError(f"jobs[{i}].model: expected a model name or 'random'")
        if model_name != "random" and model_name not in models:
            raise ConfigError(f"jobs[{i}].model: unknown model {model_name!r}")
        dp = js["dp"]
        if dp != "random":
            if not _is_int(dp):
                raise ConfigError(f"jobs[{i}].dp: expected int or 'random'")
            if dp not in allowed_dp:
                raise ConfigError(f"jobs[{i}].dp: {dp} not in allowed_dp {allowed_dp}")
        iters = js["num_iterations"]
        if not _is_int(iters) or iters < 1:
            raise ConfigError(f"jobs[{i}].num_iterations: must be a positive integer")
        arrival = js["arrival_time"]
        if arrival is not None:
            if not isinstance(arrival, (int, float)) or isinstance(arrival, bool):
                raise ConfigError(f"jobs[{i}].arrival_time: must be a number")
            if not 0 <= arrival < math.inf:
                raise ConfigError(f"jobs[{i}].arrival_time: must be finite and >= 0")

    window = merged["arrival_window_s"]
    if isinstance(window, bool) or not isinstance(window, (int, float)) or not 0 < window < math.inf:
        raise ConfigError("arrival_window_s: must be a positive number")

    c = merged["controller"]
    latency = _require(c, "reaction_latency_s", float, "controller")
    threshold = _require(c, "elephant_threshold_bytes", float, "controller")
    precomputed_failures = _require(c, "precomputed_failures", bool, "controller")
    ecmp_fallback_start = _require(c, "ecmp_fallback_start", bool, "controller")
    if latency < 0:
        raise ConfigError("controller.reaction_latency_s: must be >= 0")
    if threshold < 0:
        raise ConfigError("controller.elephant_threshold_bytes: must be >= 0")

    h = merged["hardware"]
    hardware = _build(
        "hardware",
        HardwareModel,
        peak_flops=_require(h, "peak_flops", float, "hardware"),
        utilization=_require(h, "utilization", float, "hardware"),
        tokens_per_batch=_require(h, "tokens_per_batch", float, "hardware"),
    )

    schemes = merged["schemes"]
    if not isinstance(schemes, list) or not schemes:
        raise ConfigError("schemes: must be a non-empty list")
    for i, s in enumerate(schemes):
        if s not in SCHEME_NAMES:
            raise ConfigError(f"schemes[{i}]: unknown scheme {s!r}; valid: {list(SCHEME_NAMES)}")
    distinct(schemes, "schemes")

    seeds = merged["seeds"]
    if not isinstance(seeds, list) or not seeds or not all(_is_int(s) for s in seeds):
        raise ConfigError("seeds: must be a non-empty list of integers")
    distinct(seeds, "seeds")

    a = merged["annealing"]
    anneal = _build(
        "annealing",
        AnnealSchedule,
        initial_temp=_require(a, "initial_temp", float, "annealing"),
        cooling_factor=_require(a, "cooling_factor", float, "annealing"),
        moves_per_commodity=_require(a, "moves_per_commodity", int, "annealing"),
    )

    exact_max = merged["exact_max_commodities"]
    if not _is_int(exact_max) or exact_max < 1:
        raise ConfigError("exact_max_commodities: must be a positive integer")

    f = merged["failures"]
    failure_time = _require(f, "time_s", float, "failures")
    if failure_time < 0:
        raise ConfigError("failures.time_s: must be >= 0")
    failure_counts = f["counts"]
    if not isinstance(failure_counts, list) or not all(
        _is_int(k) and k >= 0 for k in failure_counts
    ):
        raise ConfigError("failures.counts: must be a list of non-negative integers")
    if sum(failure_counts) >= topo.num_spines:
        raise ConfigError(
            f"failures.counts: {sum(failure_counts)} failures in total would kill all "
            f"{topo.num_spines} spines"
        )
    failure_seed = f["seed"]
    if not _is_int(failure_seed):
        raise ConfigError("failures.seed: must be an integer")

    return ScenarioConfig(
        scenario_id=scenario_id,
        topology=topo,
        models=models,
        allowed_dp=list(allowed_dp),
        job_specs=job_specs,
        arrival_window=float(window),
        controller=ControllerModel(
            reaction_latency=latency,
            elephant_threshold=threshold,
            precomputed_failures=precomputed_failures,
            ecmp_fallback_start=ecmp_fallback_start,
            anneal_schedule=anneal,
            exact_max_commodities=exact_max,
        ),
        hardware=hardware,
        schemes=list(schemes),
        seeds=list(seeds),
        failure_time=failure_time,
        failure_counts=list(failure_counts),
        failure_seed=failure_seed,
    )


def build_jobs(config: ScenarioConfig, seed: int) -> list[Job]:
    """Materialize the configured jobs for one seed: resolve random model/dp
    choices, draw arrival times, and place every job on free endpoints."""
    specs = config.job_specs
    arrivals = arrival_schedule(len(specs), config.arrival_window, stable_seed(seed, "arrivals"))
    jobs: list[Job] = []
    occupied: set = set()
    for i, js in enumerate(specs):
        rng_seed = stable_seed(seed, "job", i)
        model_name = js["model"]
        if model_name == "random":
            names = sorted(config.models)
            model_name = names[random.Random(stable_seed(rng_seed, "model")).randrange(len(names))]
        model = config.models[model_name]
        dp = js["dp"]
        if dp == "random":
            dp = config.allowed_dp[
                random.Random(stable_seed(rng_seed, "dp")).randrange(len(config.allowed_dp))
            ]
        arrival = js["arrival_time"]
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
            num_iterations=js["num_iterations"],
            placement=placement,
        )
        jobs.append(job)
    return jobs


def failure_plan(config: ScenarioConfig, counts: list[int]) -> FailurePlan | None:
    counts = [k for k in counts if k > 0]
    if not counts:
        return None
    return FailurePlan(
        times=tuple(config.failure_time for _ in counts),
        counts=tuple(counts),
        seed=config.failure_seed,
    )
