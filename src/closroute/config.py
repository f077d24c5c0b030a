"""Scenario configuration: JSON schema, validation, and scenario building.

A scenario file describes the fabric, the model catalogue, the jobs, the
controller, and the experiment knobs (schemes, seeds, failure plan). Its
schema is ``FIELDS``, one row per leaf field, and one walker checks a
scenario against it: every error reads ``path: message``, with one wording
per rule. What a row cannot say is checked after the walk: a job's model
and dp against ``models`` and ``allowed_dp``, the failure total against the
spines, the fabric's links against what a run holds, and the ranges that the
fabric, model, hardware and annealing constructors check themselves. The CLI
checks its flags by the same rules: ``check_value``, and ``construct`` around
the check that a library call makes.
"""

from __future__ import annotations

import copy
import json
import random
import sys
from dataclasses import asdict, dataclass
from typing import NamedTuple

from .routing import AnnealSchedule, check_scheme
from .sim import ControllerModel, FailurePlan, check_links, stable_seed
from .topology import ClosTopology, build_topology, fail_spines
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


REQUIRED = object()  # the default of a field that a scenario must give


class Field(NamedTuple):
    """A leaf of the scenario schema. Its path's "models.*" stands for every
    model entry and "jobs[*]" for every job. Its kind is "str", "bool",
    "int", "number" (finite, read as a float), "number or null", "int or
    'random'", or a "list of" one; a boolean is neither an int nor a number.
    Its bounds hold each number, or each number of a list: ">= 0", "> 0",
    ">= 1" and ">= 2"; and a list: "non-empty", "distinct" and "scheme"
    (every entry passes ``routing.check_scheme``)."""

    path: str
    kind: str
    bounds: tuple[str, ...]
    default: object


# the scenario schema, in the order the walker checks it
FIELDS = [
    Field("scenario_id", "str", (), "clos32x64"),
    Field("topology.num_spines", "int", (), 32),
    Field("topology.num_tors", "int", (), 64),
    Field("topology.hosts_per_tor", "int", (), 4),
    Field("topology.nics_per_host", "int", (), 8),
    Field("topology.link_capacity_bps", "number", (), 100e9),
    Field("models.*.num_params", "number", (), REQUIRED),
    Field("models.*.tp", "int", (), REQUIRED),
    Field("models.*.pp", "int", (), REQUIRED),
    Field("models.*.bytes_per_param", "int", (), ModelConfig.bytes_per_param),
    Field("allowed_dp", "list of int", (">= 1", "non-empty"), [2, 4, 8]),
    Field("jobs[*].model", "str", (), "random"),
    Field("jobs[*].dp", "int or 'random'", (), "random"),
    Field("jobs[*].num_iterations", "int", (">= 1",), 10),
    Field("jobs[*].arrival_time", "number or null", (">= 0",), None),
    Field("arrival_window_s", "number", ("> 0",), 10.0),
    Field("controller.reaction_latency_s", "number", (">= 0",), ControllerModel.reaction_latency),
    Field("controller.elephant_threshold_bytes", "number", (">= 0",),
          ControllerModel.elephant_threshold),
    Field("controller.precomputed_failures", "bool", (), ControllerModel.precomputed_failures),
    Field("controller.ecmp_fallback_start", "bool", (), ControllerModel.ecmp_fallback_start),
    Field("hardware.peak_flops", "number", (), HardwareModel.peak_flops),
    Field("hardware.utilization", "number", (), HardwareModel.utilization),
    Field("hardware.tokens_per_batch", "number", (), HardwareModel.tokens_per_batch),
    Field("schemes", "list of str", ("scheme", "distinct"), ["greedy", "ecmp"]),
    Field("seeds", "list of int", ("distinct",), [0]),
    Field("annealing.initial_temp", "number", (), AnnealSchedule.initial_temp),
    Field("annealing.cooling_factor", "number", (), AnnealSchedule.cooling_factor),
    Field("annealing.moves_per_commodity", "int", (), AnnealSchedule.moves_per_commodity),
    Field("failures.time_s", "number", (">= 0",), 5.0),
    Field("failures.counts", "list of int", (">= 0",), []),
    Field("failures.seed", "int", (), 1),
]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


_KINDS = {
    "str": lambda v: isinstance(v, str),
    "bool": lambda v: isinstance(v, bool),
    "int": _is_int,
    "number": _is_number,
    "number or null": lambda v: v is None or _is_number(v),
    "int or 'random'": lambda v: v == "random" or _is_int(v),
}
_BOUNDS = {">= 0": lambda v: v >= 0, "> 0": lambda v: v > 0, ">= 1": lambda v: v >= 1,
           ">= 2": lambda v: v >= 2}


def construct(path: str, make, *args, **kwargs):
    """make(*args, **kwargs), its ValueError a ConfigError naming path."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def check_value(value, kind: str, bounds: tuple[str, ...], path: str):
    """value, checked to be of a field's kind within its bounds, a number read
    as a float. A list's entries are checked as a value is, under the list's
    path; the list's own bounds name the entry that breaks them."""
    if kind.startswith("list of "):
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected {kind}, got {type(value).__name__}")
        value = [check_value(v, kind[len("list of "):], bounds, path) for v in value]
        for bound in bounds:
            if bound == "non-empty" and not value:
                raise ConfigError(f"{path}: must not be empty")
            if bound == "distinct":  # no entry, or one twice, would skip or rerun its work
                if not value:
                    raise ConfigError(f"{path}: names no entry")
                for i, v in enumerate(value):
                    if value.index(v) < i:
                        raise ConfigError(f"{path}[{i}]: {v!r} repeats {path}[{value.index(v)}]")
            if bound == "scheme":
                for i, name in enumerate(value):
                    construct(f"{path}[{i}]", check_scheme, name)
        return value
    if not _KINDS[kind](value):
        raise ConfigError(f"{path}: expected {kind}, got {type(value).__name__}")
    if not _is_number(value):
        return value
    if kind.startswith("number"):
        # NaN fails the comparison, and so does an int past the float range
        if not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{path}: must be finite, got {value}")
        value = float(value)
    for bound in bounds:
        if bound in _BOUNDS and not _BOUNDS[bound](value):
            raise ConfigError(f"{path}: must be {bound}, got {value}")
    return value


def _tree(fields: list[Field]) -> dict:
    """The rows as nested dicts of path parts, "*" and "[*]" holding the
    entries, each row at its leaf."""
    tree: dict = {}
    for field in fields:
        *sections, name = field.path.replace("[*]", ".[*]").split(".")
        node = tree
        for part in sections:
            node = node.setdefault(part, {})
        node[name] = field
    return tree


_TREE = _tree(FIELDS)


def _walk(value, node, path: str):
    """value checked against node of ``_TREE``: a field; the entries of a
    non-empty object ("*") or list ("[*]"); or a section, whose unknown keys
    are errors and whose missing fields take their defaults (a missing
    section is empty). Returns the checked value as a new object."""
    if isinstance(node, Field):
        return check_value(value, node.kind, node.bounds, path)
    if "[*]" in node:
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{path}: must be a non-empty list")
        return [_walk(v, node["[*]"], f"{path}[{i}]") for i, v in enumerate(value)]
    if "*" in node:
        if not isinstance(value, dict) or not value:
            raise ConfigError(f"{path}: must be a non-empty object")
        return {name: _walk(v, node["*"], f"{path}.{name}") for name, v in value.items()}
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: must be an object")
    prefix = f"{path}." if path else ""
    unknown = sorted(set(value) - set(node))
    if unknown:
        raise ConfigError(f"{prefix}{unknown[0]}: unknown field")
    checked = {}
    for key, sub in node.items():
        given = value.get(key, {} if isinstance(sub, dict) else sub.default)
        if given is REQUIRED:
            raise ConfigError(f"{prefix}{key}: missing required field")
        checked[key] = _walk(given, sub, prefix + key)
    return checked


# every field's default, with the model catalogue and three jobs
DEFAULT_CONFIG: dict = _walk({
    "models": {
        m.name: {key: value for key, value in asdict(m).items() if key != "name"}
        for m in MODEL_CATALOG.values()
    },
    "jobs": [
        {"model": "BLOOM", "dp": 8, "num_iterations": 10},
        {"model": "GPT-3", "dp": 4, "num_iterations": 10},
        {"model": "LLaMA2-70B", "dp": 2, "num_iterations": 10},
    ],
}, _TREE, "")


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
    c = _walk({**DEFAULT_CONFIG, **raw}, _TREE, "")
    t = c["topology"]
    topo = construct("topology", build_topology, t["num_spines"], t["num_tors"],
                     t["hosts_per_tor"], t["nics_per_host"], t["link_capacity_bps"])
    construct("topology", check_links, topo)
    models = {name: construct(f"models.{name}", ModelConfig, name=name, **m)
              for name, m in c["models"].items()}
    for i, js in enumerate(c["jobs"]):
        if js["model"] != "random" and js["model"] not in models:
            raise ConfigError(f"jobs[{i}].model: unknown model {js['model']!r}")
        if js["dp"] != "random" and js["dp"] not in c["allowed_dp"]:
            raise ConfigError(f"jobs[{i}].dp: {js['dp']} not in allowed_dp {c['allowed_dp']}")
    hardware = construct("hardware", HardwareModel, **c["hardware"])
    anneal = construct("annealing", AnnealSchedule, **c["annealing"])
    f, ctl = c["failures"], c["controller"]
    # a run refuses the level at which the total reaches the live spines, as this call does
    construct("failures.counts", fail_spines, topo, sum(f["counts"]), f["seed"])
    return ScenarioConfig(
        scenario_id=c["scenario_id"],
        topology=topo,
        models=models,
        allowed_dp=c["allowed_dp"],
        job_specs=c["jobs"],
        arrival_window=c["arrival_window_s"],
        controller=ControllerModel(
            reaction_latency=ctl["reaction_latency_s"],
            elephant_threshold=ctl["elephant_threshold_bytes"],
            precomputed_failures=ctl["precomputed_failures"],
            ecmp_fallback_start=ctl["ecmp_fallback_start"],
            anneal_schedule=anneal,
        ),
        hardware=hardware,
        schemes=c["schemes"],
        seeds=c["seeds"],
        failure_time=f["time_s"],
        failure_counts=f["counts"],
        failure_seed=f["seed"],
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
