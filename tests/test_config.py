"""Generated scenarios, each with one field of the schema (``config.FIELDS``)
mutated, run through ``closroute run`` in process: the run exits 0 or 2, and
on 2 its message starts with a field path.

A case starts from ``tests/test_cli.py``'s ``SMALL_CONFIG`` with one seed,
with greedy beside ECMP or beside ``exact``, and with both jobs arriving at
once or at drawn times. It mutates one row: a value of the wrong JSON type, NaN, inf,
a negative number, zero, an empty list, an unknown key beside the field, a
boolean, or a count past the fabric. A list's mutation replaces either the
list or its first entry.

Huge times are left out. A time scale too coarse for a flow's duration still
exits 3 during the run, until a bound on the scenario's time scale makes it a
config error."""

import contextlib
import copy
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_cli import SMALL_CONFIG

from closroute.cli import main
from closroute.config import FIELDS, ConfigError, default_config, parse_config

MUTATIONS = ("type", "nan", "inf", "negative", "zero", "empty", "unknown", "bool", "past")
# counts more than SMALL_CONFIG's fabric holds (4 spines, 64 GPUs), for the
# rows that count its parts; a topology dimension past 2**20 overflows a packed key
PAST_THE_FABRIC = {
    "topology.num_spines": 2**20 + 1,
    "topology.num_tors": 2**20 + 1,
    "topology.hosts_per_tor": 2**20 + 1,
    "topology.nics_per_host": 2**20 + 1,
    "models.*.tp": 65,
    "models.*.pp": 65,
    "allowed_dp": [65],
    "jobs[*].dp": 65,
    "failures.counts": [4],
}


class Case(NamedTuple):
    row: str  # the mutated row of FIELDS
    path: str  # the row's path in this scenario
    mutation: str
    value: object
    seed: int
    exact: bool  # exact runs beside greedy, in place of ECMP
    overlap: bool  # both jobs arrive at time 0


VALUES = {"type": {}, "nan": math.nan, "inf": math.inf, "negative": -1, "zero": 0, "empty": [],
          "unknown": None, "bool": True}
KINDS = {field.path: field.kind for field in FIELDS}
PAIRS = [(row, m) for row in KINDS for m in MUTATIONS if m != "past" or row in PAST_THE_FABRIC]


def _case(row, mutation, job=0, entry=False, seed=0, exact=False, overlap=False) -> Case:
    """The case that mutates row (of job, for a job's row; its first entry,
    if entry) in the base scenario given by seed, exact and overlap."""
    value = PAST_THE_FABRIC[row] if mutation == "past" else VALUES[mutation]
    path = row.replace("models.*", "models.MINI").replace("jobs[*]", f"jobs[{job}]")
    return Case(row, path, mutation, [value] if entry else value, seed, exact, overlap)


def _refused(case: Case) -> bool:
    """Whether the mutated row itself refuses the case's value, which no
    other check can then reach first."""
    return (case.mutation in ("type", "nan", "inf", "unknown")
            or case.mutation == "bool" and KINDS[case.row] != "bool"
            or case.mutation == "empty" and case.row != "failures.counts")


def _parent(path: str) -> str:
    return re.sub(r"\.?[^.\[]+$|\[\d+\]$", "", path)


@st.composite
def cases(draw) -> Case:
    row, mutation = draw(st.sampled_from(PAIRS))
    entry = KINDS[row].startswith("list of") and mutation not in ("empty", "unknown", "past")
    return _case(row, mutation, draw(st.integers(0, 1)), entry and draw(st.booleans()),
                 draw(st.integers(0, 3)), draw(st.booleans()), draw(st.booleans()))


def _scenario(case: Case) -> dict:
    """SMALL_CONFIG with the case's seed, schemes and arrivals, and its mutation."""
    cfg = {**copy.deepcopy(SMALL_CONFIG), "seeds": [case.seed]}
    if case.exact:
        cfg.update(schemes=["greedy", "exact"])
    if case.overlap:
        for job in cfg["jobs"]:
            job["arrival_time"] = 0.0
    *parents, name = [int(p) if p.isdigit() else p for p in re.findall(r"[^.\[\]]+", case.path)]
    node = cfg
    for part in parents:
        node = node[part] if isinstance(part, int) else node.setdefault(part, {})
    if case.mutation == "unknown":
        node["bogus"] = 1
    else:
        node[name] = case.value
    return cfg


def _run(case: Case) -> tuple[int, str]:
    """closroute run's exit code and stderr on the case's scenario."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "case.json"
        path.write_text(json.dumps(_scenario(case)))  # NaN and Infinity as json reads them
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["run", "--config", str(path), "--out", str(Path(tmp) / "out.csv")])
    return code, err.getvalue()


def _pinned(test):
    """Every mutation of every row, pinned, and exact running with overlapping jobs."""
    for row, mutation in PAIRS:
        test = example(_case(row, mutation))(test)
    return example(_case("controller.ecmp_fallback_start", "bool", 1, False, 1, True, True))(test)


def _check(case: Case):
    """Exit 2 names the mutated field, a section or entry that holds it, an
    entry of it, or a job whose placement or dp it breaks; a
    value that the field's row refuses exits 2 naming the field itself."""
    code, err = _run(case)
    assert code in (0, 2), err
    if code == 0:
        assert not _refused(case)
        return
    assert err.startswith("config error: "), err
    named = err[len("config error: "):].split(": ")[0]
    field = f"{_parent(case.path)}.bogus".lstrip(".") if case.mutation == "unknown" else case.path
    if _refused(case):
        assert named == field, err
    holders = []
    while field:
        holders.append(field)
        field = _parent(field)
    assert (named in holders or named.startswith(case.path + "[")
            or re.fullmatch(r"jobs\[\d\](\.dp)?", named)), err


@settings(derandomize=True, max_examples=100, deadline=None)
@given(cases())
@_pinned
def test_a_mutated_scenario_exits_0_or_2_naming_a_field(case):
    _check(case)


def test_the_mutations_reach_every_row(monkeypatch):
    """The cases above, collected without running them, mutate every row of
    FIELDS, use every mutation, and include exact and overlapping jobs."""
    seen: list[Case] = []
    monkeypatch.setattr(sys.modules[__name__], "_check", seen.append)
    test_a_mutated_scenario_exits_0_or_2_naming_a_field()
    assert {case.row for case in seen} == {field.path for field in FIELDS}
    assert {case.mutation for case in seen} == set(MUTATIONS)
    assert any(case.exact and case.overlap for case in seen)


@pytest.mark.parametrize("patch, message", [
    ({"jobs": []}, "jobs: must be a non-empty list"),
    ({"models": {}}, "models: must be a non-empty object"),
    ({"models": {"X": {"tp": 1, "pp": 1}}}, "models.X.num_params: missing required field"),
])
def test_a_scenario_has_jobs_and_models_with_their_required_fields(patch, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config({**default_config(), **patch})


def test_every_default_is_a_row_and_every_row_a_field_of_the_defaults():
    """Each leaf of default_config() matches one row and holds its default,
    where the row has one; each row matches a leaf of the default scenario."""
    def leaves(value, path):
        if isinstance(value, dict) and value:
            for key, sub in value.items():
                yield from leaves(sub, f"{path}.{key}".lstrip("."))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            for i, sub in enumerate(value):
                yield from leaves(sub, f"{path}[{i}]")
        else:
            yield path, value

    def pattern(row: str) -> str:
        return re.escape(row).replace(r"\[\*\]", r"\[\d+\]").replace(r"\*", r"[^.]+")

    matched = set()
    for path, value in leaves(default_config(), ""):
        rows = [f for f in FIELDS if re.fullmatch(pattern(f.path), path)]
        assert len(rows) == 1, path
        matched.add(rows[0].path)
        if "*" not in rows[0].path:
            assert value == rows[0].default, path
    assert matched == {field.path for field in FIELDS}
