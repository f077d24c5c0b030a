import csv
import hashlib
import io
import json
import math
import shlex
from collections import Counter
from dataclasses import replace
from itertools import repeat
from pathlib import Path

import pytest

from closroute import cli, routing, sim
from closroute.cli import main
from closroute.config import ConfigError, build_jobs, default_config, failure_plan, parse_config
from closroute.sim import DEFAULT_PORT_BASE, ControllerModel, FailurePlan, run_scenario
from closroute.topology import build_topology, classify, fail_spines

# a scenario small enough for quick end-to-end runs
SMALL_CONFIG = {
    "scenario_id": "small",
    "topology": {
        "num_spines": 4,
        "num_tors": 8,
        "hosts_per_tor": 2,
        "nics_per_host": 4,
        "link_capacity_bps": 100e9,
    },
    "models": {"MINI": {"num_params": 2e9, "bytes_per_param": 4, "tp": 4, "pp": 1}},
    "allowed_dp": [2, 4],
    "jobs": [
        {"model": "MINI", "dp": 4, "num_iterations": 2},
        {"model": "MINI", "dp": 2, "num_iterations": 2},
    ],
    "arrival_window_s": 1.0,
    "hardware": {"peak_flops": 312e12, "utilization": 0.3, "tokens_per_batch": 2e4},
    "schemes": ["greedy", "ecmp"],
    "seeds": [0, 1],
    "failures": {"time_s": 0.5, "counts": [], "seed": 1},
}


# 6 x 384 GPUs, more than the default 2048-GPU fabric holds
SIX_BLOOM_DP8 = [{"model": "BLOOM", "dp": 8}] * 6


@pytest.fixture()
def small_config(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return str(path)


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_run_writes_rows_for_all_schemes_and_jobs(small_config, tmp_path):
    out = str(tmp_path / "results.csv")
    assert main(["run", "--config", small_config, "--out", out]) == 0
    rows = read_rows(out)
    assert {r["scheme"] for r in rows} == {"greedy", "ecmp"}
    assert {r["job"] for r in rows} == {"job0", "job1", "all"}
    assert {r["seed"] for r in rows} == {"0", "1"}
    metrics = {r["metric"] for r in rows}
    assert metrics == {
        "allreduce_time_s",
        "mean_fct_s",
        "mean_throughput_bps",
        "min_bandwidth_bps",
        "max_link_load",
    }
    assert all(float(r["value"]) >= 0 for r in rows)
    assert (tmp_path / "results.summary.txt").exists()


def test_run_is_byte_deterministic(small_config, tmp_path):
    out_a = str(tmp_path / "a.csv")
    out_b = str(tmp_path / "b.csv")
    assert main(["run", "--config", small_config, "--out", out_a]) == 0
    assert main(["run", "--config", small_config, "--out", out_b]) == 0
    assert open(out_a, "rb").read() == open(out_b, "rb").read()


def test_run_trace_output(small_config, tmp_path):
    out = str(tmp_path / "results.csv")
    assert main(["run", "--config", small_config, "--out", out, "--trace"]) == 0
    trace = read_rows(str(tmp_path / "results.trace.csv"))
    assert trace
    for row in trace:
        assert float(row["end_s"]) >= float(row["start_s"])
        if row["udp_port"]:
            assert 49152 <= int(row["udp_port"]) < 49152 + 4


def test_run_default_config_smoke(tmp_path):
    # trimmed default scenario: single seed, one iteration per job
    cfg = default_config()
    for js in cfg["jobs"]:
        js["num_iterations"] = 1
    cfg["seeds"] = [0]
    path = tmp_path / "default.json"
    path.write_text(json.dumps(cfg))
    out = str(tmp_path / "out.csv")
    assert main(["run", "--config", str(path), "--out", out]) == 0
    rows = read_rows(out)
    assert {r["scheme"] for r in rows} == {"greedy", "ecmp"}
    assert {r["job"] for r in rows} == {"job0", "job1", "job2", "all"}


def test_random_jobs_resolve_per_seed(tmp_path):
    duo = {"num_params": 1e9, "bytes_per_param": 2, "tp": 2, "pp": 2}
    cfg = {**SMALL_CONFIG, "models": {**SMALL_CONFIG["models"], "DUO": duo},
           "jobs": [{"model": "random", "dp": "random", "num_iterations": 1}] * 2}
    config = parse_config(cfg)
    drawn = [build_jobs(config, seed) for seed in range(6)]
    assert {j.model.name for jobs in drawn for j in jobs} == {"MINI", "DUO"}
    assert {j.dp for jobs in drawn for j in jobs} == {2, 4}
    assert [build_jobs(config, seed) for seed in range(6)] == drawn
    path = tmp_path / "random.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out.csv")]) == 0


def test_unknown_scheme_is_config_error(small_config, tmp_path, capsys):
    bad = json.loads(open(small_config).read())
    bad["schemes"] = ["greedy", "spray"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "schemes[1]" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("where", ["schemes", "--schemes", "ControllerModel", "assign_by_scheme"])
def test_an_unknown_scheme_reads_the_same_everywhere(where, small_config, tmp_path, capsys):
    """The scenario, the flag, the controller and the dispatcher refuse a
    scheme name by one rule, in one wording after their path prefix. The
    dispatcher checks the name before it reads its commodities, so it refuses
    it even when they are not an input it could read."""
    out = tmp_path / "x.csv"
    if where == "schemes":
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**SMALL_CONFIG, "schemes": ["greedy", "spray"]}))
        assert main(["run", "--config", str(bad), "--out", str(out)]) == 2
        prefix, text = "config error: schemes[1]: ", capsys.readouterr().err[:-1]
    elif where == "--schemes":
        argv = ["run", "--config", small_config, "--schemes", "greedy,spray", "--out", str(out)]
        assert main(argv) == 2
        prefix, text = "config error: --schemes[1]: ", capsys.readouterr().err[:-1]
    else:
        with pytest.raises(ValueError) as refused:
            if where == "ControllerModel":
                ControllerModel(scheme="spray")
            else:
                routing.assign_by_scheme("spray", "not commodities",
                                         parse_config(SMALL_CONFIG).topology)
        prefix, text = "", str(refused.value)
    assert text == (f"{prefix}unknown scheme 'spray'; valid: "
                    "['greedy', 'ecmp', 'edge_coloring', 'annealing', 'exact']")
    assert not out.exists()


# 2^20 - 1 spines and ToRs of one host of 8 NICs each: every dimension is in
# range, but the fabric has 2,199,035,838,450 links. Parsed only, never run.
HUGE_FABRIC = {"num_spines": 2**20 - 1, "num_tors": 2**20 - 1, "hosts_per_tor": 1,
               "nics_per_host": 8}


@pytest.mark.parametrize("where", ["topology", "run_scenario"])
def test_a_fabric_past_2_to_the_26_links_reads_the_same_everywhere(where, tmp_path, capsys):
    """A scenario and a run refuse a fabric whose per-link arrays would not
    fit, by one check, in one wording after their path prefix."""
    if where == "topology":
        path, out = tmp_path / "huge.json", tmp_path / "x.csv"
        path.write_text(json.dumps({"topology": HUGE_FABRIC}))
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        prefix, text = "config error: topology: ", capsys.readouterr().err[:-1]
        assert not out.exists()
    else:
        topo = build_topology(**HUGE_FABRIC, link_capacity=100e9)
        with pytest.raises(ValueError) as refused:
            run_scenario(topo, [], ControllerModel())
        prefix, text = "", str(refused.value)
    assert text == f"{prefix}2199035838450 links exceed the 67108864 that a run can hold"


def test_a_fabric_of_2_to_the_26_links_parses():
    """1,024 ToRs of one 4,096-NIC host and 28,672 spines: 2^23 NIC links and
    2^26 - 2^23 spine links. One spine more is refused."""
    fabric = {"num_spines": 28672, "num_tors": 1024, "hosts_per_tor": 1, "nics_per_host": 4096}
    assert parse_config({"topology": fabric}).topology.num_links == 2**26
    with pytest.raises(ConfigError, match="^topology: 67110912 links exceed"):
        parse_config({"topology": {**fabric, "num_spines": 28673}})


@pytest.mark.parametrize("where", ["failures.counts", "--counts", "fail_spines", "run_scenario"])
def test_a_failure_total_reads_the_same_everywhere(where, small_config, tmp_path, capsys):
    """The scenario, a failsweep level, the library call and a run refuse
    failing every spine by one check, in one wording after their path prefix.
    SMALL_CONFIG's fabric has 4 spines."""
    out = tmp_path / "x.csv"
    if where == "failures.counts":
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**SMALL_CONFIG, "failures": {"counts": [4]}}))
        assert main(["run", "--config", str(bad), "--out", str(out)]) == 2
        prefix, text = "config error: failures.counts: ", capsys.readouterr().err[:-1]
    elif where == "--counts":
        argv = ["failsweep", "--config", small_config, "--counts", "4", "--out", str(out)]
        assert main(argv) == 2
        prefix, text = "config error: --counts: ", capsys.readouterr().err[:-1]
    else:
        config = parse_config(SMALL_CONFIG)
        with pytest.raises(ValueError) as refused:
            if where == "fail_spines":
                fail_spines(config.topology, 4, seed=1)
            else:
                run_scenario(config.topology, build_jobs(config, 0), config.controller,
                             failures=FailurePlan(times=(0.5,), counts=(4,), seed=1))
        prefix, text = "", str(refused.value)
    assert text == f"{prefix}cannot fail 4 of 4 live spines; one must survive"
    assert not out.exists()


@pytest.mark.parametrize("where", ["schemes", "bench --counts", "exact_assign"])
def test_exact_runs_past_sixteen_commodities_everywhere(where, tmp_path):
    """A scenario that lists exact, bench's counts and the solver all run exact
    on 24 inter-ToR commodities, more than the 16 that exact was once limited
    to. SMALL_CONFIG's two jobs have 16 + 8 inter-ToR elephants per iteration,
    and every commodity that random_commodities draws is inter-ToR."""
    out = tmp_path / "x.csv"
    if where == "schemes":
        scenario = tmp_path / "exact.json"
        scenario.write_text(json.dumps({**SMALL_CONFIG, "schemes": ["exact"], "seeds": [0]}))
        assert main(["run", "--config", str(scenario), "--out", str(out)]) == 0
        assert {r["scheme"] for r in read_rows(out)} == {"exact"}
    elif where == "bench --counts":
        assert main(["bench", "--schemes", "exact", "--counts", "24", "--out", str(out)]) == 0
        assert [(r["scheme"], r["count"]) for r in read_rows(out)] == [("exact", "24")]
    else:
        topo = parse_config(SMALL_CONFIG).topology
        batch = classify(topo, routing.random_commodities(topo, 24, seed=0))
        choice = routing.exact_assign(batch, topo)
        assert routing.max_link_load(choice, topo) == routing.degree_bound(batch.kinds, topo)


# Scenario values that Python's json module reads but no run can use: each, merged
# into the default scenario, must fail as a config error whose message starts
# with the field's path.
BAD_VALUES = [
    ({"controller": {"reaction_latency_s": math.nan}}, "controller.reaction_latency_s"),
    ({"controller": {"reaction_latency_s": -0.5}}, "controller.reaction_latency_s"),
    ({"controller": {"elephant_threshold_bytes": math.inf}}, "controller.elephant_threshold_bytes"),
    ({"controller": {"elephant_threshold_bytes": -1.0}}, "controller.elephant_threshold_bytes"),
    ({"topology": {"link_capacity_bps": math.nan}}, "topology.link_capacity_bps"),
    ({"hardware": {"peak_flops": math.inf}}, "hardware.peak_flops"),
    ({"hardware": {"utilization": 7.5}}, "hardware"),  # more than the GPUs' peak rate
    ({"arrival_window_s": math.nan}, "arrival_window_s"),
    ({"failures": {"time_s": -1.0}}, "failures.time_s"),
    ({"failures": {"time_s": math.nan}}, "failures.time_s"),
    ({"jobs": [{"arrival_time": -1.0}]}, r"jobs\[0\]\.arrival_time"),
    ({"jobs": [{"arrival_time": math.nan}]}, r"jobs\[0\]\.arrival_time"),
    ({"jobs": [{"arrival_time": "soon"}]}, r"jobs\[0\]\.arrival_time"),
    ({"jobs": [{"model": ["BLOOM"]}]}, r"jobs\[0\]\.model"),
    ({"jobs": [{"model": {}}]}, r"jobs\[0\]\.model"),
    ({"allowed_dp": [], "jobs": [{"dp": "random"}]}, "allowed_dp"),
    ({"allowed_dp": [True]}, "allowed_dp"),
    ({"jobs": [{"num_iterations": True}]}, r"jobs\[0\]\.num_iterations"),
    ({"allowed_dp": [1, 2], "jobs": [{"dp": True}]}, r"jobs\[0\]\.dp"),
    ({"seeds": [True]}, "seeds"),
    ({"failures": {"time_s": 1.0, "counts": [True]}}, "failures.counts"),
    ({"failures": {"time_s": 1.0, "seed": False}}, "failures.seed"),
    ({"exact_max_commodities": True}, "exact_max_commodities"),
    ({"controller": 5}, "controller"),
    ({"failures": 3}, "failures"),
    ({"annealing": None}, "annealing"),
    ({"models": {"X": 5}}, "models.X"),
    ({"controller": {"reaction_latency": 0.5}}, "controller.reaction_latency"),
    ({"topology": {"num_spine": 4}}, "topology.num_spine"),
    ({"models": {"X": {"num_params": 1e9, "tp": 1, "pp": 1, "bytes": 2}}}, "models.X.bytes"),
    ({"models": {"X": {"bytes_per_param": True, "num_params": 1e9, "tp": 1, "pp": 1}}},
     "models.X.bytes_per_param"),
    ({"models": {"X": {"bytes_per_param": 2.5, "num_params": 1e9, "tp": 1, "pp": 1}}},
     "models.X.bytes_per_param"),
    ({"scenario_id": 5}, "scenario_id"),
    # a repeated scheme or seed would run the same simulations again
    ({"schemes": ["greedy", "ecmp", "greedy"]}, r"schemes\[2\]"),
    ({"seeds": [1, 1]}, r"seeds\[1\]"),
]


def test_config_error_names_field_paths():
    for patch, field in BAD_VALUES:
        with pytest.raises(ConfigError, match=f"^{field}: "):
            parse_config({**default_config(), **patch})
    with pytest.raises(ConfigError, match="^topology: "):
        parse_config({**default_config(), "topology": {"num_spines": 0}})
    with pytest.raises(ConfigError, match="^models.X: "):
        parse_config({**default_config(), "models": {"X": {"num_params": 1e9, "tp": 0, "pp": 1}}})
    with pytest.raises(ConfigError, match=r"^jobs\[0\]\.model: "):
        parse_config({**default_config(), "jobs": [{"model": "NOPE"}]})
    with pytest.raises(ConfigError, match=r"^jobs\[0\]\.dp: "):
        parse_config({**default_config(), "jobs": [{"model": "BLOOM", "dp": 3}]})
    with pytest.raises(ConfigError, match="^typo_field: unknown field"):
        parse_config({**default_config(), "typo_field": 1})
    with pytest.raises(ConfigError, match="^failures.counts: "):
        parse_config({**default_config(), "failures": {"time_s": 1.0, "counts": [32]}})
    with pytest.raises(ConfigError, match="^failures.counts: "):
        parse_config({**default_config(), "failures": {"time_s": 0.5, "counts": [20, 20]}})
    with pytest.raises(ConfigError, match=r"^jobs\[5\]: "):
        build_jobs(parse_config({**default_config(), "jobs": SIX_BLOOM_DP8}), 0)


@pytest.mark.parametrize("patch, field", BAD_VALUES, ids=lambda v: json.dumps(v)[:60])
def test_bad_scenario_value_exits_2_before_simulating(patch, field, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**SMALL_CONFIG, **patch}))  # NaN and Infinity as json reads them
    out = tmp_path / "x.csv"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: " + field.replace("\\", "") + ": ")
    assert not out.exists()


def test_job_that_does_not_fit_exits_2(tmp_path, capsys):
    path = tmp_path / "crowded.json"
    path.write_text(json.dumps({**default_config(), "jobs": SIX_BLOOM_DP8}))
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "jobs[5]" in capsys.readouterr().err


def test_validate_reports_no_violations(tmp_path, capsys):
    out = str(tmp_path / "report.txt")
    code = main(["validate", "--instances", "60", "--seed", "3", "--out", out])
    assert code == 0
    text = open(out).read()
    assert "violations: 0" in text
    assert "mismatches: 0" in text
    stdout = capsys.readouterr().out
    assert "max greedy/exact spine-load ratio" in stdout


def test_validate_report_names_its_settings(tmp_path, capsys):
    """Two runs that differ only in --max-commodities write different reports,
    each naming the settings it ran with, on stdout as in --out."""
    texts = []
    for most in (2, 3):
        out = tmp_path / f"report{most}.txt"
        code = main(["validate", "--instances", "5", "--seed", "7", "--max-tors", "3",
                     "--max-spines", "2", "--max-commodities", str(most), "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert capsys.readouterr().out == text
        assert text.splitlines()[:5] == ["instances: 5", "seed: 7", "max_tors: 3", "max_spines: 2",
                                         f"max_commodities: {most}"]
        texts.append(text)
    assert texts[0] != texts[1]


def test_validate_single_trivial_instance(capsys):
    code = main(["validate", "--instances", "1", "--seed", "0",
                 "--max-tors", "2", "--max-spines", "1", "--max-commodities", "1"])
    assert code == 0
    assert "ratio: 1.0000" in capsys.readouterr().out


def test_bench_csv_shape(tmp_path):
    out = str(tmp_path / "bench.csv")
    code = main(["bench", "--counts", "50,100", "--schemes", "greedy,edge_coloring",
                 "--out", out])
    assert code == 0
    rows = read_rows(out)
    assert len(rows) == 4
    assert {r["scheme"] for r in rows} == {"greedy", "edge_coloring"}
    assert all(float(r["median_s"]) >= 0 for r in rows)


def test_bench_defaults_to_every_scheme(tmp_path, capsys):
    out = str(tmp_path / "bench.csv")
    assert main(["bench", "--counts", "10", "--out", out]) == 0
    schemes = ["greedy", "ecmp", "edge_coloring", "annealing", "exact"]
    assert [r["scheme"] for r in read_rows(out)] == schemes
    assert [line.split()[0] for line in capsys.readouterr().out.splitlines()] == schemes


def test_bench_empty_counts(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--counts", "", "--schemes", "greedy", "--out", str(out)]) == 2
    assert "--counts: names no entry" in capsys.readouterr().err
    assert not out.exists()


def test_failsweep_empty_counts(small_config, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["failsweep", "--config", small_config, "--counts", "", "--out", str(out)]) == 2
    assert "--counts: names no entry" in capsys.readouterr().err
    assert not out.exists()


def test_failsweep_produces_tagged_groups(small_config, tmp_path):
    out = str(tmp_path / "sweep.csv")
    code = main(["failsweep", "--config", small_config, "--out", out,
                 "--counts", "1,2", "--schemes", "greedy", "--seed", "0"])
    assert code == 0
    rows = read_rows(out)
    assert {r["scenario"] for r in rows} == {"small:k1", "small:k2"}


def test_failsweep_k0_matches_run(small_config, tmp_path):
    run_out = str(tmp_path / "run.csv")
    sweep_out = str(tmp_path / "sweep.csv")
    assert main(["run", "--config", small_config, "--out", run_out]) == 0
    assert main(["failsweep", "--config", small_config, "--out", sweep_out,
                 "--counts", "0"]) == 0
    run_rows = read_rows(run_out)
    sweep_rows = read_rows(sweep_out)
    assert len(run_rows) == len(sweep_rows)
    for a, b in zip(run_rows, sweep_rows):
        assert b["scenario"] == "small:k0"
        assert (a["scheme"], a["job"], a["metric"], a["value"], a["seed"]) == (
            b["scheme"], b["job"], b["metric"], b["value"], b["seed"])


def test_failsweep_rejects_total_failure(small_config, tmp_path):
    code = main(["failsweep", "--config", small_config, "--out", str(tmp_path / "x.csv"),
                 "--counts", "4"])
    assert code == 2


def test_failsweep_rejects_a_negative_count(small_config, tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = main(["failsweep", "--config", small_config, "--out", str(out), "--counts=1,-1"])
    assert code == 2
    assert "--counts" in capsys.readouterr().err
    assert not out.exists()


def test_failsweep_places_jobs_once_per_seed(tmp_path, monkeypatch):
    config = {**SMALL_CONFIG, "topology": {**SMALL_CONFIG["topology"], "num_spines": 8}}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config))
    placed = []

    def counting(config, seed):
        placed.append(seed)
        return build_jobs(config, seed)

    monkeypatch.setattr(cli, "build_jobs", counting)
    out = str(tmp_path / "sweep.csv")
    assert main(["failsweep", "--config", str(path), "--out", out,
                 "--counts", "1,4", "--schemes", "greedy,ecmp"]) == 0
    assert placed == [0, 1]
    rows = read_rows(out)
    assert {(r["scenario"], r["scheme"], r["seed"]) for r in rows} == {
        (f"small:k{k}", scheme, seed)
        for k in (1, 4) for scheme in ("greedy", "ecmp") for seed in ("0", "1")
    }


def test_scheme_override_flag(small_config, tmp_path):
    out = str(tmp_path / "results.csv")
    assert main(["run", "--config", small_config, "--out", out,
                 "--schemes", "edge_coloring", "--seed", "5"]) == 0
    rows = read_rows(out)
    assert {r["scheme"] for r in rows} == {"edge_coloring"}
    assert {r["seed"] for r in rows} == {"5"}


def assert_exact_peaks_as_edge_coloring(scenario: dict, tmp_path):
    """Exact and edge coloring both route every decision at the degree bound,
    so each seed's runs peak at the same spine-link load."""
    path, out = tmp_path / "exact.json", tmp_path / "x.csv"
    path.write_text(json.dumps(scenario))
    assert main(["run", "--config", str(path), "--out", str(out),
                 "--schemes", "exact,edge_coloring"]) == 0
    peaks = {(r["scheme"], r["seed"]): r["value"] for r in read_rows(out)
             if r["metric"] == "max_link_load"}
    assert peaks and all(peaks[("exact", seed)] == peaks[("edge_coloring", seed)]
                         for _, seed in peaks)


def test_exact_routes_a_job_of_256_inter_tor_elephants(tmp_path):
    """One LLaMA2-70B dp=2 iteration has 256 inter-ToR ring edges."""
    assert_exact_peaks_as_edge_coloring(
        {"jobs": [{"model": "LLaMA2-70B", "dp": 2, "num_iterations": 1}]}, tmp_path)


@pytest.mark.parametrize("fallback", [False, True])
def test_exact_routes_the_elephants_of_overlapping_jobs(tmp_path, fallback):
    """Two MINI dp=4 jobs at t=0 have 16 inter-ToR elephants per iteration
    each, so their decisions see 32 together."""
    assert_exact_peaks_as_edge_coloring({
        **SMALL_CONFIG,
        "jobs": [{"model": "MINI", "dp": 4, "num_iterations": 2, "arrival_time": 0.0}] * 2,
        "controller": {"ecmp_fallback_start": fallback},
    }, tmp_path)


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--counts=-5"],
        ["bench", "--counts", "x"],
        ["failsweep", "--counts", "x"],
        ["validate", "--max-commodities", "0"],
        ["validate", "--max-tors", "1"],
        ["validate", "--max-spines", "0"],
        ["validate", "--instances", "-5"],
        ["validate", "--instances", "0"],
    ],
    ids=" ".join,
)
def test_bad_integer_flag_is_config_error(argv, tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(argv + ["--out", str(out)]) == 2
    assert argv[1].split("=")[0] in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [pytest.param(argv, message, id=shlex.join(argv)) for argv, message in [
        (["run", "--schemes", ","], "--schemes: names no entry"),
        (["run", "--schemes", "greedy,greedy"], "--schemes[1]: 'greedy' repeats --schemes[0]"),
        (["run", "--schemes", "greedy,spray"],
         "--schemes[1]: unknown scheme 'spray'; valid: "
         "['greedy', 'ecmp', 'edge_coloring', 'annealing', 'exact']"),
        (["failsweep", "--schemes", "ecmp, ,ecmp"], "--schemes[1]: 'ecmp' repeats --schemes[0]"),
        (["failsweep", "--counts", ","], "--counts: names no entry"),
        (["failsweep", "--counts", "4,1,4"], "--counts[2]: 4 repeats --counts[0]"),
        (["bench", "--counts", " , "], "--counts: names no entry"),
        (["bench", "--counts", "10,10"], "--counts[1]: 10 repeats --counts[0]"),
        (["bench", "--schemes", ","], "--schemes: names no entry"),
        (["bench", "--counts", "10,-1"], "--counts: must be >= 0, got -1"),
        (["failsweep", "--counts", "1,-1"], "--counts: must be >= 0, got -1"),
        # SMALL_CONFIG has 4 spines
        (["failsweep", "--counts", "1,4"],
         "--counts: cannot fail 4 of 4 live spines; one must survive"),
    ]],
)
def test_empty_or_repeated_list_flag_is_config_error(argv, message, small_config, tmp_path,
                                                     capsys):
    """A list flag that names nothing, or one entry twice, would write no rows
    or the same rows again; one that names an unknown scheme could run none.
    A count is refused by the rule its scenario field or scheme states."""
    out = tmp_path / "x.csv"
    config = [] if argv[0] == "bench" else ["--config", small_config]
    assert main(argv + config + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["run"], ["run", "--trace"], ["failsweep", "--counts", "1"], ["bench", "--counts", "10"],
     ["validate", "--instances", "2"], ["failsweep", "--counts", "1", "--trace"]],
    ids=" ".join,
)
def test_out_in_a_missing_directory_exits_2_before_any_work(argv, small_config, tmp_path,
                                                            monkeypatch, capsys):
    """An --out in a missing directory, or one that is a directory, or whose
    trace or summary path is one, which the final rename into place would
    fail on."""
    calls = []
    monkeypatch.setattr(cli, "run_scenario", lambda *a, **k: calls.append(a))
    if argv[0] in ("run", "failsweep"):
        argv = argv + ["--config", small_config]
    missing = tmp_path / "missing"
    assert main(argv + ["--out", str(missing / "x.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: --out")
    assert f"'{missing}' does not exist" in captured.err
    assert captured.out == "" and calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]

    folder = tmp_path / "folder"
    folder.mkdir()
    assert main(argv + ["--out", str(folder)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: --out: '{folder}' is a directory\n"
    assert captured.out == "" and calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["folder", "scenario.json"]
    assert list(folder.iterdir()) == []

    derived = [".trace.csv"] * ("--trace" in argv) + [".summary.txt"] * (argv[0] == "run")
    for suffix in derived:
        folder.rmdir()
        folder = tmp_path / f"r{suffix}"
        folder.mkdir()
        assert main(argv + ["--out", str(tmp_path / "r.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: --out: '{folder}' is a directory\n"
        assert captured.out == "" and calls == []
        assert sorted(p.name for p in tmp_path.iterdir()) == [folder.name, "scenario.json"]
        assert list(folder.iterdir()) == []


# SHA-256 of the files two traced commands write on the small scenario. They
# change only with an output change that CHANGES.md declares.
GOLDEN_DIGESTS = {
    "run.csv": "cdf85eb0658367ba29e54fa13de89eafb538d0f06f25e9e7d4f4bd870d961e1d",
    "run.trace.csv": "d87f61e5b451fecd8957751f4ec352866f8db5a8f511a60ee3fe82d7ecf2ebf7",
    "run.summary.txt": "e33aa1f3904104f6879b3a21f7443ddaf5f1a9e3d9ae7be9b473c79f66a0ed18",
    "sweep.csv": "ef2cb0142778c5faf1a25f1fa8afe92d25a64b96331f4cd9ab8e7d8764f4d39f",
    "sweep.trace.csv": "3b5fff26ca3a0b3e9e6e51e7b71373dafe706396a1d6aa4e24c2218fd994abed",
}


def test_golden_output_digests(small_config, tmp_path):
    """Pins the bytes of `run --trace` under four schemes and of a traced
    failure sweep. A digest changes only with an output change declared in
    CHANGES.md; then record the new digests together with that declaration."""
    assert main(["run", "--config", small_config, "--out", str(tmp_path / "run.csv"), "--trace",
                 "--schemes", "greedy,ecmp,edge_coloring,annealing"]) == 0
    assert main(["failsweep", "--config", small_config, "--out", str(tmp_path / "sweep.csv"),
                 "--counts", "1,2", "--trace", "--schemes", "greedy,ecmp"]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in GOLDEN_DIGESTS
    }
    assert digests == GOLDEN_DIGESTS


def reference_trace(config, levels) -> bytes:
    """The trace as the CLI once wrote it: one 14-field tuple per flow, every
    run's tuples held until the end, then one ``csv.writer.writerows``."""
    jobs_by_seed = {seed: build_jobs(config, seed) for seed in config.seeds}
    rows = []
    for scenario_id, counts in levels:
        plan = failure_plan(config, counts)
        for scheme in config.schemes:
            for seed in config.seeds:
                log = run_scenario(config.topology, jobs_by_seed[seed],
                                   replace(config.controller, scheme=scheme),
                                   hardware=config.hardware, failures=plan, seed=seed).flow_log
                for b in log.batches:
                    templates = [log.templates[j] for j in b.job.tolist()]
                    pos = b.pos.tolist()
                    port = (b.spine + DEFAULT_PORT_BASE).astype(object)
                    port[b.spine < 0] = None
                    rows.extend(zip(
                        repeat(scenario_id), repeat(scheme), repeat(seed),
                        [t.job_id for t in templates], b.iteration.tolist(), b.cid.tolist(),
                        [str(t.src[p]) for t, p in zip(templates, pos)],
                        [str(t.dst[p]) for t, p in zip(templates, pos)],
                        [t.volume[p] for t, p in zip(templates, pos)],
                        b.start.tolist(), [b.end] * len(pos), b.fct.tolist(),
                        b.throughput.tolist(), ["" if p is None else p for p in port.tolist()],
                    ))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(cli.TRACE_COLUMNS)
    writer.writerows(rows)
    return out.getvalue().encode()


def test_trace_quotes_a_scenario_id_as_csv_writer_does(tmp_path):
    """Only the scenario id comes from the user; one that holds a comma, a
    quote and a newline is quoted in every row exactly as csv.writer quotes it."""
    scenario = dict(SMALL_CONFIG, scenario_id='a,b"c\nd', seeds=[0])
    path = tmp_path / "quoted.json"
    path.write_text(json.dumps(scenario))
    config = parse_config(scenario)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "run.csv"), "--trace",
                 "--schemes", "greedy,ecmp"]) == 0
    assert main(["failsweep", "--config", str(path), "--out", str(tmp_path / "sweep.csv"),
                 "--trace", "--counts", "1"]) == 0
    run = (tmp_path / "run.trace.csv").read_bytes()
    assert run.count(b'\n"a,b""c\nd",greedy,0,job') > 0
    assert run == reference_trace(replace(config, schemes=["greedy", "ecmp"]),
                                  [(config.scenario_id, config.failure_counts)])
    assert (tmp_path / "sweep.trace.csv").read_bytes() == reference_trace(
        config, [(f"{config.scenario_id}:k1", [1])]
    )


def test_trace_streams_each_run_and_a_failed_run_leaves_no_output(small_config, tmp_path,
                                                                  monkeypatch, capsys):
    """The first run's rows are in the trace's temporary file when the second
    run starts; when that run fails, the command exits 3 and leaves no file."""
    run_scenario = cli.run_scenario
    first, seen = [], []

    def second_fails(*args, **kwargs):
        if first:
            (tmp,) = tmp_path.glob("*.tmp")
            seen.append(tmp.read_text().splitlines())
            raise RuntimeError("the second run fails")
        first.append(run_scenario(*args, **kwargs))
        return first[0]

    monkeypatch.setattr(cli, "run_scenario", second_fails)
    assert main(["run", "--config", small_config, "--out", str(tmp_path / "run.csv"),
                 "--trace"]) == 3
    assert "the second run fails" in capsys.readouterr().err
    (lines,) = seen
    assert lines[0] == ",".join(cli.TRACE_COLUMNS)
    assert len(lines) == 1 + len(first[0].flow_log) > 1
    assert all(line.startswith("small,greedy,0,job") for line in lines[1:])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]


@pytest.mark.parametrize("peak_flops", [7, 1e3, 1e6])
def test_flows_at_a_large_time_finish_with_their_fct(peak_flops, tmp_path):
    """Slow compute puts the flows at t = 1e8 s and later, where link capacity
    x ulp(t) far exceeds the completion tolerance in bits: every flow still
    finishes, with a positive FCT that is its end less its start."""
    path = tmp_path / "slow.json"
    hardware = {**SMALL_CONFIG["hardware"], "peak_flops": peak_flops}
    path.write_text(json.dumps({**SMALL_CONFIG, "hardware": hardware}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "slow.csv"),
                 "--trace"]) == 0
    trace = read_rows(str(tmp_path / "slow.trace.csv"))
    assert max(float(row["end_s"]) for row in trace) > 1e8
    for row in trace:
        fct = float(row["fct_s"])
        assert fct > 0 and fct == float(row["end_s"]) - float(row["start_s"])


def test_a_time_too_coarse_for_a_flow_exits_3_naming_it(tmp_path, capsys):
    """At arrival times near 1e20 s a flow's duration is lost in the rounding
    of t: the run stops rather than log an FCT of 0, and writes nothing."""
    path = tmp_path / "coarse.json"
    path.write_text(json.dumps({**SMALL_CONFIG, "arrival_window_s": 1e20}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "coarse.csv"),
                 "--trace"]) == 3
    err = capsys.readouterr().err
    assert "flow job" in err and "too coarse" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["coarse.json"]


def test_exact_guard_is_a_config_error(tmp_path, capsys):
    """The exact guard, ``exact_max_commodities``, is gone from the schema, so
    a scenario that names it is refused as an unknown field."""
    path, out = tmp_path / "exact.json", tmp_path / "x.csv"
    path.write_text(json.dumps({**SMALL_CONFIG, "schemes": ["exact"],
                                "exact_max_commodities": 16}))
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: exact_max_commodities: unknown field\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, runs", [
    (["run", "--schemes", "greedy,ecmp"], 4),
    (["failsweep", "--counts", "1,2"], 8),
    (["run", "--schemes", "exact,greedy"], 4),
])
def test_flow_templates_are_built_once_per_job_and_seed(argv, runs, small_config, tmp_path,
                                                        monkeypatch):
    """A template depends only on the fabric, the job's placement and the
    elephant threshold, so every scheme and failure level of a seed shares
    its jobs' templates: each job's rings are built once."""
    built = Counter()
    scenarios = []
    build_rings = sim.build_rings
    run_scenario = cli.run_scenario

    def counting(job):
        built[job] += 1
        return build_rings(job)

    def recording(topo, jobs, *args, **kwargs):
        scenarios.append(tuple(jobs))
        return run_scenario(topo, jobs, *args, **kwargs)

    monkeypatch.setattr(sim, "build_rings", counting)
    monkeypatch.setattr(cli, "run_scenario", recording)
    assert main([*argv, "--config", small_config, "--out", str(tmp_path / "out.csv")]) == 0
    assert len(scenarios) == runs
    jobs = [job for seed_jobs in dict.fromkeys(scenarios) for job in seed_jobs]
    assert len(jobs) == len(SMALL_CONFIG["seeds"]) * len(SMALL_CONFIG["jobs"])
    assert built == Counter(jobs)


@pytest.fixture()
def spans(monkeypatch):
    """The benchmark's tracer module, imported as it is, without changes."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "benchmarks"))
    import spans

    return spans


def test_benchmark_tracer_sees_every_call(spans, small_config, tmp_path, monkeypatch):
    """Each layer that benchmarks/spans.py wraps by module attribute is still
    called through that attribute, and the CLI runs levels, then schemes, then
    seeds, the order in which the benchmark reads the results."""
    runs = []
    run_scenario = cli.run_scenario

    def recording(topo, jobs, controller, hardware, failures, seed, templates):
        runs.append((failures.counts if failures else (), controller.scheme, seed))
        return run_scenario(topo, jobs, controller, hardware=hardware, failures=failures, seed=seed,
                            templates=templates)

    monkeypatch.setattr(cli, "run_scenario", recording)
    tracer = spans.Tracer(full=True)
    with tracer.installed():
        assert cli.main(["run", "--config", small_config, "--out", str(tmp_path / "run.csv"),
                         "--schemes", "greedy,ecmp,edge_coloring"]) == 0
        assert cli.main(["failsweep", "--config", small_config,
                         "--out", str(tmp_path / "sweep.csv"), "--counts", "1,2"]) == 0
    counts = tracer.take_counts()
    for module, attr, _ in spans.SPANS:
        assert callable(getattr(module, attr))
    # the engine takes its max spine load from the flow table, not max_link_load
    assert {layer for _, _, layer in spans.SPANS if not counts.get(f"{layer}.calls")} == {
        "routing.max_link_load"
    }
    seeds = (0, 1)
    assert runs == [((), s, seed) for s in ("greedy", "ecmp", "edge_coloring") for seed in seeds] + [
        ((k,), s, seed) for k in (1, 2) for s in ("greedy", "ecmp") for seed in seeds
    ]
