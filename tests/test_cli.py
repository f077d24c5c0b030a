import csv
import json

import pytest

from closroute.cli import main
from closroute.config import ConfigError, build_jobs, default_config, parse_config

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


def test_unknown_scheme_is_config_error(small_config, tmp_path, capsys):
    bad = json.loads(open(small_config).read())
    bad["schemes"] = ["greedy", "spray"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "schemes[1]" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_config_error_names_field_paths():
    with pytest.raises(ConfigError, match="topology"):
        parse_config({**default_config(), "topology": {"num_spines": 0}})
    with pytest.raises(ConfigError, match=r"jobs\[0\]\.model"):
        parse_config({**default_config(), "jobs": [{"model": "NOPE"}]})
    with pytest.raises(ConfigError, match=r"jobs\[0\]\.dp"):
        parse_config({**default_config(), "jobs": [{"model": "BLOOM", "dp": 3}]})
    with pytest.raises(ConfigError, match="unknown field"):
        parse_config({**default_config(), "typo_field": 1})
    with pytest.raises(ConfigError, match="failures.counts"):
        parse_config({**default_config(), "failures": {"time_s": 1.0, "counts": [32]}})
    with pytest.raises(ConfigError, match="failures.counts"):
        parse_config({**default_config(), "failures": {"time_s": 0.5, "counts": [20, 20]}})
    with pytest.raises(ConfigError, match=r"jobs\[5\]"):
        build_jobs(parse_config({**default_config(), "jobs": SIX_BLOOM_DP8}), 0)


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


def test_bench_empty_counts(tmp_path):
    out = str(tmp_path / "bench.csv")
    assert main(["bench", "--counts", "", "--schemes", "greedy", "--out", out]) == 0
    assert read_rows(out) == []


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


def test_scheme_override_flag(small_config, tmp_path):
    out = str(tmp_path / "results.csv")
    assert main(["run", "--config", small_config, "--out", out,
                 "--schemes", "edge_coloring", "--seed", "5"]) == 0
    rows = read_rows(out)
    assert {r["scheme"] for r in rows} == {"edge_coloring"}
    assert {r["seed"] for r in rows} == {"5"}
