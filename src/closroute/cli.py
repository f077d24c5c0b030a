"""Command-line experiment harness.

Verbs:
  run        simulate the configured scenario for every scheme x seed and
             write per-job metric rows as CSV plus a text summary
  validate   stress the greedy scheme against the exact optimum (and edge
             coloring) on seeded random instances
  bench      measure scheme runtimes across commodity counts
  failsweep  re-run the scenario injecting k spine failures for each k

Exit codes: 0 success, 2 configuration error, 3 runtime error, 4 a validated
bound was violated.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import replace

from .config import (
    ConfigError,
    ScenarioConfig,
    build_jobs,
    check_value,
    construct,
    default_config,
    failure_plan,
    load_config,
    parse_config,
)
from .routing import (
    SCHEME_NAMES,
    assign_by_scheme,
    degree_bound,
    edge_color_assign,
    exact_assign,
    greedy_assign,
    max_link_load,
    random_commodities,
    random_unit_instance,
)
from .sim import (
    DEFAULT_PORT_BASE,
    FLOW_COLUMNS,
    FlowLog,
    SimResult,
    flow_templates,
    run_scenario,
    stable_seed,
)
from .topology import ClosTopology, classify, fail_spines

RESULT_COLUMNS = ("scenario", "scheme", "job", "metric", "value", "seed")
TRACE_COLUMNS = ("scenario", "scheme", "seed", *FLOW_COLUMNS)


@contextmanager
def _atomic_open(path: str):
    """A text file that replaces path once the block ends without error: it is
    written as a temporary file beside path, which goes on error, so a failed
    run leaves no partial output behind. It gets the mode ``open`` would give."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            os.fchmod(fd, 0o666 & ~umask)
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: str, header: tuple[str, ...], rows: list[tuple]):
    with _atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _metric_rows(scenario_id, scheme, seed, result: SimResult) -> list[tuple]:
    per_job: dict[str, list] = {}
    for rec in result.records:
        per_job.setdefault(rec.job_id, []).append(rec)
    rows = []
    for job_id in sorted(per_job):
        recs = per_job[job_id]
        flows = [fr for rec in recs for fr in rec.flow_records]
        fcts = [f[1] for f in flows]
        tputs = [f[2] for f in flows]
        rows.append((scenario_id, scheme, job_id, "allreduce_time_s",
                     _mean(r.allreduce_time for r in recs), seed))
        rows.append((scenario_id, scheme, job_id, "mean_fct_s", _mean(fcts), seed))
        rows.append((scenario_id, scheme, job_id, "mean_throughput_bps", _mean(tputs), seed))
        rows.append((scenario_id, scheme, job_id, "min_bandwidth_bps",
                     min(tputs) if tputs else 0.0, seed))
    peak = max((e["max_spine_load"] for e in result.controller_log), default=0)
    rows.append((scenario_id, scheme, "all", "max_link_load", float(peak), seed))
    return rows


def _reprs(values: list[float]) -> list[str]:
    """The reprs of values, each distinct value formatted once."""
    memo = {v: repr(v) for v in set(values)}
    return list(map(memo.__getitem__, values))


def _write_trace(fh, scenario_id, scheme, seed, log: FlowLog):
    """Append a run's trace rows to fh, one completion event at a time, as
    ``csv.writer`` would write them. Only the scenario id comes from the user
    and may need quoting, so only the run's prefix goes through ``csv.writer``.
    The other fields are generated names and numbers, formatted once where
    they repeat: a template's once per run, an event's end time once, and
    start times, FCTs and throughputs once per distinct value in an event."""
    line = io.StringIO()
    csv.writer(line, lineterminator="\n").writerow((scenario_id, scheme, seed))
    prefix = line.getvalue()[:-1] + ","
    heads = [f"{prefix}{t.job_id}," for t in log.templates]
    edges = [[f",{s},{d},{v}," for s, d, v in zip(t.src, t.dst, t.volume)] for t in log.templates]
    ports = {}  # spine -> udp_port field
    for b in log.batches:
        job, spine = b.job.tolist(), b.spine.tolist()
        for s in set(spine) - ports.keys():
            ports[s] = "" if s < 0 else str(DEFAULT_PORT_BASE + s)
        end = f",{b.end!r},"
        fh.write("".join([
            f"{heads[j]}{it},{cid}{edges[j][p]}{start}{end}{fct},{tput},{ports[s]}\n"
            for j, it, cid, p, start, fct, tput, s in zip(
                job, b.iteration.tolist(), b.cid.tolist(), b.pos.tolist(),
                _reprs(b.start.tolist()), _reprs(b.fct.tolist()),
                _reprs(b.throughput.tolist()), spine)
        ]))


def _schemes(text: str) -> list[str]:
    """The scheme names of a comma-separated --schemes flag, checked as ``schemes`` is."""
    names = [s.strip() for s in text.split(",") if s.strip()]
    return check_value(names, "list of str", ("scheme", "distinct"), "--schemes")


def _counts(text: str) -> list[int]:
    """The distinct non-negative integers of a comma-separated --counts flag, at least one."""
    try:
        counts = [int(item) for item in text.split(",") if item.strip()]
    except ValueError as exc:
        raise ConfigError(f"--counts: {exc}") from None
    return check_value(counts, "list of int", (">= 0", "distinct"), "--counts")


def _load(args) -> ScenarioConfig:
    if args.config:
        config = load_config(args.config)
    else:
        config = parse_config(default_config())
    if args.schemes:
        config = replace(config, schemes=_schemes(args.schemes))
    if args.seed is not None:
        config = replace(config, seeds=[args.seed])
    return config


def _simulate(args, config: ScenarioConfig, levels: list[tuple[str, list[int]]]) -> list[tuple]:
    """Simulate each level (a scenario id and its failure counts), scheme and
    seed in that order; write and return the metric rows. With ``--trace``,
    each run's flows go to the trace's temporary file as the run ends, and the
    trace takes its place after the results CSV."""
    # jobs are immutable, so every level and scheme of a seed runs one list,
    # and one list of flow templates: the threshold is the same for every scheme
    jobs_by_seed = {seed: build_jobs(config, seed) for seed in config.seeds}
    templates_by_seed = {
        seed: flow_templates(config.topology, jobs, config.controller.elephant_threshold)
        for seed, jobs in jobs_by_seed.items()
    }
    rows = []
    with _atomic_open(_outputs(args)["trace"]) if args.trace else nullcontext() as trace:
        if trace:
            csv.writer(trace, lineterminator="\n").writerow(TRACE_COLUMNS)
        for scenario_id, counts in levels:
            plan = failure_plan(config, counts)
            for scheme in config.schemes:
                controller = replace(config.controller, scheme=scheme)
                for seed in config.seeds:
                    result = run_scenario(config.topology, jobs_by_seed[seed], controller,
                                          hardware=config.hardware, failures=plan, seed=seed,
                                          templates=templates_by_seed[seed])
                    rows.extend(_metric_rows(scenario_id, scheme, seed, result))
                    if trace:
                        _write_trace(trace, scenario_id, scheme, seed, result.flow_log)
                        trace.flush()
        rows.sort(key=lambda r: (r[0], r[1], r[2], r[3], r[5]))
        _write_csv(args.out, RESULT_COLUMNS, rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return rows


def cmd_run(args) -> int:
    config = _load(args)
    rows = _simulate(args, config, [(config.scenario_id, config.failure_counts)])
    _write_summary(_outputs(args)["summary"], rows)
    return 0


def _outputs(args) -> dict[str, str]:
    """The files a command writes: --out and, named after it, the --trace file and run's summary."""
    root, _ = os.path.splitext(args.out)
    outputs = {"out": args.out}
    if getattr(args, "trace", False):
        outputs["trace"] = root + ".trace.csv"
    if args.command == "run":
        outputs["summary"] = root + ".summary.txt"
    return outputs


def _write_summary(path: str, rows: list[tuple]):
    lines = ["per-scheme means", ""]
    by_scheme_metric: dict[tuple[str, str], list[float]] = {}
    for _, scheme, job, metric, value, _ in rows:
        if job == "all":
            continue
        by_scheme_metric.setdefault((scheme, metric), []).append(value)
    for (scheme, metric), values in sorted(by_scheme_metric.items()):
        lines.append(f"{scheme:14s} {metric:22s} {_mean(values):.6g}")
    with _atomic_open(path) as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_validate(args) -> int:
    for flag, value, least in (
        ("--max-tors", args.max_tors, ">= 2"),
        ("--max-spines", args.max_spines, ">= 1"),
        ("--max-commodities", args.max_commodities, ">= 1"),
        ("--instances", args.instances, ">= 1"),
    ):
        check_value(value, "int", (least,), flag)
    instances, seed = args.instances, args.seed
    worst_ratio = 0.0
    violations = 0
    coloring_mismatches = 0
    for i in range(instances):
        topo, commodities = random_unit_instance(
            stable_seed(seed, i),
            max_tors=args.max_tors,
            max_spines=args.max_spines,
            max_commodities=args.max_commodities,
        )
        batch = classify(topo, commodities)
        greedy_load = max_link_load(greedy_assign(batch, topo), topo)
        exact_load = max_link_load(exact_assign(batch, topo), topo)
        coloring_load = max_link_load(edge_color_assign(batch, topo), topo)
        bound = degree_bound(batch.kinds, topo)
        ratio = greedy_load / exact_load
        worst_ratio = max(worst_ratio, ratio)
        if greedy_load > 2 * exact_load:
            violations += 1
        if coloring_load != bound or coloring_load != exact_load:
            coloring_mismatches += 1
    report = [
        f"instances: {instances}",
        f"seed: {seed}",
        f"max_tors: {args.max_tors}",
        f"max_spines: {args.max_spines}",
        f"max_commodities: {args.max_commodities}",
        f"max greedy/exact spine-load ratio: {worst_ratio:.4f}",
        f"greedy 2x bound violations: {violations}",
        f"edge-coloring vs exact mismatches: {coloring_mismatches}",
        f"edge-coloring equals ceil(max_degree / live_spines): "
        f"{instances - coloring_mismatches}/{instances}",
    ]
    text = "\n".join(report)
    print(text)
    if args.out:
        with _atomic_open(args.out) as fh:
            fh.write(text + "\n")
    return 4 if violations or coloring_mismatches else 0


def measure_scheme_runtime(scheme: str, commodity_counts: list[int], topo: ClosTopology,
                           seed: int) -> list[tuple[int, float]]:
    """Median wall-clock seconds of 5 scheme invocations at each commodity count."""
    results = []
    for count in commodity_counts:
        commodities = random_commodities(topo, count, stable_seed(seed, count))
        samples = []
        for _ in range(5):
            start = time.perf_counter()
            assign_by_scheme(scheme, commodities, topo, seed=seed)
            samples.append(time.perf_counter() - start)
        results.append((count, statistics.median(samples)))
    return results


def cmd_bench(args) -> int:
    counts = _counts(args.counts)
    schemes = _schemes(args.schemes) if args.schemes else list(SCHEME_NAMES)
    topo = parse_config(default_config()).topology
    rows = []
    for scheme in schemes:
        for count, median in measure_scheme_runtime(scheme, counts, topo, args.seed):
            rows.append((scheme, count, median))
            print(f"{scheme:14s} n={count:<6d} median {median * 1e3:.3f} ms")
    _write_csv(args.out, ("scheme", "count", "median_s"), rows)
    return 0


def cmd_failsweep(args) -> int:
    config = _load(args)
    counts = _counts(args.counts)
    for k in counts:
        construct("--counts", fail_spines, config.topology, k, config.failure_seed)
    _simulate(args, config, [(f"{config.scenario_id}:k{k}", [k]) for k in counts])
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="closroute",
        description="Routing schemes and a flow-level training-traffic simulator "
        "for 2-layer Clos fabrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_flags = argparse.ArgumentParser(add_help=False)
    run_flags.add_argument("--config", help="scenario JSON (defaults to the built-in scenario)")
    run_flags.add_argument("--out", required=True, help="result CSV path")
    run_flags.add_argument("--seed", type=int, help="override the config's seed list")
    run_flags.add_argument("--schemes", help="comma-separated scheme override")
    run_flags.add_argument("--trace", action="store_true", help="also write a per-flow CSV")

    p_run = sub.add_parser("run", parents=[run_flags],
                           help="simulate the scenario for every scheme x seed")
    p_run.set_defaults(func=cmd_run)

    p_val = sub.add_parser("validate", help="compare greedy to the exact optimum")
    p_val.add_argument("--instances", type=int, default=1000)
    p_val.add_argument("--seed", type=int, default=0)
    p_val.add_argument("--max-tors", type=int, default=8)
    p_val.add_argument("--max-spines", type=int, default=4)
    p_val.add_argument("--max-commodities", type=int, default=14)
    p_val.add_argument("--out", help="also write the report to this path")
    p_val.set_defaults(func=cmd_validate)

    p_bench = sub.add_parser("bench", help="time the schemes at several commodity counts")
    p_bench.add_argument("--counts", default="100,500,1000,1500")
    p_bench.add_argument("--schemes", help="comma-separated scheme list")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", required=True)
    p_bench.set_defaults(func=cmd_bench)

    p_fail = sub.add_parser("failsweep", parents=[run_flags],
                            help="re-run the scenario under spine failures")
    p_fail.add_argument("--counts", default="1,4,8", help="failure counts, comma separated")
    p_fail.set_defaults(func=cmd_failsweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.out and not os.path.isdir(out_dir := os.path.dirname(os.path.abspath(args.out))):
            raise ConfigError(f"--out: directory '{out_dir}' does not exist")
        if args.out and (dirs := [p for p in _outputs(args).values() if os.path.isdir(p)]):
            raise ConfigError(f"--out: '{dirs[0]}' is a directory")
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
