"""Timing and counting around closroute's public functions, from outside.

The benchmark replaces module attributes with wrappers for the duration of a
measurement, so it sees every call exactly as the CLI and the engine make it.
Modules that import a function by name hold their own reference, which is
what lets the wrappers tell apart callers of the same function: the engine's
mice hashing calls ``sim.ecmp_assign`` while an ECMP decision reaches
``routing.ecmp_assign`` through ``assign_by_scheme``.

Two modes:

* light (untraced runs): only the calls whose per-call times feed the
  end-to-end percentiles are timed, and simulation results are captured for
  the output checks. With ``observe`` set, which the untimed verification
  re-runs use, decisions are analysed too;
* full (traced runs): every entry of ``SPANS`` is a span. A span's self time
  is its duration minus its direct child spans and minus the tracer's own
  analysis work done inside it.

With ``probe`` set, the wrappers also take the host speed probes of
calibrate.py, and every time they record leaves the probes out.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple
from contextlib import contextmanager

import numpy as np

from calibrate import PROBE_EVERY_S, probe_s
from closroute import cli, rates, routing, sim

# (module, attribute, layer)
SPANS = (
    (cli, "main", "cli"),
    (cli, "load_config", "config.parse"),
    (cli, "parse_config", "config.parse"),
    (cli, "build_jobs", "config.build_jobs"),
    (cli, "run_scenario", "sim.run"),
    (sim, "build_rings", "workload.rings"),
    (sim, "ring_allreduce_commodities", "workload.rings"),
    (sim, "fail_spines", "topology.fail_spines"),
    (sim, "assign_by_scheme", "sim.decide"),
    (sim, "ecmp_assign", "routing.mice_hash"),
    (sim, "max_link_load", "routing.max_link_load"),
    (sim, "waterfill", "rates.waterfill"),
    (routing, "greedy_assign", "routing.greedy"),
    (routing, "ecmp_assign", "routing.ecmp"),
    (routing, "edge_color_assign", "routing.coloring"),
    (rates, "waterfill", "rates.waterfill"),
)

# Layers whose per-call durations are kept for the end-to-end percentiles, and
# the layer whose results the output checks read. Only these are wrapped in
# light mode.
SAMPLED = ("routing.greedy", "routing.coloring", "rates.waterfill")
LIGHT = SAMPLED + ("sim.run",)

Record = namedtuple("Record", "job_id iteration allreduce_time")


def summarize(result) -> dict:
    """What the checks and metrics need of a SimResult. The result itself is
    let go, as the CLI lets it go, so the benchmark does not hold the flow logs
    of a whole round in memory."""
    return {
        "records": [Record(r.job_id, r.iteration, r.allreduce_time) for r in result.records],
        "flows": len(result.flow_log),
        "slowest_bps": min(
            (f[2] for r in result.records for f in r.flow_records), default=math.inf
        ),
        "max_spine_load": max((e["max_spine_load"] for e in result.controller_log), default=0),
        "decision_times": [e["time"] for e in result.controller_log],
    }


class Tracer:
    def __init__(self, full: bool, observe: bool | None = None, probe: bool = False):
        self.full = full
        # host speed probes (see calibrate.py), taken between wrapped calls
        self.probe = probe
        self.probes: list[float] = []
        self.probe_time = 0.0
        self._next_probe = 0.0
        # per-call durations in call order, over the whole run, and for each
        # the number of speed probes taken before it
        self.samples: dict[str, list[float]] = {layer: [] for layer in SAMPLED}
        self.sample_probe: dict[str, list[int]] = {layer: [] for layer in SAMPLED}
        # summaries of the simulation results since the last take_results()
        self.results: list[dict] = []
        # when set, greedy's inputs are kept for a later edge-colouring replay
        self.capture: list | None = None
        self._pending: list = []
        # when true, decisions are analysed (churn, components, strandings)
        self.observe = full if observe is None else observe
        self.runs: list[dict] = []  # one observation record per simulated run
        self.counts: dict[str, float] = {}
        self._stack: list[list[float]] = []
        self._last_spine: dict[str, int] = {}
        self._last_components: set = set()
        self._last_rates: dict[str, float] = {}

    # -- installation -------------------------------------------------------

    @contextmanager
    def installed(self):
        saved = []
        for module, attr, layer in SPANS:
            if not (self.full or layer in LIGHT or self.observe and layer == "sim.decide"):
                continue
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, attr, layer))
        try:
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def _wrap(self, fn, attr, layer):
        tracer = self

        def wrapper(*args, **kwargs):
            if layer == "sim.run" and tracer.observe:
                tracer._begin_run()
            frame = [0.0]
            if tracer.full:
                tracer._stack.append(frame)
            probed = tracer.probe_time
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                # less the speed probes taken by wrapped calls inside this one
                elapsed = time.perf_counter() - start - (tracer.probe_time - probed)
                if tracer.full:
                    tracer._stack.pop()
            analysis_start = time.perf_counter()
            tracer._after(layer, attr, elapsed, frame[0], args, result)
            analysis = time.perf_counter() - analysis_start
            if tracer.probe and analysis_start >= tracer._next_probe:
                taken = probe_s()
                tracer.probes.append(taken)
                tracer.probe_time += taken
                tracer._next_probe = time.perf_counter() + PROBE_EVERY_S
            if tracer.full and tracer._stack:
                # the parent's time already leaves out the probe; its self
                # time leaves out this call and the analysis after it too
                tracer._stack[-1][0] += elapsed + analysis
            return result

        return wrapper

    # -- recording ----------------------------------------------------------

    def count(self, name: str, amount: float = 1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def take_results(self) -> list:
        results, self.results = self.results, []
        return results

    def compact_capture(self):
        """Keep the greedy inputs captured during the last operation as arrays
        of endpoints. Holding the commodity objects instead would keep them
        alive for the garbage collector to traverse in every later operation,
        which slowed the measured work by up to a fifth."""
        for commodities, topo in self._pending:
            ends = [
                (c.src.tor, c.src.host, c.src.nic, c.dst.tor, c.dst.host, c.dst.nic)
                for c in commodities
            ]
            self.capture.append((np.array(ends, dtype=np.int32).reshape(-1, 6), topo))
        self._pending = []

    def take_counts(self) -> dict[str, float]:
        counts, self.counts = self.counts, {}
        return counts

    def _after(self, layer, attr, elapsed, children, args, result):
        if layer in self.samples:
            self.samples[layer].append(elapsed)
            self.sample_probe[layer].append(len(self.probes))
        if layer == "sim.run":
            self.results.append(summarize(result))
        if layer == "routing.greedy" and self.capture is not None:
            self._pending.append((args[0], args[1]))
        if self.observe and layer == "sim.decide":
            self._observe_decision(args[1], args[2], result)
        if not self.full:
            return
        self.count(f"{layer}.busy_s", elapsed)
        self.count(f"{layer}.self_s", elapsed - children)
        self.count(f"{layer}.calls")
        if layer in ("routing.greedy", "routing.ecmp"):
            self.count(f"{layer}.elephants", len(args[0]))
        elif attr == "ring_allreduce_commodities":
            self.count("workload.commodities", len(result))
        elif layer == "rates.waterfill":
            self._observe_rates(result.rates)
        elif layer == "sim.run":
            self.count("sim.flows_completed", len(result.flow_log))
            self.count("sim.iterations", len(result.records))

    # -- analysis (full mode, and verification re-runs) ---------------------

    def _begin_run(self):
        self._last_spine = {}
        self._last_components = set()
        self._last_rates = {}
        self.runs.append({"stranded": 0, "failed_spines": frozenset()})

    def _observe_decision(self, elephants, topo, choice):
        spines = {cid: route.spine for cid, route in choice.assignment.items()}
        run = self.runs[-1]
        failed = topo.failed_spines
        rerouted = changed = stranded = 0
        for c in elephants:
            before = self._last_spine.get(c.id)
            if before is None:
                continue
            rerouted += 1
            changed += before != spines[c.id]
            stranded += before in failed
        run["stranded"] += stranded
        run["failed_spines"] = failed
        components = {
            tuple(c.id for c in group) for group in routing.decompose_components(elephants)
        }
        self.count("decide.rerouted", rerouted)
        self.count("decide.changed", changed)
        self.count("decide.components", len(components))
        self.count("decide.clean_components", len(components & self._last_components))
        self._last_spine = spines
        self._last_components = components

    def _observe_rates(self, new_rates):
        last = self._last_rates
        changed = sum(1 for cid, r in new_rates.items() if last.get(cid) != r)
        self.count("rates.flows", len(new_rates))
        self.count("rates.changed", changed)
        self._last_rates = new_rates


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(counts: dict[str, float]) -> dict[str, float]:
    """The per-layer metrics of one round, from its full-mode counters."""
    c = lambda name: counts.get(name, 0)  # noqa: E731
    return {
        "config.parse_s": c("config.parse.busy_s"),
        "config.build_jobs_s": c("config.build_jobs.busy_s"),
        "workload.rings_s": c("workload.rings.busy_s"),
        "workload.commodities": c("workload.commodities"),
        "topology.fail_spines_s": c("topology.fail_spines.busy_s"),
        "topology.fail_spines_calls": c("topology.fail_spines.calls"),
        "routing.greedy_s": c("routing.greedy.busy_s"),
        "routing.greedy_calls": c("routing.greedy.calls"),
        "routing.greedy_elephants": c("routing.greedy.elephants"),
        "routing.ecmp_s": c("routing.ecmp.busy_s"),
        "routing.ecmp_calls": c("routing.ecmp.calls"),
        "routing.ecmp_elephants": c("routing.ecmp.elephants"),
        "routing.mice_hash_s": c("routing.mice_hash.busy_s"),
        "routing.mice_hash_calls": c("routing.mice_hash.calls"),
        "routing.max_link_load_s": c("routing.max_link_load.busy_s"),
        "routing.churn_ratio": _ratio(c("decide.changed"), c("decide.rerouted")),
        "routing.components_per_decision": _ratio(c("decide.components"), c("sim.decide.calls")),
        "routing.clean_component_ratio": _ratio(
            c("decide.clean_components"), c("decide.components")
        ),
        "rates.waterfill_s": c("rates.waterfill.busy_s"),
        "rates.calls": c("rates.waterfill.calls"),
        "rates.flows": c("rates.flows"),
        "rates.changed_ratio": _ratio(c("rates.changed"), c("rates.flows")),
        "sim.run_s": c("sim.run.busy_s"),
        "sim.self_s": c("sim.run.self_s"),
        "sim.decisions": c("sim.decide.calls"),
        "sim.flows_completed": c("sim.flows_completed"),
        "sim.iterations": c("sim.iterations"),
        "cli.self_s": c("cli.self_s"),
        "cli.rows_written": c("cli.rows_written"),
    }
