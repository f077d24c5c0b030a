"""Discrete-event, flow-level simulator of training jobs on a Clos fabric.

Jobs alternate compute phases with communication phases; a communication
phase emits one flow per ring edge. A centralized controller re-routes all
active elephant flows whenever a flow starts, a flow ends, or a spine fails,
after a configurable reaction latency; rates follow max-min fairness on the
current routes. Mice flows bypass the controller and stay on hashed paths.

An ECMP hash depends only on the flow, the seed and the live spines, so ECMP
decisions reuse the routed elephants' hashes: a decision hashes only the
elephants without a route, until a spine fails and the first decision after
it hashes every elephant again.

The event loop is single threaded and deterministic for a fixed scenario and
seed: ties in event time resolve by a fixed kind priority, then by insertion
sequence.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from heapq import heappop, heappush

from .rates import waterfill
from .routing import AnnealSchedule, PathChoice, assign_by_scheme, ecmp_assign, max_link_load
from .topology import INTRA_HOST, SPINE, ClosTopology, Route, fail_spines, forced_route
from .workload import (
    CommoditySpec,
    HardwareModel,
    Job,
    build_rings,
    compute_phase_duration,
    ring_allreduce_commodities,
)

DEFAULT_PORT_BASE = 49152

# Event-kind priority at equal timestamps.
_FLOW_COMPLETED = 0
_CONTROLLER_DECISION = 1
_COMPUTE_DONE = 2
_JOB_ARRIVAL = 3
_SPINE_FAILURE = 4


class SimInvariantError(RuntimeError):
    """An internal consistency check of the simulation failed."""


def stable_seed(*parts) -> int:
    """Deterministic sub-seed derivation, independent of hash randomization."""
    return zlib.crc32("|".join(str(p) for p in parts).encode("utf-8"))


@dataclass(frozen=True)
class ControllerModel:
    scheme: str = "greedy"
    reaction_latency: float = 10e-3
    elephant_threshold: float = 1e6  # bytes
    precomputed_failures: bool = False
    ecmp_fallback_start: bool = False
    anneal_schedule: AnnealSchedule = field(default_factory=AnnealSchedule)
    exact_max_commodities: int = 16

    def __post_init__(self):
        if self.reaction_latency < 0 or self.elephant_threshold < 0:
            raise ValueError("latency and threshold must be >= 0")


@dataclass
class FlowState:
    commodity: CommoditySpec
    iteration: int
    route: Route | None
    remaining: float  # bits
    rate: float = 0.0
    start_time: float = 0.0
    end_time: float | None = None
    elephant: bool = True
    transmitting: bool = False
    transmitted: float = 0.0


@dataclass(frozen=True)
class MetricsRecord:
    job_id: str
    iteration: int
    allreduce_time: float
    flow_records: tuple[tuple[str, float, float], ...]  # (commodity, fct, throughput)


@dataclass(frozen=True)
class FailurePlan:
    times: tuple[float, ...]
    counts: tuple[int, ...]
    seed: int = 0

    def __post_init__(self):
        if len(self.times) != len(self.counts):
            raise ValueError("failure times and counts must align")


@dataclass(frozen=True)
class SimResult:
    records: list[MetricsRecord]
    controller_log: list[dict]
    flow_log: list[dict]


def encode_route_as_udp_port(route: Route) -> int | None:
    """Spine routes encode their spine in the UDP source port; others have none."""
    if route.kind != SPINE:
        return None
    return DEFAULT_PORT_BASE + route.spine


def decode_udp_port(port: int) -> int:
    spine = port - DEFAULT_PORT_BASE
    if spine < 0:
        raise ValueError(f"port {port} below base {DEFAULT_PORT_BASE}")
    return spine


class _Engine:
    def __init__(self, topo, jobs, controller, hardware, failures, seed):
        self.topo = topo
        self.controller = controller
        self.hardware = hardware
        self.now = 0.0
        self.heap = []
        self.seq = 0
        self.epoch = 0
        # flows are added when emitted and removed when done, so the dict's
        # order is arrival order
        self.flows: dict[str, FlowState] = {}
        self.pending_decisions: set[float] = set()
        # the topology the last ECMP decision hashed on (see _on_decision)
        self.hashed_topo: ClosTopology | None = None
        self.records: list[MetricsRecord] = []
        self.controller_log: list[dict] = []
        self.flow_log: list[dict] = []
        # one route seed drives ECMP hashing (mice and scheme) and annealing
        self.route_seed = stable_seed(seed, "routes")

        self.jobs = {job.id: job for job in jobs}
        self.rings = {job.id: build_rings(job) for job in jobs}
        self.iteration_of = {job.id: 0 for job in jobs}
        self.comm_start: dict[str, float] = {}
        self.open_flows: dict[str, int] = {}  # per job, unfinished flows this iteration
        self.iter_records: dict[str, list[tuple[str, float, float]]] = {}
        for job in jobs:
            self._push(job.arrival_time, _JOB_ARRIVAL, job.id)
        if failures:
            for i, (t, k) in enumerate(zip(failures.times, failures.counts)):
                self._push(t, _SPINE_FAILURE, (k, stable_seed(failures.seed, i)))

    # -- event plumbing -----------------------------------------------------

    def _push(self, t, kind, payload):
        self.seq += 1
        heappush(self.heap, (t, kind, self.seq, payload))

    def _advance(self, t):
        dt = t - self.now
        if dt < 0:
            raise SimInvariantError(f"time moved backwards: {self.now} -> {t}")
        if dt > 0:
            for fs in self.flows.values():
                if fs.transmitting and fs.rate > 0:
                    sent = fs.rate * dt
                    fs.remaining -= sent
                    fs.transmitted += sent
        self.now = t

    def _schedule_decision(self, latency):
        t = self.now + latency
        if t not in self.pending_decisions:
            self.pending_decisions.add(t)
            self._push(t, _CONTROLLER_DECISION, None)

    def _reschedule_completion(self):
        self.epoch += 1
        horizon = None
        for fs in self.flows.values():
            if fs.transmitting and fs.rate > 0:
                eta = self.now + max(fs.remaining, 0.0) / fs.rate
                if horizon is None or eta < horizon:
                    horizon = eta
        if horizon is not None:
            self._push(horizon, _FLOW_COMPLETED, self.epoch)

    def _rewaterfill(self):
        active = [
            (cid, fs.route)
            for cid, fs in self.flows.items()
            if fs.transmitting and fs.route is not None
        ]
        alloc = waterfill(active, self.topo)
        for cid, rate in alloc.rates.items():
            self.flows[cid].rate = rate
        self._reschedule_completion()

    # -- event handlers -----------------------------------------------------

    def run(self) -> SimResult:
        while self.heap:
            t, kind, _, payload = heappop(self.heap)
            self._advance(t)
            if kind == _FLOW_COMPLETED:
                self._on_completion(payload)
            elif kind == _CONTROLLER_DECISION:
                self._on_decision(t)
            elif kind == _COMPUTE_DONE:
                self._on_compute_done(payload)
            elif kind == _JOB_ARRIVAL:
                self._start_compute(payload)
            elif kind == _SPINE_FAILURE:
                self._on_failure(*payload)
        if self.flows:
            raise SimInvariantError(f"{len(self.flows)} flows never completed")
        self.records.sort(key=lambda r: (r.job_id, r.iteration))
        return SimResult(self.records, self.controller_log, self.flow_log)

    def _start_compute(self, job_id):
        job = self.jobs[job_id]
        duration = compute_phase_duration(job, self.hardware)
        self._push(self.now + duration, _COMPUTE_DONE, job_id)

    def _on_compute_done(self, job_id):
        job = self.jobs[job_id]
        iteration = self.iteration_of[job_id]
        self.comm_start[job_id] = self.now
        self.iter_records[job_id] = []
        threshold_bits = self.controller.elephant_threshold * 8
        emitted = 0
        any_elephant = False
        for ring in self.rings[job_id]:
            if len(ring.members) < 2:
                continue
            for c in ring_allreduce_commodities(ring, iteration):
                forced = forced_route(self.topo, c.src, c.dst)
                if forced is not None and forced.kind == INTRA_HOST:
                    continue  # same-host transfer, no network time
                volume_bits = c.volume * 8
                elephant = volume_bits >= threshold_bits
                fs = FlowState(
                    commodity=c,
                    iteration=iteration,
                    route=None,
                    remaining=volume_bits,
                    start_time=self.now,
                    elephant=elephant,
                )
                if forced is not None:
                    fs.route = forced
                    fs.transmitting = True
                elif not elephant or self.controller.ecmp_fallback_start:
                    # mice start right away on a hashed path; elephants do so
                    # only in fallback mode, otherwise they await the controller
                    fs.route = ecmp_assign([c], self.topo, self.route_seed).assignment[c.id]
                    fs.transmitting = True
                any_elephant = any_elephant or elephant
                self.flows[c.id] = fs
                emitted += 1
        if emitted == 0:
            self._finish_iteration(job_id, allreduce_time=0.0)
            return
        self.open_flows[job_id] = emitted
        if any_elephant:
            self._schedule_decision(self.controller.reaction_latency)
        self._rewaterfill()

    def _elephant_commodities(self) -> list[CommoditySpec]:
        return [fs.commodity for fs in self.flows.values() if fs.elephant]

    def _on_decision(self, t):
        self.pending_decisions.discard(t)
        elephants = self._elephant_commodities()
        if not elephants:
            return
        to_route = elephants
        if self.controller.scheme == "ecmp":
            # an ECMP route depends only on the commodity, the seed and the live
            # spines: until a spine fails, a routed elephant would hash the same
            if self.topo is self.hashed_topo:
                to_route = [c for c in elephants if self.flows[c.id].route is None]
            self.hashed_topo = self.topo
        choice = assign_by_scheme(
            self.controller.scheme,
            to_route,
            self.topo,
            seed=self.route_seed,
            anneal_schedule=self.controller.anneal_schedule,
            exact_max_commodities=self.controller.exact_max_commodities,
        )
        for c in to_route:
            fs = self.flows[c.id]
            fs.route = choice.assignment[c.id]
            fs.transmitting = True
        full = PathChoice(
            {cid: self.flows[cid].route for cid in self.flows if self.flows[cid].route}
        )
        self.controller_log.append(
            {
                "time": self.now,
                "flows": len(elephants),
                "max_spine_load": max_link_load(full, self.topo),
            }
        )
        self._rewaterfill()

    def _on_completion(self, epoch):
        if epoch != self.epoch:
            return
        done = []
        for cid, fs in self.flows.items():
            if not fs.transmitting:
                continue
            if fs.remaining <= 1e-9 * (fs.commodity.volume * 8) + 1.0:
                done.append(cid)
        if not done:
            self._reschedule_completion()
            return
        touched_jobs = set()
        for cid in done:
            fs = self.flows.pop(cid)
            fs.end_time = self.now
            volume_bits = fs.commodity.volume * 8
            if abs(fs.transmitted - volume_bits) > 1e-6 * volume_bits + 8.0:
                raise SimInvariantError(
                    f"flow {cid} moved {fs.transmitted:.0f} of {volume_bits} bits"
                )
            fct = fs.end_time - fs.start_time
            throughput = volume_bits / fct if fct > 0 else 0.0
            job_id = fs.commodity.job_id
            self.iter_records[job_id].append((cid, fct, throughput))
            self.flow_log.append(
                {
                    "job": job_id,
                    "iteration": fs.iteration,
                    "commodity": cid,
                    "src": str(fs.commodity.src),
                    "dst": str(fs.commodity.dst),
                    "volume_bytes": fs.commodity.volume,
                    "start_s": fs.start_time,
                    "end_s": fs.end_time,
                    "udp_port": encode_route_as_udp_port(fs.route) if fs.route else None,
                }
            )
            self.open_flows[job_id] -= 1
            touched_jobs.add(job_id)
        for job_id in sorted(touched_jobs):
            if self.open_flows[job_id] == 0:
                fcts = [r[1] for r in self.iter_records[job_id]]
                self._finish_iteration(job_id, allreduce_time=max(fcts))
        if self.flows:
            if self._elephant_commodities():
                self._schedule_decision(self.controller.reaction_latency)
            self._rewaterfill()

    def _finish_iteration(self, job_id, allreduce_time):
        iteration = self.iteration_of[job_id]
        records = tuple(sorted(self.iter_records.get(job_id, [])))
        self.records.append(MetricsRecord(job_id, iteration, allreduce_time, records))
        self.iter_records[job_id] = []
        self.iteration_of[job_id] = iteration + 1
        if self.iteration_of[job_id] < self.jobs[job_id].num_iterations:
            self._start_compute(job_id)

    def _on_failure(self, count, fseed):
        self.topo = fail_spines(self.topo, count, fseed)
        failed = self.topo.failed_spines
        for cid, fs in self.flows.items():
            route = fs.route
            if route is None or route.kind != SPINE or route.spine not in failed:
                continue
            if fs.elephant:
                # stall until the controller reacts
                fs.route = None
                fs.transmitting = False
                fs.rate = 0.0
            else:
                fs.route = ecmp_assign([fs.commodity], self.topo, self.route_seed).assignment[cid]
        if self._elephant_commodities():
            latency = 0.0 if self.controller.precomputed_failures else self.controller.reaction_latency
            self._schedule_decision(latency)
        self._rewaterfill()


def run_scenario(
    topo: ClosTopology,
    jobs: list[Job],
    controller: ControllerModel,
    hardware: HardwareModel = HardwareModel(),
    failures: FailurePlan | None = None,
    seed: int = 0,
) -> SimResult:
    """Simulate the jobs to completion and return metrics plus the runtime log."""
    return _Engine(topo, jobs, controller, hardware, failures, seed).run()
