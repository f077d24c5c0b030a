"""Discrete-event, flow-level simulator of training jobs on a Clos fabric.

Jobs alternate compute phases with communication phases; a communication phase
emits one flow per ring edge that leaves its host: same-host edges take no
network time. A job sends the same edges every iteration, so its flows are
derived once per placement, as a template (``network_flows``): one
``ring_allreduce_commodities`` call per ring and one ``classify`` call give
the off-host edges' endpoints, volumes, ToRs, NIC link ids and elephant
flags. A template depends only on the fabric, the job's placement and the
elephant threshold, so the runs of one seed's jobs share their templates
(``flow_templates``, passed to ``run_scenario``): the CLI builds them once per
seed for all schemes and failure levels; a run given none builds its own. An
iteration only makes its ids, ``iteration_prefix`` followed by the template's
id tails (see ``emit``), and writes them into its job's slots of the flow
table.

A centralized controller re-routes all active elephant flows whenever a flow
starts, a flow ends, or a spine fails, after a configurable reaction
latency; rates follow max-min fairness on the current routes. Mice flows
bypass the controller and stay on hashed paths: one ``ecmp_assign`` call
routes an emission's intra-ToR flows, mice and (in fallback mode) elephants,
and one re-hashes the mice a spine failure hits. The schemes get no
``CommoditySpec``: each call takes the table's own columns for its flows, as
one ``topology.Commodities`` batch (``_batch``), the form that every scheme
reads its input into. Its ``classify`` columns are the templates', so a run
classifies and checks each flow once, when its template is built.

Greedy, edge coloring and exact read no id: their spines are a function of
a batch's ``Classified`` columns, in order, and of the fabric with its live
spines. A job's next iteration emits the same flows into the same slots, so a
decision often hands its scheme the columns of an earlier one (on the
20-scenario criterion-6 sweep, 627 of 720 greedy calls). The engine
keeps one memo per run and passes it at every decision; the scheme stores
its spines under those columns and the fabric, and reads them back when they
meet again (``routing._spines``). A hit is exact: the key holds all that the
spines depend on, compared byte for byte, never a digest. The lookup sits
inside the scheme call, after ``classify`` and before ``build_routes``, so a
hit makes the same scheme call, returns an equal ``PathChoice``, and is seen
by every wrap, count and capture around that call as a miss is. A failure
starts a new memo: no key on the old live spines can match again, and
dropping them bounds its memory.

An ECMP hash depends only on the flow, the seed and the live spines, so ECMP
decisions reuse the routed elephants' hashes: a decision hashes only the
elephants without a route, until a spine fails and the first decision after
it hashes every elephant again. One that finds none to hash logs its entry and
leaves the rates alone: every other event that changes a row refills them,
unless it is a completion that cannot change a rate (see below).

Flows live in one flow table, allocated once per run from its templates: one
array per column (the job and its id, the flow's position in its template,
endpoints, volume in bytes and in bits, the elephant flag, both ToRs, id,
start time, bits remaining, the live and transmitting flags, rate, finish
time, spine, FCT and throughput) and a row of four link ids per flow,
the NIC-up, ToR->spine, spine->ToR and NIC-down link, -1 where unused (the
layout of ``topology.route_link_rows``). There is no commodity column: a
scheme's batch is read from these. Flow p of job j's template keeps slot
``first[j] + p`` in every iteration: a job has one iteration in flight, since
its next compute phase starts only once all of its flows are done. The columns
that a template fixes, from the job to the ToRs, and the NIC link ids are
filled once. An emission writes its iteration's ids, start and bits remaining
into the job's slots and marks them live; a completion clears their live and
transmitting flags, rate, finish time, spine and spine links, and stores each
flow's FCT and throughput there.
Columns 0 and 3 hold ``classify``'s NIC ids. When a flow gets a route (at
emission for hashed flows, at a decision for the elephants routed there, and
on a failure for the mice it hits) its row is rewritten with the scheme's
``PathChoice.link_rows``, whose batch holds the table's NIC ids, so only
columns 1 and 2 change, -1 off a spine. A failure clears columns 1 and 2 of
the elephants it stalls. Rates are recomputed from the cached rows of the
transmitting flows, which the table hands to ``waterfill`` in slot order (its
rates are the same in any order); its rate array is written back as it is, so
no ``Route`` or rate dict is built during a run. A decision's max spine load is
a count over the same rows, and a failure re-hashes the mice it hits each on
its own. The two consumers whose results depend on order, a decision's
elephant list and each completion batch, take their flows in emission order
(``_emission_order``): by their iteration's emission, then by slot, which is
the order of a table that appends flows as they are emitted and drops them
stably as they finish. An iteration is over once none of its job's slots is
live.

A flow's bits remaining are those it had when its rate was last set, and its
finish time is when they run out at that rate, inf while it has none. A refill
sets both for the flows it refills (one that moved has rate x (finish - now)
bits left), and a flow taken off its route keeps its bits left: advancing time
writes no column. The completion check is due at the earliest finish time and
finds done each flow within its tolerance, ``DONE_RTOL`` of its volume plus
``DONE_SLACK_BITS``, taken as time at its rate. A finished flow's FCT must be
positive: where ``t`` is too coarse to resolve it, the run stops. These are
array expressions over the table, each doing the same floating-point operation
per flow as a loop would.

A completion refills the rates only when a finished flow crossed a link that a
flow still transmitting crosses; otherwise every rate stands, and so does every
finish time. This is exact. The rates are, by induction, what a
refill over the rows left plus the finished flows' rows gives. The finished
flows form connected components of their own in the graph of flows and the
links they cross, and dropping them changes no other component's rates, bit
for bit. In progressive filling (``rates.waterfill``) a component's residuals
and counts of unfrozen flows change only in the rounds where its own flows
freeze, and it freezes flows exactly when its own smallest share is the
round's level: so it freezes the same flows at the same levels, in the same
order, whichever other components are filled beside it. Which of its links
count as shared (crossed by two or more flows) does not change either, since
no finished flow crossed them. Finished flows may share links with each
other: the test looks only at the links of the flows left transmitting.

A completion event keeps the columns of the flows it finished, in emission
order, as one batch: ids, job, template position, iteration, start, spine, FCT
and throughput; only its slot, until its job's next emission, keeps a finished
flow besides. A job's ``MetricsRecord.flow_records`` are read from its slots
when its iteration ends, in its template's id order.
``SimResult.flow_log`` is a ``FlowLog`` over all batches and the templates their
job and position index: its length needs no rows, and dict rows are built only
when iterated.
The CLI writes the trace CSV from the batches, as each run ends, into a
temporary file that appears as the trace once the command succeeds.

The event loop is single threaded and deterministic for a fixed scenario and
seed, and steps time only where the run can change. The heap holds controller
decisions, compute phases (a job's first ends at its arrival time plus the
phase, so arrivals are no events) and spine failures; ties resolve by that
kind priority, then by insertion sequence. The completion check sits beside
the heap, due at the earliest finish time in the table (none while no flow
moves). It goes before the heap's top when not later, so before any event at a
tie. A check that finds no flow done raises ``SimInvariantError`` rather than
firing again at the same instant.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import chain, compress
from typing import NamedTuple

import numpy as np

from .rates import LinkRows, waterfill
from .routing import AnnealSchedule, assign_by_scheme, check_scheme
from .routing import ecmp_assign, max_link_load  # noqa: F401 - sim.max_link_load, for tracing
from .topology import (
    Classified,
    ClosTopology,
    Commodities,
    Endpoint,
    PathChoice,
    classify,
    fail_spines,
    max_spine_link_load,
)
from .workload import (
    HardwareModel,
    Job,
    Ring,
    build_rings,
    compute_phase_duration,
    iteration_prefix,
    ring_allreduce_commodities,
)

DEFAULT_PORT_BASE = 49152

# a flow is done once no more than this share of its volume, plus this many
# bits, is left to send
DONE_RTOL = 1e-9
DONE_SLACK_BITS = 1.0

# Event-kind priority at equal timestamps.
_CONTROLLER_DECISION = 0
_COMPUTE_DONE = 1
_SPINE_FAILURE = 2


class SimInvariantError(RuntimeError):
    """An internal consistency check of the simulation failed."""


class FlowTemplate(NamedTuple):
    """A job's flows in any one iteration: its ring edges that leave their
    host, in ``ring_allreduce_commodities`` order. Iterations differ only in
    the flows' ids (see ``emit``)."""

    job_id: str
    tails: list[str]  # each id less its iteration_prefix
    src: list[Endpoint]
    dst: list[Endpoint]
    volume: list[int]  # bytes
    bits: np.ndarray  # volume * 8, as floats
    kinds: Classified
    elephant: np.ndarray  # routed by the controller
    order: np.ndarray  # the positions in id order, which is tail order

    def emit(self, iteration: int) -> list[str]:
        """The ids of the flows of an iteration: all that differs between
        iterations."""
        prefix = iteration_prefix(self.job_id, iteration)
        return [prefix + tail for tail in self.tails]


def network_flows(topo: ClosTopology, rings: list[Ring], threshold: float) -> FlowTemplate:
    """A job's ring edges that leave their host, their ``classify`` columns,
    and which are elephants, routed by the controller: those whose volume
    reaches the threshold (both in bytes). A one-member ring has none."""
    job_id = rings[0].job_id
    commodities = [
        c for ring in rings if len(ring.members) >= 2
        for c in ring_allreduce_commodities(ring, 0)
    ]
    batch = classify(topo, commodities)
    on_net = batch.kinds.nic_up >= 0
    ids, src, dst, volume = (list(compress(column, on_net))
                             for column in (batch.id, batch.src, batch.dst, batch.volume))
    skip = len(iteration_prefix(job_id, 0))
    tails = [cid[skip:] for cid in ids]
    return FlowTemplate(
        job_id,
        tails,
        src,
        dst,
        volume,
        np.array([v * 8 for v in volume], dtype=float),
        Classified(*(column[on_net] for column in batch.kinds)),
        np.array([v >= threshold for v in volume], dtype=bool),
        np.array(sorted(range(len(tails)), key=tails.__getitem__), dtype=np.int64),
    )


def flow_templates(topo: ClosTopology, jobs: list[Job], threshold: float) -> list[FlowTemplate]:
    """Each job's ``network_flows``, in job order: a run's templates, which
    depend only on the fabric, the placements and the elephant threshold."""
    return [network_flows(topo, build_rings(job), threshold) for job in jobs]


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

    def __post_init__(self):
        check_scheme(self.scheme)
        if not (0 <= self.reaction_latency < math.inf and 0 <= self.elephant_threshold < math.inf):
            raise ValueError("latency and threshold must be finite and >= 0")


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
        if not all(0 <= t < math.inf for t in self.times):
            raise ValueError(f"failure times must be finite and >= 0, got {self.times}")
        if not all(k >= 0 for k in self.counts):
            raise ValueError(f"failure counts must be >= 0, got {self.counts}")


# the columns of a finished flow in the trace CSV, after the run's scenario, scheme and seed
FLOW_COLUMNS = (
    "job",
    "iteration",
    "commodity",
    "src",
    "dst",
    "volume_bytes",
    "start_s",
    "end_s",
    "fct_s",
    "throughput_bps",
    "udp_port",
)


class _Finished(NamedTuple):
    """The flows one completion event finished, in slot order."""

    end: float
    cid: np.ndarray
    job: np.ndarray  # the job's index in the run
    pos: np.ndarray  # the flow's position in its job's template
    iteration: np.ndarray
    start: np.ndarray
    spine: np.ndarray
    fct: np.ndarray
    throughput: np.ndarray  # bits/second


class FlowLog:
    """A run's finished flows in completion order, kept as the columns of each
    completion event: ``batches``, whose ``job`` and ``pos`` index
    ``templates``. ``len`` counts them without building rows; iterating
    yields one dict per flow, with the keys of ``FLOW_COLUMNS`` less
    ``fct_s`` and ``throughput_bps``; two logs are equal when their rows are."""

    def __init__(self, templates: list[FlowTemplate], batches: list[_Finished]):
        self.templates = templates
        self.batches = batches
        self._len = sum(len(b.cid) for b in batches)

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        for b in self.batches:
            for j, p, iteration, cid, start, spine in zip(
                b.job.tolist(), b.pos.tolist(), b.iteration.tolist(), b.cid.tolist(),
                b.start.tolist(), b.spine.tolist(),
            ):
                t = self.templates[j]
                yield {
                    "job": t.job_id,
                    "iteration": iteration,
                    "commodity": cid,
                    "src": t.src[p],
                    "dst": t.dst[p],
                    "volume_bytes": t.volume[p],
                    "start_s": start,
                    "end_s": b.end,
                    "udp_port": None if spine < 0 else DEFAULT_PORT_BASE + spine,
                }

    def __eq__(self, other):
        if not isinstance(other, FlowLog):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


@dataclass(frozen=True)
class SimResult:
    records: list[MetricsRecord]
    controller_log: list[dict]
    flow_log: FlowLog


class _FlowTable:
    """The engine's flows, one array per column: slot i of every column is the
    same flow, and job j's flows keep slots ``first[j]:first[j + 1]`` (see the
    module docstring)."""

    def __init__(self, templates: list[FlowTemplate]):
        sizes = [len(t.tails) for t in templates]
        self.first = np.cumsum([0] + sizes)
        n = int(self.first[-1])
        kinds = [t.kinds for t in templates]

        def joined(arrays, dtype=np.int64):
            return np.concatenate([np.empty(0, dtype), *arrays])

        def objects(lists):
            return np.fromiter(chain.from_iterable(lists), object, n)

        self.job = np.repeat(np.arange(len(templates)), sizes)  # the job's index in the run
        self.job_id = np.repeat(np.array([t.job_id for t in templates], dtype=object), sizes)
        self.pos = np.arange(n) - self.first[self.job]  # the flow's position in its job's template
        self.src = objects(t.src for t in templates)  # Endpoint objects
        self.dst = objects(t.dst for t in templates)
        self.bytes = objects(t.volume for t in templates)  # int objects, as CommoditySpec has
        self.volume = joined((t.bits for t in templates), float)  # bits
        self.elephant = joined((t.elephant for t in templates), bool)
        self.src_tor = joined(k.src_tor for k in kinds)
        self.dst_tor = joined(k.dst_tor for k in kinds)
        no_link = np.full(n, -1)
        self.links = np.stack([joined(k.nic_up for k in kinds), no_link, no_link,
                               joined(k.nic_down for k in kinds)], 1)  # see the module docstring
        self.cid = np.empty(n, dtype=object)
        self.start = np.zeros(n)
        self.remaining = np.zeros(n)  # bits left when the rate was last set
        self.live = np.zeros(n, dtype=bool)  # emitted and not done
        self.rate = np.zeros(n)  # bits/second, 0 unless transmitting
        self.finish = np.full(n, math.inf)  # when the bits left run out; inf at rate 0
        self.transmitting = np.zeros(n, dtype=bool)  # has a route
        self.spine = np.full(n, -1)  # -1 unless on a spine route
        self.fct = np.zeros(n)
        self.throughput = np.zeros(n)  # bits/second


class _Engine:
    def __init__(self, topo, jobs, controller, hardware, failures, seed, templates=None):
        self.topo = topo
        self.controller = controller
        self.hardware = hardware
        self.now = 0.0
        self.heap = []
        self.seq = 0
        self.pending_decisions: set[float] = set()
        # the topology the last ECMP decision hashed on (see _on_decision)
        self.hashed_topo: ClosTopology | None = None
        # the spines of each decision input so far, for the schemes that read
        # no id; a failure starts a new one (see the module docstring)
        self.memo: dict = {}
        self.records: list[MetricsRecord] = []
        self.controller_log: list[dict] = []
        self.finished: list[_Finished] = []  # one batch per completion event
        # one route seed drives ECMP hashing (mice and scheme) and annealing
        self.route_seed = stable_seed(seed, "routes")

        # per-job state is indexed by the job's position in jobs
        self.jobs = list(jobs)
        if templates is None:
            templates = flow_templates(topo, self.jobs, controller.elephant_threshold)
        self.templates = templates
        self.flows = _FlowTable(templates)
        self.iteration_of = [0] * len(jobs)
        # the rank among the run's emissions of each job's current iteration
        self.emitted_at = np.zeros(len(jobs), dtype=np.int64)
        for j, job in enumerate(jobs):
            self._start_compute(j, job.arrival_time)
        if failures:
            for i, (t, k) in enumerate(zip(failures.times, failures.counts)):
                self._push(t, _SPINE_FAILURE, (k, stable_seed(failures.seed, i)))

    # -- event plumbing -----------------------------------------------------

    def _push(self, t, kind, payload):
        self.seq += 1
        heappush(self.heap, (t, kind, self.seq, payload))

    def _advance(self, t):
        if not t >= self.now:  # a NaN time fails too: no later time would compare past it
            raise SimInvariantError(f"time moved backwards: {self.now} -> {t}")
        self.now = t

    def _schedule_decision(self, latency):
        t = self.now + latency
        if t not in self.pending_decisions:
            self.pending_decisions.add(t)
            self._push(t, _CONTROLLER_DECISION, None)

    def _emission_order(self, slots):
        """The slots by their iteration's emission, then by slot (see the module docstring)."""
        return slots[np.argsort(self.emitted_at[self.flows.job[slots]], kind="stable")]

    def _batch(self, slots) -> Commodities:
        """The flows in slots, in order, as a scheme takes them: the table's
        columns, their NIC link ids among their ``classify`` columns."""
        f = self.flows
        kinds = Classified(f.src_tor[slots], f.dst_tor[slots], f.links[slots, 0], f.links[slots, 3])
        return Commodities(f.cid[slots].tolist(), f.job_id[slots], f.src[slots], f.dst[slots],
                           f.bytes[slots], kinds)

    def _hash_routes(self, slots):
        """Route the flows in slots as ECMP would, in one batch."""
        if len(slots):
            self._set_routes(slots, ecmp_assign(self._batch(slots), self.topo, self.route_seed))

    def _set_routes(self, slots, choice: PathChoice):
        """Put the flows in slots on the routes of choice, one per slot in
        order: the choice's batch holds the table's NIC link ids, so its link
        rows change only the spine and its two links."""
        f = self.flows
        f.links[slots] = choice.link_rows(self.topo)
        f.spine[slots] = choice.spine
        f.transmitting[slots] = True

    def _clear_routes(self, slots):
        """Take the flows in slots, which all have a rate, off their routes: no
        spine, spine links, rate or finish time; the bits they have left are kept."""
        f = self.flows
        f.remaining[slots] = f.rate[slots] * (f.finish[slots] - self.now)
        f.finish[slots] = math.inf
        f.transmitting[slots] = False
        f.rate[slots] = 0.0
        f.spine[slots] = -1
        f.links[slots, 1:3] = -1

    def _rewaterfill(self):
        """Refill the transmitting flows' rates, bits left and finish times
        (see the module docstring)."""
        f = self.flows
        live = np.flatnonzero(f.transmitting)
        remaining, rate = f.remaining[live], f.rate[live]
        np.multiply(rate, f.finish[live] - self.now, out=remaining, where=rate > 0)
        rate = waterfill(LinkRows(f.cid[live], f.links[live]), self.topo).rate
        f.remaining[live], f.rate[live], f.finish[live] = remaining, rate, self.now + remaining / rate

    # -- event handlers -----------------------------------------------------

    def run(self) -> SimResult:
        while True:
            due = float(self.flows.finish.min(initial=math.inf))  # the completion check
            if self.heap and self.heap[0][0] < due:
                t, kind, _, payload = heappop(self.heap)
                self._advance(t)
                if kind == _CONTROLLER_DECISION:
                    self._on_decision(t)
                elif kind == _COMPUTE_DONE:
                    self._on_compute_done(payload)
                elif kind == _SPINE_FAILURE:
                    self._on_failure(*payload)
            elif due < math.inf:  # no later than the heap's top: at a tie the check goes first
                self._advance(due)
                self._on_completion()
            else:
                break
        if self.heap:  # what is left is due at a NaN or infinite time, which no loop reaches
            t, kind, _, payload = self.heap[0]
            job = f" for job {self.jobs[payload].id}" if kind == _COMPUTE_DONE else ""
            raise SimInvariantError(f"an event at time {t}{job} never ran")
        if self.flows.live.any():
            raise SimInvariantError(f"{self.flows.live.sum()} flows never completed")
        self.records.sort(key=lambda r: (r.job_id, r.iteration))
        return SimResult(self.records, self.controller_log, FlowLog(self.templates, self.finished))

    def _start_compute(self, j, start):
        duration = compute_phase_duration(self.jobs[j], self.hardware)
        self._push(start + duration, _COMPUTE_DONE, j)

    def _on_compute_done(self, j):
        template = self.templates[j]
        if not template.tails:
            self._finish_iteration(j)
            return
        f = self.flows
        mine = slice(f.first[j], f.first[j + 1])
        f.cid[mine] = template.emit(self.iteration_of[j])
        f.start[mine], f.remaining[mine], f.live[mine] = self.now, template.bits, True
        self.emitted_at[j] = self.emitted_at.max() + 1
        # intra-ToR flows and mice start right away on a hashed path; elephants
        # do so only in fallback mode, otherwise they await the controller
        elephant = template.elephant
        hashed = ~template.kinds.inter | ~elephant | self.controller.ecmp_fallback_start
        self._hash_routes(mine.start + np.flatnonzero(hashed))
        if elephant.any():
            self._schedule_decision(self.controller.reaction_latency)
        self._rewaterfill()

    def _on_decision(self, t):
        self.pending_decisions.discard(t)
        f = self.flows
        slots = self._emission_order(np.flatnonzero(f.live & f.elephant))
        active = slots.size
        if not active:
            return
        if self.controller.scheme == "ecmp":
            # an ECMP route depends only on the commodity, the seed and the live
            # spines: until a spine fails, a routed elephant would hash the same
            if self.topo is self.hashed_topo:
                slots = slots[~f.transmitting[slots]]
            self.hashed_topo = self.topo
        if slots.size:
            self._set_routes(slots, assign_by_scheme(
                self.controller.scheme,
                self._batch(slots),
                self.topo,
                seed=self.route_seed,
                anneal_schedule=self.controller.anneal_schedule,
                memo=self.memo,
            ))
            self._rewaterfill()  # otherwise no row changed, and the rates stand
        self.controller_log.append(
            {
                "time": self.now,
                "flows": active,
                "max_spine_load": max_spine_link_load(self.topo, f.links[f.transmitting]),
            }
        )

    def _on_completion(self):
        """Log the flows that are done, end the iterations they close, and
        refill the rates only if a finished flow crossed a link that a flow
        still transmitting crosses: otherwise no rate can change (see the
        module docstring)."""
        f = self.flows
        moving = np.flatnonzero(f.transmitting)
        slack = (DONE_RTOL * f.volume[moving] + DONE_SLACK_BITS) / f.rate[moving]  # seconds
        done = moving[f.finish[moving] - self.now <= slack]
        if not done.size:  # the check is due at the earliest finish time, now
            raise SimInvariantError(
                f"no flow finished at t={self.now!r} and none would finish later"
            )
        done = self._emission_order(done)
        job = f.job[done]
        start = f.start[done]
        fct = self.now - start
        coarse = np.flatnonzero(fct <= 0)
        if coarse.size:
            raise SimInvariantError(f"flow {f.cid[done[coarse[0]]]} started and finished at "
                                    f"t={self.now!r}: t is too coarse for its duration")
        throughput = f.volume[done] / fct
        iteration = np.array(self.iteration_of, dtype=np.int64)[job]
        self.finished.append(_Finished(self.now, f.cid[done], job, f.pos[done], iteration, start,
                                       f.spine[done], fct, throughput))
        gone = f.links[done]
        f.fct[done], f.throughput[done] = fct, throughput
        f.live[done] = False
        self._clear_routes(done)
        # a job's next iteration starts once all of its flows are done
        for j in sorted(np.unique(job).tolist(), key=lambda j: self.jobs[j].id):
            if not f.live[f.first[j]:f.first[j + 1]].any():
                self._finish_iteration(j)
        if f.live.any():
            if (f.live & f.elephant).any():
                self._schedule_decision(self.controller.reaction_latency)
            kept = f.links[f.transmitting]
            crossed = np.zeros(self.topo.num_links, dtype=bool)
            crossed[kept[kept >= 0]] = True
            if crossed[gone[gone >= 0]].any():
                self._rewaterfill()

    def _finish_iteration(self, j):
        iteration = self.iteration_of[j]
        f = self.flows
        # a job has one iteration in flight, so its slots hold this one's flows
        slots = f.first[j] + self.templates[j].order
        fct = f.fct[slots].tolist()
        records = tuple(zip(f.cid[slots].tolist(), fct, f.throughput[slots].tolist()))
        job = self.jobs[j]
        self.records.append(MetricsRecord(job.id, iteration, max(fct, default=0.0), records))
        self.iteration_of[j] = iteration + 1
        if iteration + 1 < job.num_iterations:
            self._start_compute(j, self.now)

    def _on_failure(self, count, fseed):
        self.topo = fail_spines(self.topo, count, fseed)
        self.memo = {}  # no key on the old live spines can match again
        f = self.flows
        hit = np.flatnonzero(np.isin(f.spine, list(self.topo.failed_spines)))
        # elephants stall until the controller reacts; mice hash again
        self._clear_routes(hit[f.elephant[hit]])
        self._hash_routes(hit[~f.elephant[hit]])  # mice
        if (f.live & f.elephant).any():
            latency = 0.0 if self.controller.precomputed_failures else self.controller.reaction_latency
            self._schedule_decision(latency)
        self._rewaterfill()


# the most links a run takes: it sizes arrays by the link ids on every refill
# and completion, and waterfill's int64 bincount alone is then 512 MB
_MAX_LINKS = 1 << 26


def check_links(topo: ClosTopology):
    """Refuse a fabric with more links than ``_MAX_LINKS``."""
    if topo.num_links > _MAX_LINKS:
        raise ValueError(f"{topo.num_links} links exceed the {_MAX_LINKS} that a run can hold")


def run_scenario(
    topo: ClosTopology,
    jobs: list[Job],
    controller: ControllerModel,
    hardware: HardwareModel = HardwareModel(),
    failures: FailurePlan | None = None,
    seed: int = 0,
    templates: list[FlowTemplate] | None = None,
) -> SimResult:
    """Simulate the jobs to completion and return metrics plus the runtime log.
    ``templates``, if given, must be ``flow_templates(topo, jobs,
    controller.elephant_threshold)``, which runs of the same jobs can share;
    by default the run builds them."""
    check_links(topo)
    return _Engine(topo, jobs, controller, hardware, failures, seed, templates).run()
