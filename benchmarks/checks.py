"""Output checks for the benchmark workloads.

Every expected value here is computed by the benchmark from the inputs it
generated (the model catalogue, the placements, the commodity lists), or is a
property the method must have. Nothing is compared against a stored copy of
an earlier output. Each check raises ``CheckFailed`` naming what is wrong.
"""

from __future__ import annotations

import math
from collections import defaultdict

PORT_BASE = 49152  # the CLI's UDP source-port base for spine routes


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _fail(message: str):
    raise CheckFailed(message)


# -- values the benchmark derives from its own inputs ---------------------------


def edge_volume(num_params: float, bytes_per_param: int, tp: int, pp: int, dp: int) -> int:
    """Bytes on one ring edge per iteration: 2(dp-1)/dp of one parameter shard."""
    shard = math.ceil(num_params * bytes_per_param / (tp * pp))
    return math.ceil(2 * (dp - 1) * shard / dp)


def ring_edges(placement, tp: int, pp: int, dp: int) -> list[tuple]:
    """(src, dst) endpoint pairs of every ring edge that leaves its host.

    Replica r holds shard (i, j) at placement[r*tp*pp + j*tp + i]; each shard's
    dp holders form a ring in replica order.
    """
    edges = []
    for j in range(pp):
        for i in range(tp):
            members = [placement[r * tp * pp + j * tp + i] for r in range(dp)]
            for k, src in enumerate(members):
                dst = members[(k + 1) % dp]
                if (src.tor, src.host) != (dst.tor, dst.host):
                    edges.append((src, dst))
    return edges


def max_tor_degree(commodities) -> int:
    """Largest number of inter-ToR commodities leaving or entering one ToR."""
    out_deg: dict[int, int] = defaultdict(int)
    in_deg: dict[int, int] = defaultdict(int)
    for c in commodities:
        if c.src.tor != c.dst.tor:
            out_deg[c.src.tor] += 1
            in_deg[c.dst.tor] += 1
    return max([*out_deg.values(), *in_deg.values()], default=0)


def max_spine_load(commodities, assignment) -> int:
    """Peak number of commodities on one directed ToR-spine link."""
    up: dict[tuple, int] = defaultdict(int)
    down: dict[tuple, int] = defaultdict(int)
    for c in commodities:
        spine = assignment[c.id].spine
        if spine is not None:
            up[c.src.tor, spine] += 1
            down[spine, c.dst.tor] += 1
    return max([*up.values(), *down.values()], default=0)


# -- routing ----------------------------------------------------------------------


def _nic(ep) -> tuple:
    return ("nic", ep.tor, ep.host, ep.nic)


def expected_links(c, spine) -> tuple:
    """The directed links of commodity c's shortest path through ``spine``."""
    src, dst = c.src, c.dst
    if (src.tor, src.host) == (dst.tor, dst.host):
        return ()
    if src.tor == dst.tor:
        return ((_nic(src), ("tor", src.tor)), (("tor", dst.tor), _nic(dst)))
    return (
        (_nic(src), ("tor", src.tor)),
        (("tor", src.tor), ("spine", spine)),
        (("spine", spine), ("tor", dst.tor)),
        (("tor", dst.tor), _nic(dst)),
    )


def check_routes(scheme: str, commodities, assignment, live_spines) -> None:
    """Every commodity has one route, on a live spine when it leaves its ToR,
    running between the commodity's own endpoints."""
    if len(assignment) != len(commodities):
        _fail(f"{scheme}: {len(assignment)} routes for {len(commodities)} commodities")
    live = set(live_spines)
    for c in commodities:
        route = assignment.get(c.id)
        if route is None:
            _fail(f"{scheme}: no route for {c.id}")
        if c.src.tor != c.dst.tor and route.spine not in live:
            _fail(f"{scheme}: {c.id} routed over spine {route.spine}, not a live spine")
        if c.src.tor == c.dst.tor and route.spine is not None:
            _fail(f"{scheme}: intra-ToR {c.id} routed over spine {route.spine}")
        if tuple(route.links) != expected_links(c, route.spine):
            _fail(f"{scheme}: route of {c.id} does not join {c.src} to {c.dst}")


def check_greedy_bound(load: int, delta: int, live: int) -> None:
    bound = 2 * math.ceil(delta / live)
    if load > bound:
        _fail(f"greedy: max spine load {load} exceeds 2*ceil({delta}/{live}) = {bound}")


def check_coloring_optimal(load: int, delta: int, live: int) -> None:
    optimum = math.ceil(delta / live)
    if load != optimum:
        _fail(f"edge_coloring: max spine load {load} != ceil({delta}/{live}) = {optimum}")


# -- rates ------------------------------------------------------------------------


def check_max_min(flows, rates: dict, capacity: float, rtol: float) -> None:
    """Feasibility and the max-min certificate of a rate allocation.

    Feasible: every link carries at most capacity*(1+rtol). Max-min fair:
    every flow crosses a saturated link on which no flow has a larger rate
    (Bertsekas & Gallager, Data Networks, 6.5).
    """
    on_link: dict[tuple, list[float]] = defaultdict(list)
    for cid, route in flows:
        rate = rates.get(cid)
        if rate is None or not rate > 0:
            _fail(f"waterfill: flow {cid} has rate {rate}")
        for link in route.links:
            on_link[link].append(rate)
    total = {link: sum(rs) for link, rs in on_link.items()}
    peak = {link: max(rs) for link, rs in on_link.items()}
    for link, used in total.items():
        if used > capacity * (1 + rtol):
            _fail(f"waterfill: link {link} carries {used!r} > capacity {capacity!r}")
    for cid, route in flows:
        rate = rates[cid]
        if not any(
            total[link] >= capacity * (1 - rtol) and rate >= peak[link] * (1 - rtol)
            for link in route.links
        ):
            _fail(f"waterfill: flow {cid} at {rate!r} has no saturated link where it is largest")


# -- simulations --------------------------------------------------------------------


def check_iterations(records, iterations: dict[str, int]) -> None:
    """Every job ran each of its iterations exactly once."""
    seen: dict[str, list[int]] = defaultdict(list)
    for rec in records:
        seen[rec.job_id].append(rec.iteration)
    for job_id, n in iterations.items():
        if sorted(seen.get(job_id, [])) != list(range(n)):
            _fail(f"{job_id}: iterations {sorted(seen.get(job_id, []))}, expected 0..{n - 1}")
    extra = set(seen) - set(iterations)
    if extra:
        _fail(f"records for unknown jobs {sorted(extra)}")


def check_allreduce_floor(records, floor_s: dict[str, float]) -> None:
    """No all-reduce beats one ring edge's volume sent at full link rate."""
    for rec in records:
        floor = floor_s[rec.job_id]
        if rec.allreduce_time < floor * (1 - 1e-9):
            _fail(
                f"{rec.job_id} iteration {rec.iteration}: all-reduce {rec.allreduce_time!r} s "
                f"below the link-rate floor {floor!r} s"
            )


def check_not_worse(greedy_mean: float, ecmp_mean: float) -> None:
    if greedy_mean > ecmp_mean:
        _fail(f"mean all-reduce under greedy {greedy_mean!r} s > under ECMP {ecmp_mean!r} s")


def check_identical(what: str, first: bytes, again: bytes) -> None:
    if first != again:
        _fail(f"{what}: a repeated run wrote different bytes")


def check_trace_totals(rows, expected: dict[str, tuple[int, int]]) -> None:
    """Per scenario tag, the trace has one row per off-host ring edge and
    iteration, with the volumes those edges carry."""
    got: dict[str, list[int]] = {}
    for row in rows:
        entry = got.setdefault(row["scenario"], [0, 0])
        entry[0] += 1
        entry[1] += int(row["volume_bytes"])
    if set(got) != set(expected):
        _fail(f"trace scenarios {sorted(got)}, expected {sorted(expected)}")
    for scenario, (flows, volume) in expected.items():
        if tuple(got[scenario]) != (flows, volume):
            _fail(
                f"{scenario}: trace holds {got[scenario][0]} flows / {got[scenario][1]} bytes, "
                f"placements give {flows} / {volume}"
            )


def check_barrier(rows) -> None:
    """Iteration i+1 of a job never starts before iteration i ends."""
    start: dict[tuple, float] = {}
    end: dict[tuple, float] = {}
    for row in rows:
        key = (row["scenario"], row["scheme"], row["seed"], row["job"], int(row["iteration"]))
        start[key] = min(start.get(key, math.inf), float(row["start_s"]))
        end[key] = max(end.get(key, -math.inf), float(row["end_s"]))
    for (*job, it), finished in end.items():
        nxt = start.get((*job, it + 1))
        if nxt is not None and nxt < finished:
            _fail(f"{job}: iteration {it + 1} starts at {nxt!r} before {it} ends at {finished!r}")


def check_stranded(scenario: str, stranded: int) -> None:
    if stranded < 1:
        _fail(f"{scenario}: the spine failure stranded no elephant")


def check_failed_spines_unused(rows, failed, after_s: float) -> None:
    """No flow ending after ``after_s`` sits on a failed spine."""
    for row in rows:
        if row["udp_port"] and float(row["end_s"]) > after_s:
            spine = int(row["udp_port"]) - PORT_BASE
            if spine in failed:
                _fail(
                    f"{row['scenario']}: {row['commodity']} ends at {row['end_s']} "
                    f"on failed spine {spine}"
                )
