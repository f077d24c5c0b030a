"""Training-job workload model.

A job trains one LLM configuration with 3D parallelism: a full model copy is
split over tp x pp GPUs and replicated dp times. The GPUs holding the same
parameter shard across replicas form a ring and synchronize it every
iteration with ring all-reduce, so each ring edge carries 2(N-1)/N of the
shard size per iteration.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from .topology import ClosTopology, Endpoint


@dataclass(frozen=True)
class ModelConfig:
    name: str
    num_params: float
    tp: int
    pp: int
    bytes_per_param: int = 4

    def __post_init__(self):
        if not self.num_params > 0:
            raise ValueError("num_params must be positive")
        if not (self.tp >= 1 and self.pp >= 1):
            raise ValueError("tp and pp must be >= 1")
        if not self.bytes_per_param > 0:
            raise ValueError("bytes_per_param must be positive")

    @property
    def gpus_per_replica(self) -> int:
        return self.tp * self.pp


# Reference LLM configurations; parameter counts and tp/pp splits are the
# commonly published training setups. Override via scenario config.
MODEL_CATALOG: dict[str, ModelConfig] = {
    "BLOOM": ModelConfig("BLOOM", 176e9, tp=4, pp=12),
    "GPT-3": ModelConfig("GPT-3", 175e9, tp=8, pp=8),
    "LLaMA2-70B": ModelConfig("LLaMA2-70B", 70e9, tp=8, pp=16),
}


@dataclass(frozen=True)
class HardwareModel:
    """Per-GPU compute characteristics used to estimate a training step."""

    peak_flops: float = 312e12
    utilization: float = 0.3
    tokens_per_batch: float = 2e6

    def __post_init__(self):
        if not (self.peak_flops > 0 and self.tokens_per_batch > 0):
            raise ValueError("hardware parameters must be positive")
        if not 0 < self.utilization <= 1:
            raise ValueError(f"utilization must be in (0, 1], got {self.utilization}")


@dataclass(frozen=True)
class Job:
    id: str
    model: ModelConfig
    dp: int
    arrival_time: float
    num_iterations: int
    placement: tuple[Endpoint, ...]

    def __post_init__(self):
        if self.dp < 1:
            raise ValueError("dp must be >= 1")
        if self.num_iterations < 1:
            raise ValueError("num_iterations must be >= 1")
        expected = self.model.gpus_per_replica * self.dp
        if len(self.placement) != expected:
            raise ValueError(
                f"placement length {len(self.placement)} != tp*pp*dp = {expected}"
            )
        if len(set(self.placement)) != len(self.placement):
            raise ValueError("placement entries must be distinct")


@dataclass(frozen=True)
class Ring:
    job_id: str
    coordinate: tuple[int, int]  # (tensor chunk, pipeline stage)
    members: tuple[Endpoint, ...]
    shard_bytes: int


class _Commodity(NamedTuple):
    id: str
    job_id: str
    src: Endpoint
    dst: Endpoint
    volume: int  # bytes


class CommoditySpec(_Commodity):
    """One flow of a job, as a tuple. The constructor checks it; ``_make`` does not."""

    __slots__ = ()

    def __new__(cls, id: str, job_id: str, src: Endpoint, dst: Endpoint, volume: int):
        if not volume > 0:
            raise ValueError("volume must be positive")
        if src == dst:
            raise ValueError("src and dst must differ")
        return super().__new__(cls, id, job_id, src, dst, volume)


def place_job(
    topo: ClosTopology,
    model: ModelConfig,
    dp: int,
    seed: int,
    occupied: frozenset[Endpoint] | set[Endpoint] = frozenset(),
) -> tuple[Endpoint, ...]:
    """Pick tp*pp*dp free endpoints, host by host in seeded random host order.

    A sampled host's free GPUs are consumed contiguously (ascending NIC index)
    before the next host is sampled, so model replicas land on as few hosts as
    possible for the given random order.
    """
    needed = model.gpus_per_replica * dp
    nics = topo.nics_per_host
    taken = Counter((ep.tor, ep.host) for ep in occupied)
    # the hosts with a free endpoint, in (tor, host) order
    hosts = [(t, h) for t in range(topo.num_tors) for h in range(topo.hosts_per_tor)
             if taken[t, h] < nics]
    total_free = sum(nics - taken[host] for host in hosts)
    if total_free < needed:
        raise ValueError(f"need {needed} free endpoints, only {total_free} available")

    rng = random.Random(seed)
    chosen: list[Endpoint] = []
    for t, h in rng.sample(hosts, len(hosts)):
        for n in range(nics):
            ep = Endpoint(t, h, n)
            if ep not in occupied:
                chosen.append(ep)
                if len(chosen) == needed:
                    return tuple(chosen)
    raise AssertionError("unreachable: free count checked above")


def build_rings(job: Job) -> list[Ring]:
    """One ring per parameter shard (i, j), members ordered by replica index.

    Replica r holds shard (i, j) at placement[r*tp*pp + j*tp + i]: the
    placement list is replica-major, then pipeline stage, then tensor chunk.
    """
    tp, pp = job.model.tp, job.model.pp
    per_replica = tp * pp
    shard_bytes = math.ceil(job.model.num_params * job.model.bytes_per_param / per_replica)
    rings = []
    for j in range(pp):
        for i in range(tp):
            members = tuple(
                job.placement[r * per_replica + j * tp + i] for r in range(job.dp)
            )
            rings.append(Ring(job.id, (i, j), members, shard_bytes))
    return rings


def iteration_prefix(job_id: str, iteration: int) -> str:
    """The start of every commodity id of a job's iteration; the rest of an id
    names its ring edge."""
    return f"{job_id}:it{iteration}:"


def ring_allreduce_commodities(ring: Ring, iteration: int) -> list[CommoditySpec]:
    """One commodity per ring edge k -> k+1 carrying 2(N-1)/N of the shard.

    Ring all-reduce sends the shard around the ring twice minus two chunk
    rounds; aggregated per edge that is 2(N-1)/N x shard bytes. Edges whose
    endpoints share a host are still emitted and resolve to zero-cost routes.
    """
    n = len(ring.members)
    if n < 2:
        raise ValueError(f"ring must have >= 2 members, got {n}")
    volume = math.ceil(2 * (n - 1) * ring.shard_bytes / n)
    i, j = ring.coordinate
    prefix = iteration_prefix(ring.job_id, iteration)
    out = []
    for k in range(n):
        out.append(
            CommoditySpec(
                id=f"{prefix}r{i}.{j}:e{k}",
                job_id=ring.job_id,
                src=ring.members[k],
                dst=ring.members[(k + 1) % n],
                volume=volume,
            )
        )
    return out


def compute_phase_duration(job: Job, hw: HardwareModel) -> float:
    """Forward+backward time estimate: 6 FLOPs per parameter per token,
    spread over all the job's GPUs at the modeled sustained throughput."""
    gpus = job.model.gpus_per_replica * job.dp
    return (
        6.0
        * job.model.num_params
        * hw.tokens_per_batch
        / (gpus * hw.peak_flops * hw.utilization)
    )


def arrival_schedule(num_jobs: int, window: float, seed: int) -> list[float]:
    """num_jobs i.i.d. uniform draws over [0, window), sorted ascending."""
    if not window > 0:
        raise ValueError("window must be positive")
    rng = random.Random(seed)
    return sorted(rng.random() * window for _ in range(num_jobs))
