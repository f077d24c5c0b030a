#!/usr/bin/env python3
"""Simulate three concurrent training jobs end to end, then break the fabric.

The engine alternates compute and communication per job, routes elephant
flows through the controller (10 ms reaction latency by default), and keeps
rates max-min fair as flows come and go. A spine failure mid-run stalls the
affected flows until the controller reroutes them.
"""

from closroute import (
    MODEL_CATALOG,
    ControllerModel,
    FailurePlan,
    HardwareModel,
    Job,
    build_topology,
    place_job,
    run_scenario,
)

topo = build_topology(32, 64, 4, 8, link_capacity=100e9)
hw = HardwareModel(tokens_per_batch=2e4)  # small batches keep the demo snappy

occupied: set = set()
jobs = []
for i, (name, dp) in enumerate([("BLOOM", 8), ("GPT-3", 4), ("LLaMA2-70B", 2)]):
    model = MODEL_CATALOG[name]
    placement = place_job(topo, model, dp, seed=i, occupied=occupied)
    occupied.update(placement)
    jobs.append(Job(f"{name}", model, dp, arrival_time=0.5 * i, num_iterations=3,
                    placement=placement))
    print(f"{name}: dp={dp}, {len(placement)} GPUs, arrives at {0.5 * i:.1f}s")

for scheme in ("greedy", "ecmp"):
    result = run_scenario(topo, jobs, ControllerModel(scheme=scheme), hardware=hw, seed=0)
    print(f"\nscheme={scheme}")
    for job in jobs:
        times = [r.allreduce_time for r in result.records if r.job_id == job.id]
        print(f"  {job.id:11s} all-reduce per iteration: "
              + ", ".join(f"{t:.3f}s" for t in times))
    peak = max(e["max_spine_load"] for e in result.controller_log)
    print(f"  peak spine-link load {peak}, controller decisions {len(result.controller_log)}")

# now kill a quarter of the spine layer mid-run
plan = FailurePlan(times=(1.0,), counts=(8,), seed=3)
result = run_scenario(topo, jobs, ControllerModel(scheme="greedy"), hardware=hw,
                      failures=plan, seed=0)
print("\nwith 8 spine failures at t=1.0s (greedy):")
for job in jobs:
    times = [r.allreduce_time for r in result.records if r.job_id == job.id]
    print(f"  {job.id:11s} " + ", ".join(f"{t:.3f}s" for t in times))

sample = next(e for e in result.flow_log if e["udp_port"] is not None)
print(f"\nsample flow {sample['commodity']}: spine encoded as UDP source port "
      f"{sample['udp_port']} (base 49152)")
