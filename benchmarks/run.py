"""closroute benchmark: one workload per invocation, in its own process.

    python3 benchmarks/run.py --workload sweep20 --seed 0 --seconds 20 --trace 0

Workloads: sweep20, fabric8k_failover, decision_replay (see README.md). The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. A summary goes to
standard error. Outputs of the last run are left in ``.bench_out/``.

The workload runs in a child process with numeric libraries held to one
thread. The set-up is started SETUP_PROCESSES + 1 times and ``setup_s`` is
the median time from starting a process to its READY line. Like every time
the benchmark reports, it is rescaled to a reference host speed (see
calibrate.py).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

# numeric libraries run one thread, here and in the workers, which inherit this
os.environ.update({
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS")
})
from calibrate import REFERENCE_S, calibration_s  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep20", "fabric8k_failover", "decision_replay")
SETUP_PROCESSES = 6
TIMEOUT_S = 170


class WorkerError(RuntimeError):
    pass


def _worker(args, deadline: float, setup_only: bool) -> tuple[float, dict | None]:
    """Run one worker process; return its set-up seconds, rescaled to the
    reference speed (see calibrate.py), and its result."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    calibrations = [calibration_s()]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{args.workload} did not finish within {TIMEOUT_S} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise WorkerError(f"{args.workload} worker exited with {proc.returncode}")
    lines = out.splitlines()
    ready = [float(line.split()[1]) for line in lines if line.startswith("READY ")]
    if len(ready) != 1:
        raise WorkerError(f"{args.workload} worker never reported its set-up")
    if setup_only:
        # the worker has exited, so calibrating again does not compete with it
        calibrations.append(calibration_s())
    result = None if setup_only else json.loads(lines[-1])
    return (ready[0] - started) * REFERENCE_S / statistics.fmean(calibrations), result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="closroute benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # turn a termination request into SystemExit, so the worker is reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(ROOT, "src", "closroute", "__init__.py")):
        print("benchmark: no src/closroute in this checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIMEOUT_S
    try:
        setups = [_worker(args, deadline, setup_only=True)[0] for _ in range(SETUP_PROCESSES)]
        setup, result = _worker(args, deadline, setup_only=False)
    except (WorkerError, ValueError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 3
    setups.append(setup)

    rounds = result.pop("rounds")
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(f"{args.workload} seed {args.seed}: {rounds} rounds, {result['attempted']} "
          f"operations, {result['failed']} failed, correct={result['correct']}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
