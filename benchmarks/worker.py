"""One workload in one process: set up, report readiness, measure.

Started by run.py, never by hand. It prints ``READY <monotonic seconds>`` as
soon as its set-up is done (imports, scenario files, replay sets), then the
result object as one JSON line. With ``--setup-only`` it stops after READY.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_ROOT = os.path.join(ROOT, ".bench_out")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    # measure the checkout's own sources, whatever else is installed
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    out_dir = os.path.join(OUT_ROOT, args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    work = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    print(f"READY {time.monotonic()!r}", flush=True)
    if args.setup_only:
        return 0
    result = workloads.measure(work, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
