"""One pass of one workload, in a fresh interpreter.

    python3 bench/child.py --workload W --seed N --trace 0|1 --pass-dir D --result R

Imports rsuncert from ``<checkout>/src``, builds the inputs, optionally
installs the tracer, then sends the operations one after another (one
client, closed loop) and times each.  Writes the op outputs, the pass wall
time, the process's peak RSS and, when traced, the counters and span summary
to R.  Output files of the program go to D; gates run in the parent.
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path
import resource
import sys
import time

ROOT = Path(__file__).resolve().parent.parent
THREADS = 2  # the workloads are defined for a 2-core host


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--pass-dir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    # at most THREADS threads and cores, whatever the host has
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(THREADS)
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:THREADS])
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import scipy
    import rsuncert
    import rsuncert.cli  # noqa: F401  (the client's entry point)

    if not Path(rsuncert.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"rsuncert imported from {rsuncert.__file__}, not from the checkout")

    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed)
    ops = workloads.operations(args.workload, inputs, args.pass_dir)
    tracer = None
    if args.trace:
        from tracer import Tracer, summarize

        tracer = Tracer(run_id=f"{args.workload}-{args.seed}-{os.getpid()}")
        tracer.install()

    records = []
    t0 = time.perf_counter()
    for name, fn in ops:
        start = time.perf_counter()
        try:
            out = fn()
        except SystemExit as exc:  # argparse rejects an argument
            out = {"exit": exc.code}
        except Exception as exc:  # an operation that raises is a failed op
            out = {"error": f"{type(exc).__name__}: {exc}"}
        records.append({"op": name, "seconds": time.perf_counter() - start,
                        "output": out})
    wall = time.perf_counter() - t0

    result = {
        "wall_s": wall,
        "ops": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.write(Path(args.pass_dir).parent / f"spans-{Path(args.pass_dir).name}.jsonl")
        result["trace"] = {"counts": dict(tracer.counts),
                           "summary": summarize(tracer.spans, wall)}
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
