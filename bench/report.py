"""Run every workload, untraced and traced, and print every metric by name.

    python3 bench/report.py [--seed N] [--seconds S]

Run from the root of a checkout.  For each workload this runs
``bench/run.py`` with ``--trace 0`` (end-to-end metrics) and ``--trace 1``
(per-layer metrics), then prints one line per metric with its unit, and
whether the outputs passed their gates.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
import subprocess
import sys

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent


def main():
    ap = argparse.ArgumentParser(description="run all workloads and print every metric")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int,
                    default=json.loads((BENCH.parent / "BENCHMARK.json").read_text())
                    ["run_seconds"])
    args = ap.parse_args()
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                sys.exit(f"{workload} trace={trace} failed:\n{proc.stderr}")
            res = json.loads(proc.stdout.splitlines()[-1])
            ok = ok and res["correct"]
            print(f"{workload} trace={trace}: correct={res['correct']} "
                  f"failed {res['failed']} of {res['attempted']} operations "
                  f"(fail_frac {res['failed'] / res['attempted']:.4g})")
            for line in proc.stdout.splitlines():
                if " FAIL " in line:
                    print("  " + line.lstrip("# "))
            for name, m in res["metrics"].items():
                print(f"  {name:45s} {m['value']:>14.6g} {m['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
