"""rsuncert benchmark: one workload, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; rsuncert is imported from its ``src/``.
One client sends operations in a closed loop (the next starts when the
previous returns).  Each pass of the workload runs in a fresh child process
(bench/child.py); --seconds S sets the number of passes, round(S / 6).

--trace 0 prints the end-to-end metrics, measured with tracing off.
--trace 1 makes four passes, untraced and traced in turn, and prints the
per-layer metrics; counters of the two traced passes must repeat exactly.
Every pass's outputs go through the gates in workloads.py.

The last stdout line is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
``failed`` counts operations that failed any gate.  ``correct`` is false
when an operation did not run to a result or failed any gate other than
``cross-path`` (the known f- defect, see workloads.py), or when traced
counters did not repeat.  Full results, with provenance, are written to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
from collections import Counter
import json
import os
from pathlib import Path
import shutil
import signal
import statistics
import subprocess
import sys
import time

from child import THREADS
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_CODE = "import rsuncert.cli; rsuncert.cli.build_parser()"
MIN_TRACED = 2
CHILD_TIMEOUT = 150.0
NOMINAL_PASS_S = 6.0  # about one pass of each workload on a 2-core x86 host
KNOWN_DEFECT_GATES = {"cross-path"}

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------

def setup_seconds(env):
    """Wall time of a fresh interpreter that imports the CLI and builds its
    parser: what every CLI call pays before it does any work."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True,
                   stdout=subprocess.DEVNULL, timeout=60)
    return time.perf_counter() - t0


def _top_level_cumulative(importtime, package):
    """Seconds spent importing `package` from `python -X importtime` output,
    summed over its imports that no other import of it encloses.  importtime
    prints a module after the modules it pulls in, indented 2 per level."""
    rows = []
    for line in importtime.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        if not parts[1].strip().isdigit():
            continue  # the header line
        name = parts[2].rstrip()
        rows.append(((len(name) - len(name.lstrip()) - 1) // 2, int(parts[1]),
                     name.strip()))

    def mine(name):
        return name == package or name.startswith(package + ".")

    total = 0
    enclosing = []
    for depth, cumulative, name in reversed(rows):
        while enclosing and enclosing[-1][0] >= depth:
            enclosing.pop()
        if mine(name) and not any(mine(n) for _, n in enclosing):
            total += cumulative
        enclosing.append((depth, name))
    return total / 1e6


def import_seconds(env):
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", SETUP_CODE],
                          env=env, check=True, capture_output=True, text=True,
                          timeout=60)
    return (_top_level_cumulative(proc.stderr, "rsuncert"),
            _top_level_cumulative(proc.stderr, "scipy"))


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def run_pass(args, traced, run_dir, k, env):
    pass_dir = run_dir / f"pass{k}"
    pass_dir.mkdir()
    result = run_dir / f"pass{k}.json"
    cmd = [sys.executable, str(ROOT / "bench" / "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(int(traced)), "--pass-dir", str(pass_dir),
           "--result", str(result)]
    try:
        # the child's stdout is not ours: our last stdout line is the result
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=CHILD_TIMEOUT)
        ok = proc.returncode == 0 and result.is_file()
    except subprocess.TimeoutExpired:
        ok = False
    if not ok:
        return {"traced": traced, "crashed": True, "pass_dir": str(pass_dir)}
    with open(result, encoding="utf-8") as fh:
        res = json.load(fh)
    res.update(traced=traced, crashed=False, pass_dir=str(pass_dir))
    return res


def run_passes(args, run_dir, env):
    """--seconds fixes the number of passes, so a run does the same work on
    every commit; a traced run alternates untraced and traced passes.  A
    set-up sample is taken before each pass of an untraced run, spread over
    the run, because the speed of a shared host drifts over seconds."""
    if args.trace:
        schedule = [False, True] * MIN_TRACED
    else:
        schedule = [False] * max(1, round(args.seconds / NOMINAL_PASS_S))
    passes, setup = [], []
    for k, traced in enumerate(schedule):
        if not args.trace:
            setup.append(setup_seconds(env))
        passes.append(run_pass(args, traced, run_dir, k, env))
    return passes, setup


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def op_latencies(passes):
    """Per-operation latency over the run's untraced passes.

    op_p50_s is the median over passes of each pass's median operation.  The
    tail is the highest percentile of all operations with at least ten
    samples beyond it.  With fewer than 20 operations in the run no such
    percentile lies above the median; the tail is then the median over
    passes of each pass's slowest operation (the provenance says which)."""
    per_pass = [sorted(r["seconds"] for r in p["ops"]) for p in passes]
    p50 = statistics.median(statistics.median(lat) for lat in per_pass)
    pooled = sorted(x for lat in per_pass for x in lat)
    n = len(pooled)
    if n < 20:
        tail = statistics.median(lat[-1] for lat in per_pass)
        return p50, tail, {"samples": n, "tail": "slowest operation of a pass"}
    k = n - 11
    return p50, pooled[k], {"samples": n, "tail": f"p{100.0 * (k + 1) / n:.1f}"}


def layer_value(name, counts, summary):
    if name.startswith("layer."):
        return summary["layer_self"].get(name.split(".")[1], 0.0)
    if name.endswith(".busy_s"):
        return summary["busy"].get(name[:-len(".busy_s")], 0.0)
    if name.endswith(".self_s"):
        return summary["self"].get(name[:-len(".self_s")], 0.0)
    return counts.get(name, 0)


def per_layer_metrics(untraced, traced, env):
    """Times from the traced pass with the median wall time (so that its
    self times and unattributed time add up to its wall time), counts from
    that pass, checked equal across traced passes."""
    ranked = sorted(traced, key=lambda p: p["wall_s"])
    mid = ranked[(len(ranked) - 1) // 2]
    counts, summary = mid["trace"]["counts"], mid["trace"]["summary"]
    repeat = all(p["trace"]["counts"] == counts for p in traced)
    metrics = {name: layer_value(name, counts, summary) for name in PER_LAYER
               if not name.startswith(("setup.", "trace."))}
    imports = sorted((import_seconds(env) for _ in range(3)), key=lambda t: t[0])
    metrics["setup.import_rsuncert_s"], metrics["setup.import_scipy_s"] = imports[1]
    metrics["trace.wall_s"] = mid["wall_s"]
    metrics["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                   - statistics.median(p["wall_s"] for p in untraced))
    metrics["trace.unattributed_s"] = summary["unattributed_s"]
    return metrics, repeat


def l3_bytes():
    try:
        text = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return None
    scale = {"K": 1024, "M": 1024 ** 2}.get(text[-1], 1)
    return int(text.rstrip("KM")) * scale


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    # on SIGTERM, unwind: subprocess.run then kills and reaps the running pass
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "rsuncert" / "__init__.py").is_file():
        sys.exit(f"error: no rsuncert sources under {ROOT / 'src'}")
    env = child_env()
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = OUT / f"{tag}-{os.getpid()}"
    run_dir.mkdir()
    try:
        passes, setup = run_passes(args, run_dir, env)

        sys.path.insert(0, str(ROOT / "src"))
        inputs = workloads.make_inputs(args.workload, args.seed)
        n_ops = len(workloads.operations(args.workload, inputs, run_dir))
        refs = workloads.references(args.workload, inputs)
        attempted = failed = 0
        failures = []
        for p in passes:
            attempted += n_ops
            if p["crashed"]:
                failed += n_ops
                failures.append(("pass", "crashed", p["pass_dir"]))
                continue
            failures += workloads.check_pass(p["ops"], refs, inputs, p["pass_dir"])
            failed += sum(bool(r["failed_gates"]) for r in p["ops"])
        correct = all(gate in KNOWN_DEFECT_GATES for _, gate, _ in failures)

        ran = [p for p in passes if not p["crashed"]]
        untraced = [p for p in ran if not p["traced"]]
        traced = [p for p in ran if p["traced"]]
        provenance = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "run_seconds": args.seconds, "nproc": os.cpu_count(),
            "threads": min(THREADS, len(os.sched_getaffinity(0))),
            "versions": ran[0]["versions"] if ran else None,
            "git_commit": git_commit(), "l3_bytes": l3_bytes(),
            "field_bytes": workloads.field_bytes(args.workload),
            "load_model": "one client, closed loop: each operation is sent when "
                          "the previous one returns; each pass is a fresh child process",
            "passes": [{"traced": p["traced"], "wall_s": p.get("wall_s"),
                        "peak_rss_mb": p.get("peak_rss_mb"), "crashed": p["crashed"]}
                       for p in passes],
            "setup_runs_s": setup,
        }
        if not untraced or (args.trace and not traced):
            metrics = {}
            correct = False
        elif args.trace:
            metrics, repeat = per_layer_metrics(untraced, traced, env)
            if not repeat:
                correct = False
                failures.append(("trace", "counters", "counters differ between traced passes"))
        else:
            p50, tail, latency_info = op_latencies(untraced)
            provenance["op_latency"] = latency_info
            metrics = {"setup_s": statistics.median(setup),
                       "wall_s": statistics.median(p["wall_s"] for p in untraced),
                       "op_p50_s": p50, "op_tail_s": tail,
                       "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced)}
        fail_frac = failed / attempted

        units = PER_LAYER if args.trace else END_TO_END
        for name, value in metrics.items():
            print(f"# {args.workload} {name} = {value:.6g} {units[name]}")
        print(f"# {args.workload} fail_frac = {fail_frac:.6g} (failed {failed} of {attempted})")
        for (op, gate, msg), n in Counter(failures).items():
            print(f"# {args.workload} FAIL {op} [{gate}] {msg} (in {n} of {len(passes)} passes)")
        print("# provenance " + json.dumps(provenance))
        record = {"correct": correct, "attempted": attempted, "failed": failed,
                  "fail_frac": fail_frac, "failures": failures, "metrics": metrics,
                  "provenance": provenance}
        with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": {n: {"value": v, "unit": units[n]}
                                      for n, v in metrics.items()}}))
    finally:
        for p in run_dir.glob("pass*"):
            if p.is_dir():
                shutil.rmtree(p)
            else:
                p.unlink()
        spans = list(run_dir.glob("spans-*"))
        for s in spans:
            s.rename(OUT / f"{tag}-{s.name}")
        run_dir.rmdir()


if __name__ == "__main__":
    main()
