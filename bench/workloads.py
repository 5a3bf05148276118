"""The three benchmark workloads: inputs made from a seed, the operations one
closed-loop client sends to rsuncert, the references, and the output gates.

Operations go through ``rsuncert.cli.main(argv)`` and
``moments.uncertainty_product``, looked up on their modules at call time so
that the tracer's wrappers (see tracer.py) see every call.

Known defect, shown and not hidden: for pairs that carry an f- amplitude,
the amplitude path (``uncertainty_product(pair)``) and the grid path disagree
by up to a few per cent, because the weak form in ``moments`` applies the f+
sign of the azimuthal ``Im(f* d_phi f)`` term to f- as well.  The
``cross-path`` gate below counts these as failed operations.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("analytic-batch", "grid-pipeline", "spread-trajectory")

N_PAIRS = 40
# fixed helicity schedule, so every seed has the same mix of 14 f+/f- pairs,
# 13 f+-only and 13 f--only pairs (the amount of work does not vary by seed)
MODES = ("both", "plus", "minus")
MONOMIALS = [(i, j, l) for i in range(3) for j in range(3) for l in range(3)
             if i + j + l <= 3]
N_TERMS = 3
GRID_N = 128              # grid-pipeline and spread-trajectory nodes per axis
REF_N = 64                # reference grid for random pairs
PAIR_EXTENT = 32.0        # box edge for random pairs: tails below the gate
SPREAD_EXTENT = 24.0
SPREAD_TIMES = "-1,-0.5,0,0.5,1"
FIELD_BYTES = GRID_N ** 3 * 3 * 16

TOL_SAT_ANALYTIC = 1e-9   # |product/(5/2) - 1|, analytic path
TOL_SAT_GRID = 1e-6       # |product/(5/2) - 1|, grid path
TOL_INPUT = 1e-3          # |product - 5/2|, verify-bound --input
TOL_SPREAD = 0.01         # relative, acceleration 2 c^2
TOL_CROSS = 1e-3          # amplitude or 128^3 grid path vs 64^3 grid path, relative
TOL_FINE = 1e-6           # default vs finer cylindrical rule, relative
TOL_BOUND = 1e-6          # product >= 5/2 - TOL_BOUND
TOL_FIELD = 1e-9          # .rsf samples vs the closed form, relative to the peak
TOL_SPECTRUM = 1e-3


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _amp_spec(rng):
    alpha = float(rng.uniform(0.35, 1.8))
    picks = rng.choice(len(MONOMIALS), N_TERMS, replace=False)
    coefs = rng.normal(size=(N_TERMS, 2))
    return {"alpha": alpha,
            "terms": [list(MONOMIALS[p]) + [float(c[0]), float(c[1])]
                      for p, c in zip(picks, coefs)]}


def _pair_spec(rng, mode):
    return {"mode": mode,
            "f_plus": _amp_spec(rng) if mode in ("both", "plus") else None,
            "f_minus": _amp_spec(rng) if mode in ("both", "minus") else None}


def make_inputs(workload, seed):
    """Everything the program receives, as JSON-ready data; same seed, same
    inputs."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    a = float(rng.uniform(0.5, 2.0))
    if workload == "analytic-batch":
        pairs = [_pair_spec(rng, MODES[i % 3]) for i in range(N_PAIRS)]
        return {"a": a, "pairs": pairs}
    if workload == "grid-pipeline":
        return {"a": a, "pairs": [_pair_spec(rng, "both")]}
    return {"a": a}


def build_pair(spec):
    from rsuncert import kspace

    def amp(s):
        if s is None:
            return None
        terms = {(t[0], t[1], t[2]): complex(t[3], t[4]) for t in s["terms"]}
        return kspace.PolynomialGaussianAmplitude(terms, s["alpha"])

    return kspace.HelicityAmplitudePair(amp(spec["f_plus"]), amp(spec["f_minus"]))


def field_bytes(workload):
    return 0 if workload == "analytic-batch" else FIELD_BYTES


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def operations(workload, inputs, pass_dir):
    """[(op name, callable returning a JSON-ready output)], in send order."""
    from rsuncert import cli, kspace, moments

    d = Path(pass_dir)
    a = repr(inputs["a"])

    def run_cli(*argv):
        return lambda: {"exit": cli.main(list(argv))}

    def analytic(pair):
        return lambda: moments.uncertainty_product(pair).to_dict()

    def grid_report(pair):
        grid = kspace.Grid3D.centered(GRID_N, PAIR_EXTENT).fourier_dual()
        return lambda: moments.uncertainty_product(
            kspace.synthesize_kspace(pair, grid)).to_dict()

    if workload == "analytic-batch":
        ops = [("verify-bound-saturating",
                run_cli("verify-bound", "--saturating", "--a", a,
                        "--out", str(d / "verify-bound-saturating.json")))]
        ops += [(f"pair-{i:02d}", analytic(build_pair(p)))
                for i, p in enumerate(inputs["pairs"])]
        ops.append(("spectrum", run_cli("spectrum", "--n-states", "3",
                                        "--out", str(d / "spectrum.json"))))
        return ops
    if workload == "grid-pipeline":
        n = str(GRID_N)
        return [
            ("field", run_cli("field", "--a", a, "--grid", n,
                              "--out-field", str(d / "F.rsf"),
                              "--profile-out", str(d / "P.csv"))),
            ("verify-bound-input", run_cli("verify-bound", "--input", str(d / "F.rsf"),
                                           "--out", str(d / "verify-bound-input.json"))),
            ("verify-bound-grid", run_cli("verify-bound", "--saturating", "--method",
                                          "grid", "--grid", n, "--a", a,
                                          "--out", str(d / "verify-bound-grid.json"))),
            ("pair-128", grid_report(build_pair(inputs["pairs"][0]))),
        ]
    return [("spread", run_cli("spread", "--a", a, "--grid", str(GRID_N),
                               "--extent", repr(SPREAD_EXTENT),
                               f"--times={SPREAD_TIMES}",
                               "--out", str(d / "spread.json")))]


# ---------------------------------------------------------------------------
# references (computed once per run, outside every timed region)
# ---------------------------------------------------------------------------

def _grid_product(pair, n):
    from rsuncert import kspace, moments

    grid = kspace.Grid3D.centered(n, PAIR_EXTENT).fourier_dual()
    return moments.uncertainty_product(kspace.synthesize_kspace(pair, grid)).product


def _fine_rule_product(pair):
    """Amplitude-path product on a finer cylindrical rule (wider k_max, more
    radial and axial nodes; the default 24 azimuthal nodes are already exact
    for these low-degree polynomials), per amplitude, combined as (N, Mk, Mr)
    sums."""
    from rsuncert import kspace, moments

    n = mk = mr = 0.0
    for single in (kspace.HelicityAmplitudePair(pair.f_plus, None) if pair.f_plus else None,
                   kspace.HelicityAmplitudePair(None, pair.f_minus) if pair.f_minus else None):
        if single is None:
            continue
        rule = moments.CylindricalRule(k_max=10.5 * single.k_scale, n_radial=96,
                                       n_axial=120)
        rep = moments.uncertainty_product(single, rule=rule)
        n += rep.norm_k
        mk += rep.delta_k2 * rep.norm_k
        mr += rep.delta_r2 * rep.norm_k
    return math.sqrt(mr / n * mk / n)


def references(workload, inputs):
    if workload == "analytic-batch":
        out = {}
        for i, spec in enumerate(inputs["pairs"]):
            pair = build_pair(spec)
            out[f"pair-{i:02d}"] = {"grid64": _grid_product(pair, REF_N),
                                    "fine": _fine_rule_product(pair)}
        return out
    if workload == "grid-pipeline":
        return {"pair-128": {"grid64": _grid_product(build_pair(inputs["pairs"][0]),
                                                     REF_N)}}
    return {}


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------

def _rel(x, ref):
    return abs(x / ref - 1.0)


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _check_field_file(path, a):
    """Header, size, and 200 fixed nodes against the Gaussian packet
    C exp(-r^2/2a^2) (y, -x, 0), an expression independent of the Dawson
    closed form that wrote the file."""
    from rsuncert.analytic_fields import simplest_field

    with open(path, "rb") as fh:
        header = fh.readline()
    h = json.loads(header)
    n = h["counts"][0]
    if h["counts"] != [GRID_N] * 3 or path.stat().st_size != len(header) + FIELD_BYTES:
        return "bad header or size"
    vals = np.memmap(path, dtype="<c16", mode="r", offset=len(header), shape=(n, n, n, 3))
    idx = np.random.default_rng(0).integers(0, n, size=(200, 3))
    pts = np.array(h["origins"]) + np.array(h["spacings"]) * idx
    got = np.array([vals[k, j, i] for i, j, k in idx])
    ref = simplest_field(pts, 1.0, a)
    err = np.abs(got - ref).max() / np.abs(ref).max()
    return None if err <= TOL_FIELD else f"field samples off by {err:.2e}"


def _check_profile(path):
    rows = path.read_text(encoding="utf-8").splitlines()
    vals = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    if vals.shape != (257, 7) or not np.all(np.isfinite(vals)):
        return "bad profile csv"
    return None


def _gate_op(name, out, refs, inputs, d):
    """[(gate, failure message or None)] for one operation's output."""
    if "error" in out:
        return [("ran", out["error"])]
    if "exit" in out and out["exit"] != 0:
        return [("ran", f"exit {out['exit']}")]
    if name in ("verify-bound-saturating", "verify-bound-grid"):
        rep = _load(d / f"{name}.json")
        tol = TOL_SAT_ANALYTIC if name == "verify-bound-saturating" else TOL_SAT_GRID
        err = abs(rep["saturation_ratio"] - 1.0)
        return [("saturation", None if err <= tol else f"|ratio-1| = {err:.2e}")]
    if name == "verify-bound-input":
        err = abs(_load(d / f"{name}.json")["product"] - 2.5)
        return [("file-product", None if err <= TOL_INPUT else f"|product-2.5| = {err:.2e}")]
    if name == "spectrum":
        ev = np.array(_load(d / "spectrum.json")["eigenvalues"])
        err = np.abs(ev - np.array([2.5, 4.5, 6.5])).max()
        return [("spectrum", None if err <= TOL_SPECTRUM else f"eigenvalue error {err:.2e}")]
    if name == "field":
        return [("field-file", _check_field_file(d / "F.rsf", inputs["a"])),
                ("profile", _check_profile(d / "P.csv"))]
    if name == "spread":
        fit = _load(d / "spread.json")["fit"]
        err = abs(fit["acceleration"] / 2.0 - 1.0)
        return [("spreading-law", None if err <= TOL_SPREAD else f"acceleration off by {err:.2e}")]
    # random pairs: amplitude path (analytic-batch) or 128^3 grid path
    p = out["product"]
    if not all(math.isfinite(out[k]) for k in ("product", "delta_r2", "delta_k2")):
        return [("finite", "non-finite report")]
    ref = refs[name]
    vs_grid = (None if _rel(p, ref["grid64"]) <= TOL_CROSS else
               f"product {p:.6f} vs 64^3 grid {ref['grid64']:.6f}")
    gates = [("bound", None if p >= 2.5 - TOL_BOUND else f"product {p:.9f} < 5/2")]
    if name == "pair-128":  # grid path against the coarser grid path
        return gates + [("grid-64", vs_grid)]
    return gates + [("cross-path", vs_grid),
                    ("fine-rule", None if _rel(p, ref["fine"]) <= TOL_FINE else
                     f"product {p:.12f} vs finer rule {ref['fine']:.12f}")]


def check_pass(records, refs, inputs, pass_dir):
    """Annotate each op record with its failed gates; return the list of
    (op, gate, message) failures."""
    failures = []
    for rec in records:
        try:
            gates = _gate_op(rec["op"], rec["output"], refs, inputs, Path(pass_dir))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            gates = [("output", f"{type(exc).__name__}: {exc}")]
        rec["failed_gates"] = [g for g, msg in gates if msg is not None]
        failures += [(rec["op"], g, msg) for g, msg in gates if msg is not None]
    return failures
