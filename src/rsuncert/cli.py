"""Command-line harness.

Subcommands:
    verify-bound   uncertainty product of a saturating or user-supplied field
    spectrum       radial eigenvalues gamma_n = 5/2 + 2n
    field          evaluate the closed-form field on a grid, write .rsf
    spread         <r^2>(t) trajectory and the quadratic spreading-law fit

Exit codes: 0 success, 1 bound violated (for spectrum and spread: a result
off its target), 2 input error, 3 degenerate field, 4 resolution error,
5 truncation.  Exit 1 is only ever a verdict.  verify-bound gives it when
the product falls below the bound or, for the built-in field, when the
saturation ratio misses 1, either by more than --tolerance; a miss in a
report whose boundary ratio exceeds TRUNCATION_RATIO in either space (the
report's truncation warning) exits 5 instead, as a box that cuts the
packet off gives no verdict (spread: at any time; it names the first as
given in --times).  Every other non-zero code
comes from main, the one place that catches an exception: it maps the
exception to its code through _ERROR_EXITS and prints one `error:` line.
Inputs are checked where they are built (SaturatingFieldSpec, Grid3D,
RadialProblem, the .rsf header, payload size and grid in
rsfio._read_header, spreading_trajectory), output paths before any
command runs (an existing directory, none that names an input or another
output), and each command runs under np.errstate(over, divide,
invalid = "raise"), so out-of-range arithmetic is an input error too.
Every report is one call of moments.uncertainty_product and every .rsf
file one of analytic_fields.write_field, each streamed in bounded memory
(a failed write leaves no file); this module imports only public names.
Flag-syntax errors keep argparse's usage output (exit 2).
Units: c = 1; times are given in units of a/c.
Option precedence: command-line flags > --config JSON file > defaults; a
flag counts however it is spelt (--flag=value, or an abbreviation), every
config key must name an option of the command (not --help or --config),
and every config value is checked like its flag, a path flag's as a JSON
string, also where a flag overrides it (exit 2).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .analytic_fields import (
    SaturatingFieldSpec,
    photon_wavefunctions,
    saturating_rs_field,
    write_field,
)
from .errors import DegenerateFieldError, ResolutionError, RsUncertError, TruncationError
from .eigensolver import RadialProblem, solve_radial
from .kspace import Grid3D
from .moments import uncertainty_product
from .propagator import spreading_trajectory

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DEGENERATE = 3
EXIT_RESOLUTION = 4
EXIT_TRUNCATION = 5

# exception type -> (exit code, message prefix), for main alone; the first
# matching row wins, so the RsUncertError subclasses come first.
# ArithmeticError (FloatingPointError under main's errstate, OverflowError
# from float powers) is out-of-range input, named as such in its line.
_ERROR_EXITS = (
    (TruncationError, EXIT_TRUNCATION, "truncation: "),
    (ResolutionError, EXIT_RESOLUTION, "resolution: "),
    (DegenerateFieldError, EXIT_DEGENERATE, "degenerate field: "),
    (RsUncertError, EXIT_INPUT, ""),
    (ValueError, EXIT_INPUT, ""),
    (OSError, EXIT_INPUT, ""),
    (ArithmeticError, EXIT_INPUT, "arithmetic: "),
)


def _message(exc) -> str:
    """The text of exc for its `error:` line.  A float power's
    OverflowError carries an errno pair (34, 'Numerical result out of
    range'), whose str is the tuple: its text alone is given."""
    if isinstance(exc, ArithmeticError) and len(exc.args) == 2:
        return str(exc.args[1])
    return str(exc)


def _fmt(value) -> str:
    return "%.17g" % value


def _emit(text, out_path):
    """Write text, a str or an iterable of str blocks, to out_path (stdout
    if none)."""
    blocks = [text] if isinstance(text, str) else text
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.writelines(blocks)
    else:
        sys.stdout.writelines(blocks)


def _report_text(report, fmt):
    if fmt != "csv":
        return report.to_json() + "\n"
    d = report.to_dict()
    keys = ["delta_r2", "delta_k2", "product", "bound",
            "saturation_ratio", "norm_r", "norm_k"]
    return ",".join(keys) + "\n" + ",".join(_fmt(d[k]) for k in keys) + "\n"


def _grid_size(value):
    n = int(value)
    if n < 16 or n > 256 or (n & (n - 1)) != 0:
        raise argparse.ArgumentTypeError(
            "grid size must be a power of two between 16 and 256"
        )
    return n


def _complex(value):
    try:
        return complex(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad complex literal {value!r}") from exc


def _times(value):
    try:
        return [float(tok) for tok in value.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad time list {value!r}") from exc


def _apply_config(args, parser, argv):
    """Merge --config JSON under explicitly given flags (flags win).

    The file must hold a JSON object whose every key names an option of
    the command other than --help and --config.  Each value goes through
    its flag's own type and choices, as if it had been given on the
    command line, also where a flag overrides it; a bad file, key or value
    raises ValueError.  A flag counts as given however it is spelt
    (--flag=value, or an abbreviation argparse accepts).
    """
    if not getattr(args, "config", None):
        return
    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or UTF-8
        raise ValueError(f"cannot read config file: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValueError(f"config file must hold a JSON object, got {type(cfg).__name__}")
    # argparse has no public list of a parser's actions
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = {act.dest: act for act in sub.choices[args.command]._actions
               if act.dest not in ("help", "config")}
    # parsed again with no defaults, argv sets exactly the options it gives
    for act in actions.values():
        act.default = argparse.SUPPRESS
    given = vars(parser.parse_args(argv))
    for key, val in cfg.items():
        attr = key.replace("-", "_")
        if attr not in actions:
            raise ValueError(f"config {key!r}: not an option of {args.command}")
        val = _config_value(actions[attr], key, val)
        if attr not in given:
            setattr(args, attr, val)


def _config_value(action, key, val):
    """A config value converted and checked like the flag it stands for; a
    flag with no type (a path or a choice) takes only a JSON string."""
    if action.nargs == 0:  # on/off flags take a JSON boolean
        if not isinstance(val, bool):
            raise ValueError(f"config {key!r}: expected true or false, got {val!r}")
        return val
    if action.type is None and not isinstance(val, str):
        raise ValueError(f"config {key!r}: expected a string, got {val!r}")
    if isinstance(val, bool) or not isinstance(val, (str, int, float)):
        raise ValueError(f"config {key!r}: expected a string or a number, got {val!r}")
    if action.type is not None:
        try:
            val = action.type(str(val))
        except (argparse.ArgumentTypeError, ValueError) as exc:
            raise ValueError(f"config {key!r}: {exc}") from exc
    if action.choices is not None and val not in action.choices:
        choices = ", ".join(map(repr, action.choices))
        raise ValueError(f"config {key!r}: invalid choice {val!r} (choose from {choices})")
    return val


def _check_tolerance(args):
    """--tolerance, from a flag or --config, must be finite and >= 0: every
    comparison with NaN is false, so a bad value would read as exit 1."""
    tol = getattr(args, "tolerance", 0.0)
    if not (np.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"--tolerance must be finite and >= 0, got {tol}")


def _check_output_dirs(args):
    """Every output path's directory must exist, the path must not be a
    directory itself, and it must not name the file of --input, of
    --config or of another output (by os.path.realpath), checked before
    any work, so a bad path costs no computation and writes nothing."""
    taken = {}  # realpath -> the first flag that names it
    for dest in ("input", "config", "out", "out_field", "profile_out", "dump_eigenfunctions"):
        path = getattr(args, dest, None)
        if not path:
            continue
        flag = f"--{dest.replace('_', '-')}"
        real = os.path.realpath(path)
        if dest not in ("input", "config"):
            if real in taken:
                raise ValueError(f"{flag}: {path!r} is also the file of {taken[real]}")
            folder = os.path.dirname(path)
            if folder and not os.path.isdir(folder):
                raise ValueError(f"{flag}: no such directory {folder!r}")
            if os.path.isdir(path):
                raise ValueError(f"{flag}: {path!r} is a directory")
        taken.setdefault(real, flag)


def _field_spec(args) -> SaturatingFieldSpec:
    a = float(args.a)
    cp = args.c_plus
    cm = args.c_minus
    if cp is None and cm is None:
        return SaturatingFieldSpec.simplest(C=1.0, a=a)
    return SaturatingFieldSpec(a=a, c_plus=complex(cp or 0.0), c_minus=complex(cm or 0.0))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_verify_bound(args) -> int:
    """Uncertainty product of a saturating or stored field vs the 5/2 bound."""
    saturating = args.input is None
    if not saturating:
        builtin = {"--saturating": args.saturating, "--method grid": args.method == "grid"}
        for dest, default in _FIELD_DEFAULTS.items():
            builtin[f"--{dest.replace('_', '-')}"] = getattr(args, dest) != default
        flag = next((flag for flag, given in builtin.items() if given), None)
        if flag:
            raise ValueError(f"{flag} applies to the built-in field, not to --input")
        report = uncertainty_product(args.input)
    elif args.method == "analytic":
        report = uncertainty_product(_field_spec(args).amplitudes())
    else:
        spec = _field_spec(args)
        grid = Grid3D.centered(args.grid, args.extent * spec.a).fourier_dual()
        report = uncertainty_product(spec.amplitudes(), grid)  # builds no field

    _emit(_report_text(report, args.format), args.out)
    ok = report.product >= report.bound - args.tolerance
    if saturating:
        ok = ok and abs(report.saturation_ratio - 1.0) <= args.tolerance
    if not ok:
        # a packet cut off by the box has the wrong variance: that is a
        # truncation, not a violated bound or a missed saturation
        cut = report.truncations()
        if cut:
            raise TruncationError(cut[0])
        return 1
    return EXIT_OK


def cmd_spectrum(args) -> int:
    """Radial eigenvalues against 5/2 + 2n."""
    problem = RadialProblem(kappa_max=args.kappa_max, n_points=args.n_points)
    spectrum = solve_radial(problem, n_states=args.n_states)
    # the dump's sampling is checked before anything is written
    blocks = spectrum.eigenfunctions_csv_blocks() if args.dump_eigenfunctions else None

    _emit(spectrum.to_json() + "\n", args.out)
    if blocks is not None:
        _emit(blocks, args.dump_eigenfunctions)
    targets = 2.5 + 2.0 * np.arange(args.n_states)
    ok = np.all(np.abs(spectrum.eigenvalues - targets) <= args.tolerance)
    return EXIT_OK if ok else 1


def cmd_field(args) -> int:
    """Evaluate the closed-form field (or a photon wave function) on a grid,
    write an .rsf file and optionally an axis-profile CSV."""
    spec = _field_spec(args)
    if args.photon and spec.c_plus == 0:
        raise ValueError("--photon uses --c-plus only, and --c-plus is zero")
    t = float(args.time) * spec.a  # times in units of a/c, c = 1
    if not np.isfinite(t):
        raise ValueError(f"--time must be finite, got {args.time}")

    helicity = {None: None, "plus": +1, "minus": -1}[args.photon]

    grid = Grid3D.centered(args.grid, args.extent * spec.a)
    write_field(args.out_field, grid, t, spec, helicity)
    if args.profile_out:
        axis = {"x": 0, "y": 1, "z": 2}[args.profile_axis]
        coords = np.linspace(-args.extent * spec.a / 2, args.extent * spec.a / 2, 257)
        pts = np.zeros((coords.size, 3))
        pts[:, axis] = coords
        if helicity is None:
            vals = saturating_rs_field(pts, t, spec)
        else:
            vals = photon_wavefunctions(pts, t, spec)[helicity < 0]
        lines = [f"{args.profile_axis},ReFx,ImFx,ReFy,ImFy,ReFz,ImFz"]
        for i, cvt in enumerate(coords):
            row = [_fmt(cvt)]
            for comp in range(3):
                row += [_fmt(vals[i, comp].real), _fmt(vals[i, comp].imag)]
            lines.append(",".join(row))
        _emit("\n".join(lines) + "\n", args.profile_out)
    return EXIT_OK


def cmd_spread(args) -> int:
    """<r^2>(t) trajectory and the quadratic spreading-law fit."""
    spec = _field_spec(args)
    times = np.asarray(args.times, dtype=float) * spec.a  # units of a/c
    grid = Grid3D.centered(args.grid, args.extent * spec.a).fourier_dual()
    traj = spreading_trajectory(spec.amplitudes(), times, grid)
    if traj.truncated:
        first = args.times[int(np.argmax(traj.cut))]  # as given, in units of a
        raise TruncationError(f"packet reached the box boundary at t = {first}; "
                              "enlarge the grid extent")

    text = traj.to_csv() if args.format == "csv" else traj.to_json() + "\n"
    _emit(text, args.out)
    _, _, gamma, _ = traj.quadratic_fit()
    ok = abs(2.0 * gamma - 2.0) <= args.tolerance * 2.0
    if 0.0 in traj.times:
        i0 = int(np.argmin(np.abs(traj.times)))
        ok = ok and np.all(traj.second_moments >= traj.second_moments[i0] - 1e-9)
    return EXIT_OK if ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# the built-in field's options and their defaults; verify-bound --input
# takes none of them at another value
_FIELD_DEFAULTS = {"a": 1.0, "c_plus": None, "c_minus": None, "grid": 64, "extent": 16.0}


def _add_field_opts(p):
    d = _FIELD_DEFAULTS
    p.add_argument("--a", type=float, default=d["a"], help="packet scale a")
    p.add_argument("--c-plus", type=_complex, default=d["c_plus"],
                   help="positive-helicity coefficient (complex literal)")
    p.add_argument("--c-minus", type=_complex, default=d["c_minus"],
                   help="negative-helicity coefficient")
    p.add_argument("--grid", type=_grid_size, default=d["grid"],
                   help="grid nodes per axis (power of two, 16..256)")
    p.add_argument("--extent", type=float, default=d["extent"],
                   help="box edge length in units of a")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsuncert",
        description="Verify the electromagnetic uncertainty relation "
                    "Dr*Dk >= 5/2 and its saturating fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify-bound", help="uncertainty product vs the bound")
    _add_field_opts(pv)
    pv.add_argument("--saturating", action="store_true",
                    help="use the built-in saturating field (default when no --input)")
    pv.add_argument("--input", default=None, help=".rsf field file to analyze")
    pv.add_argument("--method", choices=["analytic", "grid"], default="analytic",
                    help="evaluation path for the built-in field (default analytic)")
    pv.add_argument("--tolerance", type=float, default=1e-3)
    pv.add_argument("--out", default=None)
    pv.add_argument("--format", choices=["json", "csv"], default="json")
    pv.add_argument("--config", default=None, help="JSON config file")
    pv.set_defaults(func=cmd_verify_bound)

    ps = sub.add_parser("spectrum", help="radial eigenvalues 5/2 + 2n")
    ps.add_argument("--kappa-max", type=float, default=10.0)
    ps.add_argument("--n-points", type=int, default=2000,
                    help="points of the grid the eigenfunctions are sampled on (200..1000000)")
    ps.add_argument("--n-states", type=int, default=3)
    ps.add_argument("--tolerance", type=float, default=1e-3)
    ps.add_argument("--dump-eigenfunctions", default=None,
                    help="CSV path for sampled eigenfunctions")
    ps.add_argument("--out", default=None)
    ps.add_argument("--config", default=None)
    ps.set_defaults(func=cmd_spectrum)

    pf = sub.add_parser("field", help="evaluate the closed-form field, write .rsf")
    _add_field_opts(pf)
    pf.add_argument("--time", type=float, default=0.0, help="time in units of a/c")
    pf.add_argument("--photon", choices=["plus", "minus"], default=None,
                    help="write a photon wave function instead of the classical field")
    pf.add_argument("--out-field", required=True, help=".rsf output path")
    pf.add_argument("--profile-axis", choices=["x", "y", "z"], default="z")
    pf.add_argument("--profile-out", default=None, help="axis-profile CSV path")
    pf.add_argument("--config", default=None)
    pf.set_defaults(func=cmd_field)

    pp = sub.add_parser("spread", help="<r^2>(t) trajectory and spreading fit")
    _add_field_opts(pp)
    pp.add_argument("--times", type=_times, default=[-1.0, -0.5, 0.0, 0.5, 1.0],
                    help="comma-separated times in units of a/c")
    pp.add_argument("--tolerance", type=float, default=0.01,
                    help="relative tolerance on the fitted acceleration")
    pp.add_argument("--out", default=None)
    pp.add_argument("--format", choices=["json", "csv"], default="json")
    pp.add_argument("--config", default=None)
    pp.set_defaults(func=cmd_spread)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # out-of-range arithmetic raises FloatingPointError here instead of
        # printing RuntimeWarnings; underflow to zero stays silent
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            _apply_config(args, parser, argv)
            _check_tolerance(args)
            _check_output_dirs(args)
            return args.func(args)
    except tuple(kind for kind, _, _ in _ERROR_EXITS) as exc:
        code, prefix = next(row[1:] for row in _ERROR_EXITS if isinstance(exc, row[0]))
        print(f"error: {prefix}{_message(exc)}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
