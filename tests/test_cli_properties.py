"""Property tests of the CLI's error boundary.

Whatever a --config file or an .rsf file holds, main returns an exit code
in 0..5 and lets no exception escape.  Its stderr is one line starting
`error:` for codes 2..5 and empty for 0 and 1 (the verdicts), and it
raises no warning, which would print lines of its own.  A config key
that names no option of the command exits 2.  Examples are
derandomized, and no example database is kept (database=None).
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from rsuncert.cli import main
from rsuncert.rsfio import LAYOUT

SETTINGS = settings(database=None, deadline=None, derandomize=True, max_examples=40)

# magnitudes whose squares or fifth powers leave the float range
extremes = st.sampled_from([1e300, -1e300, 1e150, 1e-150, 1e-300, 5e-324])
numbers = st.one_of(st.integers(-10 ** 6, 10 ** 6), st.floats(width=64), extremes)
# keys spelled from these letters name no option: a config that holds one
# exits 2, with its one error: line
STRAY = "xyz_"
scalars = st.one_of(st.none(), st.booleans(), numbers, st.text(max_size=6))
json_values = st.one_of(scalars, st.lists(scalars, max_size=3),
                        st.dictionaries(st.text(alphabet=STRAY, max_size=3), scalars, max_size=2))
stray_keys = st.text(alphabet=STRAY, min_size=1, max_size=4)
# each option's values: mostly usable ones, to get past the other options'
# checks, then extremes, then anything
positives = st.one_of(st.floats(0.2, 5.0), extremes, numbers)
tolerances = st.one_of(st.floats(0.0, 1.0), numbers)
complex_literals = st.one_of(st.complex_numbers(max_magnitude=10.0), extremes,
                            extremes.map(lambda v: v * 1j),
                            st.complex_numbers(allow_nan=True, allow_infinity=True)).map(str)


def configs(options):
    """--config payloads: mostly objects that give some of the options a
    value of their own kind, with or without stray keys; some also give one
    option any JSON value; a few are not objects."""
    def merged(*parts):
        return st.tuples(*parts).map(lambda ds: {k: v for d in ds for k, v in d.items()})

    own = st.fixed_dictionaries({}, optional=options)
    stray = st.dictionaries(stray_keys, json_values, max_size=2)
    wild = st.dictionaries(st.sampled_from(sorted(options)), json_values, min_size=1, max_size=1)
    return st.one_of(own, merged(stray, own), merged(own, wild), json_values)


def run_checked(argv):
    """main(argv) with stdout dropped; asserts the boundary's contract and
    returns (code, stderr)."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main([str(a) for a in argv])
    lines = err.getvalue().splitlines()
    assert isinstance(code, int) and 0 <= code <= 5, code
    assert not caught, [str(w.message) for w in caught]
    if code >= 2:
        assert len(lines) == 1 and lines[0].startswith("error:"), lines
    else:
        assert lines == [], lines
    return code, lines


def run_with_config(argv, cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        # json writes NaN and Infinity, and json.load reads them back
        path.write_text(json.dumps(cfg))
        code, lines = run_checked(argv + ["--config", path])
    if isinstance(cfg, dict) and any(set(key) <= set(STRAY) for key in cfg):
        assert code == 2, (cfg, code)
    return code, lines


@settings(SETTINGS, max_examples=80)
@given(configs({
    "a": positives,
    "c_plus": complex_literals,
    "c-minus": complex_literals,
    "tolerance": tolerances,
    "saturating": st.booleans(),
    "format": st.sampled_from(["json", "csv", "xml"]),
    "help": st.booleans(),
}))
def test_verify_bound_config(cfg):
    # --method on the command line wins: the amplitude path, never a grid
    run_with_config(["verify-bound", "--method", "analytic"], cfg)


@SETTINGS
@given(configs({
    "kappa_max": st.one_of(st.floats(8.0, 30.0), extremes, numbers),
    "n_points": st.integers(-10, 4000),
    "n_states": st.integers(-2, 6),
    "tolerance": tolerances,
}).filter(lambda cfg: not isinstance(cfg, dict) or _bounded_solve(cfg)))
def test_spectrum_config(cfg):
    run_with_config(["spectrum"], cfg)


def _bounded_solve(cfg):
    """n_points and n_states small enough for a quick solve, whichever
    spelling of a number the config uses."""
    for key, cap in (("n_points", 4000), ("n_states", 6)):
        try:
            if int(str(cfg.get(key, 0))) > cap:
                return False
        except ValueError:
            pass  # not an int: rejected by the flag's type
    return True


def _header(counts, spacings, origins, space, layout):
    return {"space": space, "counts": counts, "spacings": spacings,
            "origins": origins, "layout": layout}


triples = st.lists(st.floats(width=64), min_size=2, max_size=4)
any_headers = st.builds(
    _header,
    counts=st.lists(st.one_of(st.integers(-1, 4), numbers, st.text(max_size=2)), max_size=4),
    spacings=triples,
    origins=triples,
    space=st.sampled_from(["position", "wavevector", "time"]),
    layout=st.sampled_from([LAYOUT, "planar"]),
)
# well formed but for a count of 1 (too few nodes): these reach the moments
grid_headers = st.builds(
    _header,
    counts=st.lists(st.integers(1, 4), min_size=3, max_size=3),
    spacings=st.lists(st.floats(0.05, 2.0), min_size=3, max_size=3),
    origins=st.lists(st.floats(-3.0, 0.0), min_size=3, max_size=3),
    space=st.sampled_from(["position", "wavevector"]),
    layout=st.just(LAYOUT),
)
header_bytes = st.one_of(
    grid_headers.map(lambda h: json.dumps(h).encode() + b"\n"),
    any_headers.map(lambda h: json.dumps(h).encode() + b"\n"),
    any_headers.map(lambda h: json.dumps(h).encode()),  # no newline
    st.binary(max_size=40),
)
# payload values by kind: zeros give a degenerate field, NaN and 1e300
# invalid or overflowing moments, 1e-300 an underflow to a zero density
fills = st.sampled_from(["normal", "zeros", "nan", "inf", "huge", "tiny"])
FILL = {"zeros": 0.0, "nan": math.nan, "inf": math.inf, "huge": 1e300, "tiny": 1e-300}


def _payload(header, fill, seed, trim):
    """Values for the header's counts (when it has three small positive
    ints), less `trim` bytes; a few random bytes otherwise."""
    rng = np.random.default_rng(seed)
    try:
        counts = json.loads(header.decode())["counts"]
        n = math.prod(counts) if len(counts) == 3 and 0 < min(counts) <= max(counts) <= 4 else 0
    except (ValueError, TypeError, KeyError, AttributeError):
        n = 0
    if not n:
        return rng.bytes(int(rng.integers(0, 64)))
    vals = rng.normal(size=6 * n) if fill == "normal" else np.full(6 * n, FILL[fill])
    data = vals.astype("<f8").tobytes()
    return data[:len(data) - trim]


@settings(SETTINGS, max_examples=100)
@given(header_bytes, fills, st.integers(0, 2 ** 32 - 1), st.sampled_from([0, 0, 0, 1, 16]))
def test_verify_bound_rsf_input(header, fill, seed, trim):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "field.rsf"
        path.write_bytes(header + _payload(header, fill, seed, trim))
        run_checked(["verify-bound", "--input", path])
