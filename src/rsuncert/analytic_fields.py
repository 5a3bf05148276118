"""Closed-form minimal-uncertainty fields.

The saturating amplitudes f+- = C+- k_perp exp(-a^2 k^2/2) admit closed-form
position-space fields.  With c = 1 (for another c, pass c*t as the time),
the light-cone variables are l+- = (r +- t)/(sqrt(2) a), and the
per-helicity scalar generators are

    Fgen_{+-}(r,t) = 1/(2 a r) [ D(l+) + D(l-) -+ i sqrt(pi)/2 (e^{-l+^2} - e^{-l-^2}) ]

with D the Dawson function: the scalar G of _scalar_blocks with
A = sqrt(2 pi)/2 and B = -+ i sqrt(pi)/2 A.  The full RS vector is
obtained by applying the derivative matrix

    [ dx dz + i dy dt ]
    [ dy dz - i dx dt ]   acting on the combined scalar,
    [ -dx^2 - dy^2    ]

which this module evaluates analytically, reducing every component to Dawson
and Gaussian factors of l+- (plus a Taylor-in-r branch near r = 0 where the
closed forms suffer catastrophic cancellation).

Normalization note: the scalar actually fed to the derivative matrix is

    G = C+ T+ + conj(C-) T-,
    T+-(r,t) = sqrt(2/pi)/(2 a r) [ D(l+) + D(l-) +- i sqrt(pi)/2 (e^{-l+^2} - e^{-l-^2}) ]

the exact Fourier partner of the amplitudes above.  T+- differ from the
generator Fgen_{+-} by the constant sqrt(2/pi) and by the helicity label of
the imaginary part; with this pairing the analytic field coincides with
spectral synthesis + FFT for all t, not just up to normalization.

Grid evaluation: the field depends on position only through three radial
blocks (_scalar_blocks) contracted with x, y and z.  On a centred cube with
an even node count (Grid3D.centered) every node offset is an odd multiple
of d/2, so r^2 = (d/2)^2 m with m = 3 (mod 8), and an n^3 grid has at most
3(n-1)^2/8 + 5/8 radii (6,049 at 128^3, for 2,097,152 nodes).  The blocks
are evaluated once per radius and gathered per node by the integer key
(m - 3)/8 (kspace._radius_keys), one z-slab at a time, in the .rsf
payload's layout (_field_slabs), and each slab writes the polynomial of
kspace._polynomial, which the k-space node route writes too.  write_field
(the CLI's `field`) writes each slab to the file as it is made, so it
holds no array of the whole grid, and evaluates only the helicity it is
asked for.  saturating_rs_field and photon_wavefunctions accept such a
Grid3D in place of points and fill their result from the same z-slabs,
so the file's bytes are those of the whole-grid result written by
rsfio.write_rsf.
"""

from __future__ import annotations

from dataclasses import dataclass
import cmath
import math

import numpy as np

from .specfun import dawson
from .kspace import (
    Grid3D,
    HelicityAmplitudePair,
    _polynomial,
    _radius_keys,
    saturating_amplitudes,
)
from .rsfio import _write_slabs

__all__ = [
    "SaturatingFieldSpec",
    "simplest_field",
    "saturating_rs_field",
    "photon_wavefunctions",
    "write_field",
]

_SQPI = np.sqrt(np.pi)

# Below r = R_SWITCH * a the closed forms are replaced by Taylor series in r
# (the scalar is entire, so the series is machine-exact well past the switch,
# while the closed form suffers 1/r^3-amplified cancellation there once
# t != 0; 0.05 a keeps both branches at ~1e-10 agreement or better).
R_SWITCH = 0.05
_SERIES_TERMS = 10  # terms rho^1 .. rho^21 of the odd series of M


@dataclass(frozen=True)
class SaturatingFieldSpec:
    """Scale a and helicity coefficients C+ / C- of a closed-form
    minimal-uncertainty field."""

    a: float
    c_plus: complex = 1.0
    c_minus: complex = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.a) and self.a > 0):
            raise ValueError(f"SaturatingFieldSpec: a must be finite and positive, got {self.a}")
        if not (cmath.isfinite(self.c_plus) and cmath.isfinite(self.c_minus)):
            raise ValueError("SaturatingFieldSpec: coefficients must be finite, got "
                             f"c_plus = {self.c_plus}, c_minus = {self.c_minus}")
        if self.c_plus == 0 and self.c_minus == 0:
            raise ValueError("SaturatingFieldSpec: both coefficients zero")

    @classmethod
    def simplest(cls, C=1.0, a=1.0) -> "SaturatingFieldSpec":
        """Coefficients for the pure Gaussian packet:
        saturating_rs_field(r, 0, spec) == C exp(-r^2/2a^2) (y, -x, 0).
        ValueError if a^5/sqrt(2) overflows or underflows to zero."""
        try:
            s = a ** 5 / np.sqrt(2.0)
        except OverflowError:
            s = math.inf
        if 0 < a < math.inf and not 0 < s < math.inf:  # __post_init__ names a bad a
            raise ValueError(f"SaturatingFieldSpec.simplest: a^5/sqrt(2) out of range, a = {a}")
        return cls(a=a, c_plus=-C * s, c_minus=np.conj(C) * s)

    def amplitudes(self) -> HelicityAmplitudePair:
        """The exact k-space helicity pair of this field."""
        return saturating_amplitudes(self.c_plus, self.c_minus, self.a)


# ---------------------------------------------------------------------------
# the scalar's derivative ladder
# ---------------------------------------------------------------------------

def _deriv_ladder(w, nmax):
    """Derivatives D^(n)(w) and g^(n)(w), g = exp(-w^2), for n = 0..nmax.

    D' = 1 - 2wD; thereafter X^(n+1) = -2n X^(n-1) - 2w X^(n) for both
    ladders (the inhomogeneous term only enters at n = 1).
    """
    w = np.asarray(w, dtype=float)
    D = dawson(w)
    Ds = [D, 1.0 - 2.0 * w * D]
    gs = [np.exp(-w * w)]
    gs.append(-2.0 * w * gs[0])
    for n in range(1, nmax):
        Ds.append(-2.0 * n * Ds[n - 1] - 2.0 * w * Ds[n])
        gs.append(-2.0 * n * gs[n - 1] - 2.0 * w * gs[n])
    return Ds, gs


# ---------------------------------------------------------------------------
# full RS field via the analytic derivative matrix
# ---------------------------------------------------------------------------

def _scalar_blocks(r, t, a, A, B):
    """Radial building blocks of the derivative-matrix field.

    For G(r,t) = nu M(r,t)/r with nu = 1/(a sqrt(2 pi)) and
    M = A [D(l+)+D(l-)] + B [e^{-l+^2} - e^{-l-^2}], returns

        (W/r^2, G_rt/r, G_r/r, G),  W = G_rr - G_r/r,

    all regular at r = 0 (series branch below R_SWITCH * a).  The field is

        Fx = x z (W/r^2) + i y (G_rt/r)
        Fy = y z (W/r^2) - i x (G_rt/r)
        Fz = -(x^2+y^2) (W/r^2) - 2 (G_r/r)
    """
    b = 1.0 / (np.sqrt(2.0) * a)
    nu = 1.0 / (a * np.sqrt(2.0 * np.pi))
    r = np.asarray(r, dtype=float)
    t = np.asarray(t, dtype=float)
    r_b, t_b = np.broadcast_arrays(r, t)
    shape = r_b.shape
    w2 = np.empty(shape, dtype=np.complex128)
    grt = np.empty(shape, dtype=np.complex128)
    gr = np.empty(shape, dtype=np.complex128)
    G = np.empty(shape, dtype=np.complex128)

    far = r_b >= R_SWITCH * a
    if np.any(far):
        rr, tt = r_b[far], t_b[far]
        lp, lm = (rr + tt) * b, (rr - tt) * b  # light-cone variables l+-
        Dp, Dm = dawson(lp), dawson(lm)
        Ep, Em = np.exp(-lp * lp), np.exp(-lm * lm)
        D1p, D1m = 1.0 - 2.0 * lp * Dp, 1.0 - 2.0 * lm * Dm
        E1p, E1m = -2.0 * lp * Ep, -2.0 * lm * Em
        D2p = -2.0 * lp + (4.0 * lp * lp - 2.0) * Dp
        D2m = -2.0 * lm + (4.0 * lm * lm - 2.0) * Dm
        E2p = (4.0 * lp * lp - 2.0) * Ep
        E2m = (4.0 * lm * lm - 2.0) * Em
        M = A * (Dp + Dm) + B * (Ep - Em)
        Mr = b * (A * (D1p + D1m) + B * (E1p - E1m))
        Mrr = b * b * (A * (D2p + D2m) + B * (E2p - E2m))
        Mt = b * (A * (D1p - D1m) + B * (E1p + E1m))
        Mrt = b * b * (A * (D2p - D2m) + B * (E2p + E2m))
        g_r = nu * (Mr - M / rr) / rr
        g_rr = nu * (Mrr - 2.0 * Mr / rr + 2.0 * M / rr ** 2) / rr
        g_rt = nu * (Mrt - Mt / rr) / rr
        w2[far] = (g_rr - g_r / rr) / rr ** 2
        grt[far] = g_rt / rr
        gr[far] = g_r / rr
        G[far] = nu * M / rr
    near = ~far
    if np.any(near):
        # M is odd in rho = b r: M = sum_m c_m rho^(2m+1), with
        # c_m = 2/(2m+1)! [A D^(2m+1)(w) + B g^(2m+1)(w)], w = t b, so
        # G = nu b sum_m c_m rho^(2m).
        rr, tt = r_b[near], t_b[near]
        w = tt * b
        rho2 = (rr * b) ** 2
        nmax = 2 * _SERIES_TERMS + 2
        Ds, gs = _deriv_ladder(w, nmax)
        s_w2 = np.zeros(rr.shape, dtype=np.complex128)
        s_gr = np.zeros(rr.shape, dtype=np.complex128)
        s_grt = np.zeros(rr.shape, dtype=np.complex128)
        s_g = 2.0 * (A * Ds[1] + B * gs[1])  # c_0
        pw = np.ones_like(rr)       # rho^(2m-2) for the gr/grt sums
        pw_prev = np.ones_like(rr)  # rho^(2m-4) for the w2 sum (m >= 2)
        for m in range(1, _SERIES_TERMS + 1):
            n = 2 * m + 1
            fac = 2.0 / math.factorial(n)
            cm = fac * (A * Ds[n] + B * gs[n])
            cmt = fac * (A * Ds[n + 1] + B * gs[n + 1]) * b
            s_gr = s_gr + 2 * m * cm * pw
            s_grt = s_grt + 2 * m * cmt * pw
            if m >= 2:
                s_w2 = s_w2 + 4 * m * (m - 1) * cm * pw_prev
            pw_prev = pw
            pw = pw * rho2
            s_g = s_g + cm * pw
        w2[near] = nu * b ** 5 * s_w2
        grt[near] = nu * b ** 3 * s_grt  # cmt already carries the b of dw/dt
        gr[near] = nu * b ** 3 * s_gr
        G[near] = nu * b * s_g
    return w2, grt, gr, G


def _field(points, t, spec: SaturatingFieldSpec, helicity=None):
    """The closed-form field of spec (helicity None) or the photon wave
    function F+- (helicity +-1) at `points` (shape (..., 3)), or on a
    centred even cube (Grid3D.centered), filled from the z-slabs that
    _field_slabs writes.  Only the requested helicity's blocks are
    evaluated; the blocks are real-linear in (A, B), so F- is F+ of
    conj C, conjugated in place."""
    if isinstance(points, Grid3D):
        out = np.empty(points.counts + (3,), dtype=np.complex128)
        for l, slab in enumerate(_field_slabs(points, t, spec, helicity)):
            out[:, :, l] = slab.transpose(1, 0, 2)
        return out
    points = np.asarray(points, dtype=float)
    x, y, z = points[..., 0], points[..., 1], points[..., 2]
    w2, grt, gr, _ = _scalar_blocks(np.sqrt((points ** 2).sum(axis=-1)), t, spec.a,
                                    *_coefficients(spec, helicity))
    out = np.empty(points.shape, dtype=np.complex128)
    out[..., 0] = x * z * w2 + 1j * y * grt
    out[..., 1] = y * z * w2 - 1j * x * grt
    out[..., 2] = -(x * x + y * y) * w2 - 2.0 * gr
    return _conjugated(out) if helicity == -1 else out


def _coefficients(spec: SaturatingFieldSpec, helicity=None):
    """(A, B) of the scalar whose derivative-matrix field is the closed-form
    field of spec (helicity None) or the photon wave function F+ of
    C = spec.c_plus (+1) or of conj C (-1, conjugated after: see
    _photon_wavefunction)."""
    if helicity is None:
        return (spec.c_plus + np.conj(spec.c_minus),
                1j * _SQPI / 2.0 * (spec.c_plus - np.conj(spec.c_minus)))
    C = spec.c_plus if helicity > 0 else np.conj(spec.c_plus)
    return C, 1j * _SQPI / 2.0 * C


def _conjugated(out):
    """out conjugated in place and returned; -0 -> +0, so for real C,
    F-(r, 0) and F+(r, 0) agree byte for byte."""
    np.conj(out, out=out)
    out += 0.0
    return out


def saturating_rs_field(points, t, spec: SaturatingFieldSpec):
    """RS vector of the closed-form minimal-uncertainty field at positions
    `points` (shape (..., 3)) and time t.

    `points` may also be a Grid3D.centered cube with an even node count
    (scalar t); the result then has shape counts + (3,), the same values as
    the meshgrid of its axes (to rounding), from one evaluation per
    distinct radius instead of one per node (see the module docstring).
    Any other Grid3D raises ValueError.

    Exactly equal (all t) to the Fourier synthesis of the amplitude pair
    spec.amplitudes(); at t = 0 with spec = SaturatingFieldSpec.simplest(C, a)
    it reduces to the Gaussian packet C exp(-r^2/2a^2) (y, -x, 0).
    """
    return _field(points, t, spec)


def photon_wavefunctions(points, t, spec: SaturatingFieldSpec):
    """Positive/negative-helicity photon wave functions (F+, F-) of the
    minimal-uncertainty packet, normalized by spec.c_plus.

    F+ is saturating_rs_field with C- = 0.  F- is its mirror image under
    conjugation: F-(C) = conj(F+(conj C)), i.e. the flipped (-i dy dt,
    +i dx dt) rows acting on the time-mirrored scalar.  So F+(r, 0) ==
    F-(r, 0) exactly, and for real spec.c_plus the two are complex
    conjugates at all times.

    `points` may also be a Grid3D.centered cube with an even node count, as
    in saturating_rs_field.
    """
    return _field(points, t, spec, +1), _field(points, t, spec, -1)


def write_field(path, grid, t, spec: SaturatingFieldSpec, helicity=None) -> None:
    """Write the closed-form field of spec (helicity None) or the photon
    wave function F+- (helicity +-1) at time t on grid, a Grid3D.centered
    cube with an even node count (else ValueError, before the file is
    opened), to the .rsf file at path: the bytes of rsfio.write_rsf, one
    z-slab at a time as it is made.  If anything raises once the file is
    open, the file is removed."""
    _write_slabs(path, "position", grid, _field_slabs(grid, t, spec, helicity))


def _field_slabs(grid, t, spec: SaturatingFieldSpec, helicity=None):
    """The closed-form field of spec (helicity None) or the photon wave
    function F+- (helicity +-1) on a centred even cube, as an iterator over
    its z-slabs in the .rsf payload's layout (_gathered_zslabs: one reused
    (ny, nx, 3) buffer).  The grid is checked (ValueError for any other
    grid) and the blocks evaluated once per distinct radius
    (kspace._radius_keys) here, before the first slab is asked for; each
    slab is made when it is asked for, so no array of the whole grid is
    held."""
    keys = _radius_keys(grid)
    if keys is None:
        raise ValueError("closed-form grid evaluation needs a centred cube with an "
                         "even node count (Grid3D.centered)")
    q, r = keys
    w2, grt, gr, _ = _scalar_blocks(r, float(t), spec.a, *_coefficients(spec, helicity))
    slabs = _gathered_zslabs(grid, q, (w2, 1j * grt, 2.0 * gr))
    return map(_conjugated, slabs) if helicity == -1 else slabs


def _gathered_zslabs(grid, q, tables):
    """Yield the z-slabs of [F0, F1, F2] (kspace._polynomial) on grid, in z
    order: one (ny, nx, 3) '<c16' array, reused for every slab, holding
    each node's three components with x fastest, as an .rsf payload stores
    them.  tables = (W, V, G) per radius; the node (i, j, l) takes
    table[q[i] + q[j] + q[l]], so a z-slab is gathered by one key plane,
    the same for (j, i) as for (i, j), shifted by q[l]."""
    x, y, z = grid.axes()
    y = y[:, None]  # a z-slab is (ny, nx)
    s = -(x * x + y * y)
    key = q[:, None] + q
    # slab-sized buffers are reused: allocating them per slab costs more
    # than the gather
    gathered = np.empty((3,) + key.shape, dtype=np.complex128)
    out = np.empty(s.shape + (3,), dtype="<c16")
    tmp = np.empty(s.shape, dtype=np.complex128)
    for l, zl in enumerate(z):
        # shifting a table by q[l] adds the z part of every key
        w, v, g = (np.take(tab[q[l]:], key, out=buf, mode="clip")
                   for tab, buf in zip(tables, gathered))
        terms = (x * zl, y, y * zl, x, s)
        for comp in range(3):
            _polynomial(comp, terms, w, v, g, out[..., comp], tmp)
        yield out


# ---------------------------------------------------------------------------
# explicit closed forms
# ---------------------------------------------------------------------------

def simplest_field(points, C=1.0, a=1.0):
    """The simplest saturating packet  C exp(-r^2 / 2a^2) (y, -x, 0).

    Electric for real C, magnetic for imaginary C, a mix otherwise.
    """
    if a <= 0:
        raise ValueError("simplest_field: a must be positive")
    points = np.asarray(points, dtype=float)
    r2 = (points ** 2).sum(axis=-1)
    env = C * np.exp(-r2 / (2.0 * a * a))
    out = np.zeros(points.shape, dtype=np.complex128)
    out[..., 0] = env * points[..., 1]
    out[..., 1] = -env * points[..., 0]
    return out
