"""Closed-form minimal-uncertainty fields.

The saturating amplitudes f+- = C+- k_perp exp(-a^2 k^2/2) admit closed-form
position-space fields.  Writing l+- = (r +- ct)/(sqrt(2) a) for the light-cone
variables, the per-helicity scalar generators are

    Fgen_{+-}(r,t) = 1/(2 a r) [ D(l+) + D(l-) -+ i sqrt(pi)/2 (e^{-l+^2} - e^{-l-^2}) ]

with D the Dawson function (scalar_generator below).  The full RS vector is
obtained by applying the derivative matrix

    [ dx dz + i dy dt / c ]
    [ dy dz - i dx dt / c ]   acting on the combined scalar,
    [ -dx^2 - dy^2        ]

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
3(n-1)^2/8 + 5/8 radii (6,049 at 128^3, for 2,097,152 nodes).
saturating_rs_field and photon_wavefunctions accept such a Grid3D in place
of points: the blocks are evaluated once per radius and gathered per node
by the integer key (m - 3)/8, one x-slab at a time, so the only full-size
array is the result.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .specfun import dawson
from .kspace import Grid3D, HelicityAmplitudePair, saturating_amplitudes

__all__ = [
    "SaturatingFieldSpec",
    "light_cone_vars",
    "simplest_field",
    "scalar_generator",
    "saturating_rs_field",
    "photon_wavefunctions",
    "saturating_field_t0",
    "rotate",
    "boost",
]

_SQPI = np.sqrt(np.pi)

# Below r = R_SWITCH * a the closed forms are replaced by Taylor series in r
# (the scalar is entire, so the series is machine-exact well past the switch,
# while the closed form suffers 1/r^3-amplified cancellation there once
# t != 0; 0.05 a keeps both branches at ~1e-10 agreement or better).
R_SWITCH = 0.05
_SERIES_TERMS = 10  # powers r^1 .. r^19 of the odd scalar series


@dataclass(frozen=True)
class SaturatingFieldSpec:
    """Scale a, helicity coefficients C+ / C-, and evaluation time t of a
    closed-form minimal-uncertainty field."""

    a: float
    c_plus: complex = 1.0
    c_minus: complex = 0.0
    t: float = 0.0

    def __post_init__(self):
        if not (self.a > 0):
            raise ValueError("SaturatingFieldSpec: a must be positive")
        if self.c_plus == 0 and self.c_minus == 0:
            raise ValueError("SaturatingFieldSpec: both coefficients zero")

    @classmethod
    def simplest(cls, C=1.0, a=1.0, t=0.0) -> "SaturatingFieldSpec":
        """Coefficients for the pure Gaussian packet:
        saturating_rs_field(r, 0, spec) == C exp(-r^2/2a^2) (y, -x, 0)."""
        s = a ** 5 / np.sqrt(2.0)
        return cls(a=a, c_plus=-C * s, c_minus=np.conj(C) * s, t=t)

    def amplitudes(self) -> HelicityAmplitudePair:
        """The exact k-space helicity pair of this field."""
        return saturating_amplitudes(self.c_plus, self.c_minus, self.a)


def light_cone_vars(r, t, a, c=1.0):
    """Light-cone variables l+- = (r +- ct)/(sqrt(2) a)."""
    b = 1.0 / (np.sqrt(2.0) * a)
    return (r + c * t) * b, (r - c * t) * b


# ---------------------------------------------------------------------------
# scalar generator and its derivative ladder
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


def scalar_generator(r, t, spec: SaturatingFieldSpec, helicity=+1, c=1.0):
    """Per-helicity closed-form scalar

        Fgen_{+-}(r,t) = 1/(2ar) [D(l+) + D(l-) -+ i sqrt(pi)/2 (e^{-l+^2}-e^{-l-^2})]

    with the upper sign for helicity=+1.  At r = 0 the removable singularity
    is evaluated by its series limit; at t = 0 the result is real.
    """
    if helicity not in (+1, -1):
        raise ValueError("scalar_generator: helicity must be +1 or -1")
    a = spec.a
    r = np.asarray(r, dtype=float)
    t = np.asarray(t, dtype=float)
    r_b, t_b = np.broadcast_arrays(r, t)
    b = 1.0 / (np.sqrt(2.0) * a)
    sgn = -1.0 if helicity == +1 else 1.0

    out = np.empty(r_b.shape, dtype=np.complex128)
    small = r_b < R_SWITCH * a
    if np.any(~small):
        rr, tt = r_b[~small], t_b[~small]
        lp = (rr + c * tt) * b
        lm = (rr - c * tt) * b
        G = dawson(lp) + dawson(lm)
        H = np.exp(-lp * lp) - np.exp(-lm * lm)
        out[~small] = (G + sgn * 1j * _SQPI / 2.0 * H) / (2.0 * a * rr)
    if np.any(small):
        # odd Taylor series of the bracket in rho = b r about r = 0
        rr, tt = r_b[small], t_b[small]
        w = c * tt * b
        rho = rr * b
        Ds, gs = _deriv_ladder(w, 2 * _SERIES_TERMS + 1)
        acc = np.zeros(rr.shape, dtype=np.complex128)
        for m in range(_SERIES_TERMS):
            n = 2 * m + 1
            cm = (Ds[n] + sgn * 1j * _SQPI / 2.0 * gs[n]) * (2.0 / math.factorial(n))
            acc = acc + cm * rho ** (2 * m)
        out[small] = acc * b / (2.0 * a)
    if out.ndim == 0 or r_b.ndim == 0:
        return complex(out)
    return out


# ---------------------------------------------------------------------------
# full RS field via the analytic derivative matrix
# ---------------------------------------------------------------------------

def _scalar_blocks(r, t, a, A, B, c=1.0):
    """Radial building blocks of the derivative-matrix field.

    For G(r,t) = nu M(r,t)/r with nu = 1/(a sqrt(2 pi)) and
    M = A [D(l+)+D(l-)] + B [e^{-l+^2} - e^{-l-^2}], returns

        (W/r^2, G_rt/r, G_r/r),  W = G_rr - G_r/r,

    all regular at r = 0 (series branch below R_SWITCH * a).  The field is

        Fx = x z (W/r^2) + (i/c) y (G_rt/r)
        Fy = y z (W/r^2) - (i/c) x (G_rt/r)
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

    far = r_b >= R_SWITCH * a
    if np.any(far):
        rr, tt = r_b[far], t_b[far]
        lp = (rr + c * tt) * b
        lm = (rr - c * tt) * b
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
        Mt = c * b * (A * (D1p - D1m) + B * (E1p + E1m))
        Mrt = c * b * b * (A * (D2p - D2m) + B * (E2p + E2m))
        g_r = nu * (Mr - M / rr) / rr
        g_rr = nu * (Mrr - 2.0 * Mr / rr + 2.0 * M / rr ** 2) / rr
        g_rt = nu * (Mrt - Mt / rr) / rr
        w2[far] = (g_rr - g_r / rr) / rr ** 2
        grt[far] = g_rt / rr
        gr[far] = g_r / rr
    near = ~far
    if np.any(near):
        # M is odd in rho = b r: M = sum_m c_m rho^(2m+1), with
        # c_m = 2/(2m+1)! [A D^(2m+1)(w) + B g^(2m+1)(w)], w = c t b.
        rr, tt = r_b[near], t_b[near]
        w = c * tt * b
        rho2 = (rr * b) ** 2
        nmax = 2 * _SERIES_TERMS + 2
        Ds, gs = _deriv_ladder(w, nmax)
        s_w2 = np.zeros(rr.shape, dtype=np.complex128)
        s_gr = np.zeros(rr.shape, dtype=np.complex128)
        s_grt = np.zeros(rr.shape, dtype=np.complex128)
        pw = np.ones_like(rr)       # rho^(2m-2) for the gr/grt sums
        pw_prev = np.ones_like(rr)  # rho^(2m-4) for the w2 sum (m >= 2)
        for m in range(1, _SERIES_TERMS + 1):
            n = 2 * m + 1
            fac = 2.0 / math.factorial(n)
            cm = fac * (A * Ds[n] + B * gs[n])
            cmt = fac * (A * Ds[n + 1] + B * gs[n + 1]) * (c * b)
            s_gr = s_gr + 2 * m * cm * pw
            s_grt = s_grt + 2 * m * cmt * pw
            if m >= 2:
                s_w2 = s_w2 + 4 * m * (m - 1) * cm * pw_prev
            pw_prev = pw
            pw = pw * rho2
        w2[near] = nu * b ** 5 * s_w2
        grt[near] = nu * b ** 3 * s_grt  # cmt already carries the c*b of dw/dt
        gr[near] = nu * b ** 3 * s_gr
    return w2, grt, gr


def _assemble(points, w2, grt, gr, flip_time_rows=False, c=1.0):
    x, y, z = points[..., 0], points[..., 1], points[..., 2]
    s = x * x + y * y
    sgn = -1.0 if flip_time_rows else 1.0
    out = np.empty(points.shape, dtype=np.complex128)
    out[..., 0] = x * z * w2 + sgn * 1j / c * y * grt
    out[..., 1] = y * z * w2 - sgn * 1j / c * x * grt
    out[..., 2] = -s * w2 - 2.0 * gr
    return out


def _radius_keys(grid):
    """Per-axis keys q and radius table r of a centred even cube: the node
    (i, j, k) lies at radius r[q[i] + q[j] + q[k]].

    Offsets are u d/2 with u = 2i - (n - 1) odd, so u^2 = 1 (mod 8) and
    r^2 = (d/2)^2 m, m = ux^2 + uy^2 + uz^2 = 8 (qx + qy + qz) + 3 with
    q = (u^2 - 1)/8.  The table holds every such radius up to the corner.
    """
    n, d = grid.counts[0], grid.spacings[0]
    o = -(n - 1) * d / 2.0
    if (n % 2 or grid.counts != (n, n, n)
            or not all(math.isclose(s, d, rel_tol=1e-12) for s in grid.spacings)
            or not all(math.isclose(v, o, rel_tol=1e-12) for v in grid.origins)):
        raise ValueError("closed-form grid evaluation needs a centred cube with an "
                         "even node count (Grid3D.centered)")
    u = 2 * np.arange(n) - (n - 1)
    q = (u * u - 1) // 8
    m = 8 * np.arange(3 * q[0] + 1) + 3
    return q, 0.5 * d * np.sqrt(m)


def _assemble_grid(grid, q, w2, grt, gr, flip_time_rows=False, c=1.0):
    """_assemble on the centred cube of _radius_keys, from per-radius block
    tables, one x-slab at a time."""
    sgn = -1.0 if flip_time_rows else 1.0
    it = sgn * 1j / c * grt  # the time rows' factor, applied per radius
    g2 = 2.0 * gr
    x, y, z = grid.axes()
    y = y[:, None]  # an x-slab is (ny, nz)
    yz = y * z
    key = q[:, None] + q  # radius key of the slab nodes, before the x offset
    out = np.empty(grid.counts + (3,), dtype=np.complex128)
    for i, xi in enumerate(x):
        # shifting the tables by q[i] adds the x part of every key
        w, t, g = w2[q[i]:][key], it[q[i]:][key], g2[q[i]:][key]
        out[i, ..., 0] = xi * z * w + y * t
        out[i, ..., 1] = yz * w - xi * t
        out[i, ..., 2] = -(xi * xi + y * y) * w - g
    return out


def _grid_field(grid, t, a, blocks, c=1.0):
    """Fields on a centred cube, one per (A, B, flip_time_rows) in blocks,
    from one radius table."""
    q, r = _radius_keys(grid)
    t = float(t)
    return [_assemble_grid(grid, q, *_scalar_blocks(r, t, a, A, B, c), flip, c)
            for A, B, flip in blocks]


def saturating_rs_field(points, t, spec: SaturatingFieldSpec, c=1.0):
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
    A = spec.c_plus + np.conj(spec.c_minus)
    B = 1j * _SQPI / 2.0 * (spec.c_plus - np.conj(spec.c_minus))
    if isinstance(points, Grid3D):
        return _grid_field(points, t, spec.a, [(A, B, False)], c)[0]
    points = np.asarray(points, dtype=float)
    r = np.sqrt((points ** 2).sum(axis=-1))
    w2, grt, gr = _scalar_blocks(r, t, spec.a, A, B, c)
    return _assemble(points, w2, grt, gr, flip_time_rows=False, c=c)


def photon_wavefunctions(points, t, spec: SaturatingFieldSpec, c=1.0):
    """Positive/negative-helicity photon wave functions (F+, F-) of the
    minimal-uncertainty packet, normalized by spec.c_plus.

    F+ is built with the (+i dy dt, -i dx dt) rows, F- with the flipped rows
    acting on the time-mirrored scalar, so F+(r, 0) == F-(r, 0) exactly and
    F+ equals saturating_rs_field with C- = 0.  For real spec.c_plus the two
    are complex conjugates at all times.

    `points` may also be a Grid3D.centered cube with an even node count, as
    in saturating_rs_field; both functions then share one radius table.
    """
    C = spec.c_plus
    a = spec.a
    if isinstance(points, Grid3D):
        B = 1j * _SQPI / 2.0 * C
        f_plus, f_minus = _grid_field(points, t, a, [(C, B, False), (C, -B, True)], c)
        return f_plus, f_minus
    points = np.asarray(points, dtype=float)
    r = np.sqrt((points ** 2).sum(axis=-1))
    w2p, grtp, grp = _scalar_blocks(r, t, a, C, 1j * _SQPI / 2.0 * C, c)
    f_plus = _assemble(points, w2p, grtp, grp, flip_time_rows=False, c=c)
    w2m, grtm, grm = _scalar_blocks(r, t, a, C, -1j * _SQPI / 2.0 * C, c)
    f_minus = _assemble(points, w2m, grtm, grm, flip_time_rows=True, c=c)
    return f_plus, f_minus


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


def saturating_field_t0(points, a=1.0):
    """Explicit t = 0 components of the minimal-uncertainty wave function
    (normalization: saturating_rs_field with C+ = 0, C- = sqrt(2 pi)).

    With l = r/(sqrt(2) a), s = x^2 + y^2 and the shared bracket
    Q = sqrt(2) a r (3a^2 + r^2) - 2 (2a^4 + (a^2+r^2)^2) D(l):

        Fx = [ sqrt(pi) y r^5 e^{-r^2/2a^2} - x z Q ] / (a^5 r^5)
        Fy = [ -sqrt(pi) x r^5 e^{-r^2/2a^2} - y z Q ] / (a^5 r^5)
        Fz = [ sqrt(2) a r (s (a^2+r^2) - 2 a^2 z^2)
               - 2 ((a^4+r^4) s - 2 a^2 z^2 (a^2+r^2)) D(l) ] / (a^5 r^5)

    Direct evaluation; cancellation degrades accuracy for r << 0.1 a (use
    saturating_rs_field, which switches to a series branch, in that regime).
    The 1/r^4 far tail of Fx, Fy, Fz reflects the conical k = 0 point of the
    single-helicity spectrum; all second moments remain finite.
    """
    points = np.asarray(points, dtype=float)
    x, y, z = points[..., 0], points[..., 1], points[..., 2]
    s = x * x + y * y
    r2 = s + z * z
    r = np.sqrt(r2)
    l = r / (np.sqrt(2.0) * a)
    Dl = dawson(l)
    gauss = np.exp(-r2 / (2.0 * a * a))
    pref = 1.0 / (a ** 5 * r ** 5)
    Q = np.sqrt(2.0) * a * r * (3.0 * a * a + r2) - 2.0 * (
        2.0 * a ** 4 + (a * a + r2) ** 2
    ) * Dl
    out = np.empty(points.shape, dtype=np.complex128)
    out[..., 0] = pref * (_SQPI * y * r ** 5 * gauss - x * z * Q)
    out[..., 1] = pref * (-_SQPI * x * r ** 5 * gauss - y * z * Q)
    out[..., 2] = pref * (
        np.sqrt(2.0) * a * r * (s * (a * a + r2) - 2.0 * a * a * z * z)
        - 2.0 * ((a ** 4 + r2 * r2) * s - 2.0 * a * a * z * z * (a * a + r2)) * Dl
    )
    return out


# ---------------------------------------------------------------------------
# rotations and boosts
# ---------------------------------------------------------------------------

def _check_unit_axis(n):
    n = np.asarray(n, dtype=float)
    if n.shape != (3,):
        raise ValueError("axis must be a 3-vector")
    if abs(np.linalg.norm(n) - 1.0) > 1e-12:
        raise ValueError("axis must be a unit vector")
    return n


def rotate(F, n, phi):
    """Rotate a (generally complex) 3-vector field about the unit axis n:
    F' = F cos(phi) + n x F sin(phi) + n (n.F) (1 - cos(phi))."""
    n = _check_unit_axis(n)
    F = np.asarray(F, dtype=np.complex128)
    nxF = np.cross(np.broadcast_to(n, F.shape), F)
    ndF = F @ n
    return F * np.cos(phi) + nxF * np.sin(phi) + np.multiply.outer(ndF, n) * (1.0 - np.cos(phi))


def boost(F, helicity, n, psi):
    """Lorentz boost of a helicity eigen-wavefunction along the unit vector n
    with rapidity psi:
    F' = F cosh(psi) -+ i n x F sinh(psi) + n (n.F) (1 - cosh(psi)),
    upper sign for helicity +1.  Does not preserve F*.F (energy density is
    not a Lorentz scalar)."""
    if helicity not in (+1, -1):
        raise ValueError("boost: helicity must be +1 or -1")
    n = _check_unit_axis(n)
    F = np.asarray(F, dtype=np.complex128)
    nxF = np.cross(np.broadcast_to(n, F.shape), F)
    ndF = F @ n
    sgn = -1.0 if helicity == +1 else 1.0
    return (
        F * np.cosh(psi)
        + sgn * 1j * nxF * np.sinh(psi)
        + np.multiply.outer(ndF, n) * (1.0 - np.cosh(psi))
    )
