"""Wavevector-space core: uniform grids, the helicity polarization frame
e(k), helicity amplitude pairs, field synthesis and the unitary position
synthesis of a sampled wavevector field.

Conventions (used everywhere in this package):

* c = 1 is fixed and no function takes one: for another c, pass c*t as
  the time.  Lengths in units of the user-supplied scale.
* Symmetric Fourier normalization (2 pi)^(-3/2) in both directions, with
  position synthesis F(r) = (2pi)^(-3/2) Int d3k Ftilde(k) e^{+i k.r}.
* Grids are built with half-sample offsets, so no node falls on the
  kz-axis (where e(k) is undefined) or on the coordinate origin.
* Helicity frame (positive-helicity unit vector, singular at k_perp = 0):

      e(k) = [ -kx kz + i ky k,  -ky kz - i kx k,  kx^2 + ky^2 ]
             / sqrt(2 k^2 (kx^2 + ky^2))

  satisfying e*.e = 1, e.k = 0, i k x e = k e, e(k) = e*(-k), e.e = 0.
* A field with helicity amplitudes (f+, f-) has the k-space form

      Ftilde(k,t) = e(k) f+(k) e^{-ikt} + e*(k) conj(f-)(-k) e^{+ikt}.

Synthesis takes its time only from the pair (HelicityAmplitudePair.t):
_synthesis_parts(amps, grid) builds the parts of Ftilde(k, amps.t) whose
densities() the grid reports take, and a trajectory builds one set of
parts per time.  Every admissible amplitude is f = k_perp g, and

    e(k) k_perp = [-kx kz + i ky k, -ky kz - i kx k, k_perp^2] / (sqrt2 k),

so the frame's 1/k_perp cancels: every component is a polynomial in
(kx, ky, kz) (_polynomial) times one of two functions, W = -(P + M) and
V = i k (P - M), with P = f+ e^{-ikt}/(sqrt2 k k_perp) and M =
conj(f-)(-k) e^{+ikt}/(sqrt2 k k_perp) (_time_tables).  There are two
routes, each with its own assembly, and _synthesis_parts picks one from
two properties of its input:

* Node route (_NodeParts), for any amplitude on any grid with no node on
  the kz-axis.  It keeps only the grid and the amplitudes, builds no
  polarization frame, and its slabs() form P, M, W and V one x-slab at a
  time and write that slab's per-node components, only those asked for.
  The package's amplitude classes give g = f / k_perp on the slab from
  per-axis factors (_slab_g): for a PolynomialGaussianAmplitude one
  (ny, L) (L, nz) product of per-axis powers and Gaussians, L the number
  of distinct kz powers, so no exponential, power or k_perp is formed per
  node; any other amplitude is evaluated by value() and divided by k_perp.
  synthesize_kspace always takes this route, each x-slab written straight
  into its field.
* Radial route (_RadialParts), taken for the densities when every
  non-None amplitude is a RadialProfileAmplitude and the grid is a
  centred cube with an even node count (the one _radius_keys accepts,
  e.g. Grid3D.centered(...).fourier_dual()).  With f+- = k_perp h+-(k^2),
  W and V are radial: they are tabulated once per distinct radius (6,049
  at 128^3) when the parts are built, with no per-node exponential.  No
  component is ever assembled: every term of a component has a definite
  parity in each axis, so both densities come from the positive octant,
  through one DCT-IV or DST-IV per axis of each real plane of a term
  (_RadialParts.octants).  F1 is the x <-> y mirror of F0, so only the
  three terms x z W, y V = i y T (of F0) and F2 are gathered from the
  tables and transformed, and of each only the real and imaginary planes
  whose part of its table is nonzero: for C- = -C+ real (the CLI's default
  packet) W and V are imaginary at every time, so each term is one plane.
  One octant density per space, D+, stands for the whole cube: every
  number a report takes of a density comes from D+ (_octant_stats), and
  no density of the whole cube is ever formed.

The closed-form position field of analytic_fields gathers its radial
blocks by the same radius keys and writes the same polynomial, one
z-slab at a time.  Amplitudes known only as samples on a wavevector grid
have no amplitude class: build Ftilde from them with the polarization
frame and report that FieldGrid (see the README).

Position synthesis of a sampled wavevector field (fourier_to_position)
transforms one component at a time: per-axis phases are applied one slab
at a time around an overwriting scipy FFT.

Every streamed grid report has one reducer, _stream_stats, and one input,
a slab stream: slabs(comps) gives a fresh iterator over the field's
per-node components (..., 3), one slab along the outer memory axis at a
time.  A FieldGrid gives its x-slabs (iter(values)), an .rsf file its
payload's z-slabs (rsfio._zslabs, in the file's order, x fastest), and the
node route the x-slabs it forms (_NodeParts.slabs).  The reducer takes the
three numbers a report takes of a density (_DensityStats: its boundary
ratio, second moment and norm) in one pass per space, position space
first, holding one buffer and one density (the output-side DFT phases are
unimodular and drop out).  The own-space pass adds each slab's
re^2 + im^2 of its components (_add_node_density, as FieldGrid.density
does).  The transform pass takes the field's six real planes, not its
three components (_transform_plan): a zero component is neither read nor
transformed, and the planes of components with one nonzero plane (a real
or an imaginary one) are transformed two to an FFT, as Z = p + i q, whose
density on the symmetric dual grid gives both, (|Z(k)|^2 + |Z(-k)|^2) / 2
(_add_pair_density).  Every other component, so every component of a
complex field, is transformed whole.  Which planes are zero is an exact
property of the input: a position field's own-space pass notes it, and a
wavevector field is probed slab by slab until no further nonzero plane
can change the plan (_nonzero_planes).  Each component or pair is phased
slab by slab into the buffer as it is read, so the default packet at t = 0
(Fz = 0, Fx and Fy real) takes one FFT instead of three, and the node
route forms only the components a sweep reads: four sweeps and the probe's
slabs per report, three without the k-space density.  Buffers follow the
stream's memory order, to the same bits in either.  Both routes' parts
have densities(source=...), which give those numbers per space, and the
spreading trajectory and uncertainty_product(pair, grid) take them from
there.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field as dc_field
import math
from typing import NamedTuple

import numpy as np
from scipy.fft import dct, dst, fftn, ifftn

from .errors import (
    AxisSingularityError,
    DegenerateFieldError,
    GridMismatchError,
)

__all__ = [
    "Grid3D",
    "FieldGrid",
    "polarization",
    "HelicityAmplitudePair",
    "RadialProfileAmplitude",
    "PolynomialGaussianAmplitude",
    "saturating_amplitudes",
    "synthesize_kspace",
    "fourier_to_position",
]

AXIS_RTOL = 1e-12  # k_perp <= AXIS_RTOL * k counts as "on the kz-axis"


# ---------------------------------------------------------------------------
# grids and sampled fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Grid3D:
    """Uniform Cartesian grid: per-axis counts, spacings and origins.

    Node coordinates along axis a are origin[a] + i * spacing[a].
    """

    counts: tuple[int, int, int]
    spacings: tuple[float, float, float]
    origins: tuple[float, float, float]

    def __post_init__(self):
        if not len(self.counts) == len(self.spacings) == len(self.origins) == 3:
            raise ValueError("Grid3D: need exactly 3 counts, spacings and origins")
        if any(n < 2 for n in self.counts):
            raise ValueError("Grid3D: need at least 2 points per axis")
        if not np.all(np.isfinite(self.spacings + self.origins)):
            raise ValueError("Grid3D: spacings and origins must be finite")
        if any(d <= 0 for d in self.spacings):
            raise ValueError("Grid3D: spacings must be positive")

    @classmethod
    def centered(cls, n, extent):
        """Cube grid of n^3 nodes covering [-extent/2, extent/2]^3 with
        half-sample offsets (no node at the origin or on the axes)."""
        d = extent / n
        o = -(n - 1) * d / 2.0
        return cls((n, n, n), (d, d, d), (o, o, o))

    def fourier_dual(self) -> "Grid3D":
        """The conjugate grid with dk = 2 pi / (n dr), half-sample offset."""
        counts = self.counts
        spac = tuple(2 * np.pi / (n * d) for n, d in zip(counts, self.spacings))
        orig = tuple(-(n - 1) * dk / 2.0 for n, dk in zip(counts, spac))
        return Grid3D(counts, spac, orig)

    def axes(self):
        """Per-axis coordinate arrays."""
        return tuple(
            self.origins[a] + self.spacings[a] * np.arange(self.counts[a])
            for a in range(3)
        )

    def meshes(self, sparse=True):
        x, y, z = self.axes()
        return np.meshgrid(x, y, z, indexing="ij", sparse=sparse)

    @property
    def cell_volume(self) -> float:
        dx, dy, dz = self.spacings
        return dx * dy * dz


@dataclass
class FieldGrid:
    """Complex 3-vector field sampled on a Grid3D.

    values has shape (nx, ny, nz, 3); space is "position" or "wavevector".
    """

    values: np.ndarray
    grid: Grid3D
    space: str

    def __post_init__(self):
        expected = self.grid.counts + (3,)
        if self.values.shape != expected:
            raise ValueError(
                f"FieldGrid: values shape {self.values.shape} != {expected}"
            )
        if self.space not in ("position", "wavevector"):
            raise ValueError("FieldGrid: space must be 'position' or 'wavevector'")
        self.values = np.ascontiguousarray(self.values, dtype=np.complex128)

    def density(self) -> np.ndarray:
        """Energy-like density F*.F at every node (real array), one x-slab
        at a time (_add_node_density): the density a report takes."""
        d = np.zeros(self.grid.counts)
        for di, fi in zip(d, self.values):
            _add_node_density(di, fi)
        return d

    def boundary_density_ratio(self) -> float:
        """max boundary-face density / max density (truncation diagnostic)."""
        return _boundary_ratio(self.density())


def _boundary_ratio(d) -> float:
    """max boundary-face value / max value of a density array."""
    peak = d.max()
    if peak == 0.0:
        return 0.0
    faces = [d[0], d[-1], d[:, 0], d[:, -1], d[:, :, 0], d[:, :, -1]]
    return max(f.max() for f in faces) / peak


def _grid_moment(d, axes, cell_volume):
    """(second moment about the origin, norm) of the density array d on the
    nodes of axes (x, y, z), by Riemann sums over its marginals."""
    x, y, z = axes
    dxy = d.sum(axis=2)
    n = dxy.sum() * cell_volume
    if not np.isfinite(n):
        # a NaN or inf sample is bad input, not a field of zero norm
        raise ValueError(f"variance: the field norm is not finite (N = {n})")
    if n <= 0.0:
        raise DegenerateFieldError("variance: zero field norm")
    m = (x ** 2 @ dxy.sum(axis=1) + y ** 2 @ dxy.sum(axis=0)
         + z ** 2 @ d.sum(axis=(0, 1))) * cell_volume
    return m / n, float(n)


class _DensityStats(NamedTuple):
    """What a report needs of one space's density: its boundary ratio (the
    truncation diagnostic), second moment about the origin and norm."""

    ratio: float
    moment: float
    norm: float


def _density_stats(d, grid) -> _DensityStats:
    """The stats of the density array d on grid; the norm is checked
    (_grid_moment) before the boundary ratio divides by the peak."""
    moment, norm = _grid_moment(d, grid.axes(), grid.cell_volume)
    return _DensityStats(_boundary_ratio(d), moment, norm)


def _octant_stats(dp, grid) -> _DensityStats:
    """The stats of a density on the centred even cube grid from its
    positive-octant values D+ alone, D- = D+^T (x <-> y) holding at the
    other reflections (_RadialParts.densities).

    Every face of the cube reflects one of the outer faces of D+ or D+^T,
    so the boundary ratio is exactly that of the whole cube.  Both D+ and
    D+^T fill four octants, and r^2 is x <-> y symmetric, so the moment is
    D+'s and the norm eight times D+'s."""
    h = dp.shape[0]
    peak = dp.max()
    ratio = 0.0 if peak == 0.0 else max(dp[-1].max(), dp[:, -1].max(), dp[:, :, -1].max()) / peak
    moment, norm = _grid_moment(dp, [ax[h:] for ax in grid.axes()], grid.cell_volume)
    return _DensityStats(ratio, moment, 8.0 * norm)


# ---------------------------------------------------------------------------
# polarization frame
# ---------------------------------------------------------------------------

def _check_off_axis(kp2, k2):
    """Raise AxisSingularityError if any wavevector, given by k_perp^2 and
    k^2, lies on the kz-axis (k_perp <= 1e-12 k), where both the frame and
    f / k_perp are a 0/0."""
    if np.any(kp2 <= (AXIS_RTOL ** 2) * k2):
        raise AxisSingularityError(
            "polarization: wavevector on the kz-axis (k_perp ~ 0)"
        )


def polarization(kx, ky, kz):
    """Normalized positive-helicity polarization vector e(k).

    Returns (ex, ey, ez) broadcast over the inputs.  Raises
    AxisSingularityError if any wavevector lies on the kz-axis
    (k_perp <= 1e-12 k), where the frame is a 0/0.
    """
    kx = np.asarray(kx, dtype=float)
    ky = np.asarray(ky, dtype=float)
    kz = np.asarray(kz, dtype=float)
    kp2 = kx * kx + ky * ky
    k2 = kp2 + kz * kz
    _check_off_axis(kp2, k2)
    k = np.sqrt(k2)
    den = np.sqrt(2.0 * k2 * kp2)
    ex = (-kx * kz + 1j * ky * k) / den
    ey = (-ky * kz - 1j * kx * k) / den
    ez = kp2 / den
    return ex, ey, ez


# ---------------------------------------------------------------------------
# helicity amplitudes
# ---------------------------------------------------------------------------
# An "analytic amplitude" is any object with:
#   value(kx, ky, kz) -> complex array
#   grad(kx, ky, kz)  -> (df/dkx, df/dky, df/dkz)
#   k_scale           -> decay scale (1/length of the Gaussian envelope),
#                        used to size quadrature domains.
# Amplitudes must vanish on the kz-axis (k_perp -> 0) for the position
# variance to exist.

class RadialProfileAmplitude:
    """f(k) = k_perp * h(k^2) with a user profile h and its derivatives.

    h, dh: callables of q = k^2, vectorized; k_scale > 0 sizes quadrature
    domains.
    """

    def __init__(self, h, dh, k_scale):
        self.h = h
        self.dh = dh
        self.k_scale = float(k_scale)
        if not (math.isfinite(self.k_scale) and self.k_scale > 0):
            raise ValueError(f"RadialProfileAmplitude: k_scale must be finite and positive, "
                             f"got {k_scale}")

    def value(self, kx, ky, kz):
        q = kx * kx + ky * ky + kz * kz
        return np.sqrt(kx * kx + ky * ky) * self.h(q)

    def _slab_g(self, kx, ky, kz):
        """g = f / k_perp = h(k^2) on an x-slab (_NodeParts.slabs)."""
        return self.h(kx * kx + ky * ky + kz * kz)

    def grad(self, kx, ky, kz):
        q = kx * kx + ky * ky + kz * kz
        kp = np.sqrt(kx * kx + ky * ky)
        h = self.h(q)
        dh = self.dh(q)
        gx = kx / kp * h + 2.0 * kx * kp * dh
        gy = ky / kp * h + 2.0 * ky * kp * dh
        gz = 2.0 * kz * kp * dh
        return gx, gy, gz


class PolynomialGaussianAmplitude:
    """f(k) = k_perp * P(kx,ky,kz) * exp(-alpha k^2), P a polynomial.

    terms: dict {(i,j,l): complex coefficient} for monomials kx^i ky^j kz^l,
    with i, j, l non-negative integers and every coefficient finite; alpha
    finite and positive (any check failing raises ValueError).  Gradients
    are exact (product rule on the monomial expansion).
    """

    def __init__(self, terms, alpha):
        self.terms = dict(terms)
        self.alpha = float(alpha)
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError("PolynomialGaussianAmplitude: alpha must be finite and "
                             f"positive, got {alpha}")
        for e, c in self.terms.items():
            if not (isinstance(e, tuple) and len(e) == 3
                    and all(isinstance(n, (int, np.integer)) and n >= 0 for n in e)):
                raise ValueError("PolynomialGaussianAmplitude: exponents must be three "
                                 f"non-negative integers, got {e}")
            if not cmath.isfinite(c):
                raise ValueError("PolynomialGaussianAmplitude: coefficients must be "
                                 f"finite, got {c} for the monomial {e}")
        self.k_scale = 1.0 / np.sqrt(2.0 * self.alpha)

    def _poly(self, kx, ky, kz, axis=None):
        """P at the nodes, or its partial derivative in k_axis."""
        out = 0.0
        for e, c in self.terms.items():
            if axis is not None:
                c = c * e[axis]
                e = tuple(n - (b == axis) for b, n in enumerate(e))
            if c:
                out = out + c * kx ** e[0] * ky ** e[1] * kz ** e[2]
        return out

    def value(self, kx, ky, kz):
        kp2 = kx * kx + ky * ky
        kpE = np.sqrt(kp2) * np.exp(-self.alpha * (kp2 + kz * kz))
        return np.asarray(kpE * self._poly(kx, ky, kz), dtype=np.complex128)

    def _slab_g(self, kx, ky, kz):
        """g = f / k_perp = P(k) e^{-alpha k^2} on an x-slab (_NodeParts.slabs):
        the scalar kx, the column ky (ny, 1) and the row kz (1, nz).

        Both factors are separable, so g is one (ny, L) (L, nz) product, L
        the number of distinct kz powers l: column l of A holds the
        monomials of that power, sum c kx^i ky^j e^{-alpha (kx^2 + ky^2)},
        and row l of B is kz^l e^{-alpha kz^2}.  No exponential, power or
        k_perp is formed per node."""
        a = self.alpha
        x, y, z = float(np.ravel(kx)[0]), np.ravel(ky), np.ravel(kz)
        ey = np.exp(-a * y * y) * math.exp(-a * x * x)
        ez = np.exp(-a * z * z)
        powers = sorted({e[2] for e, c in self.terms.items() if c})
        A = np.zeros((y.size, len(powers)), dtype=np.complex128)
        for (i, j, l), c in self.terms.items():
            if c:
                A[:, powers.index(l)] += (c * x ** i) * (y ** j * ey)
        B = np.array([z ** l * ez for l in powers]).reshape(len(powers), z.size)
        return A @ B

    def grad(self, kx, ky, kz):
        # d/dk_a (k_perp e^{-alpha k^2}) is k_a w_a k_perp e^{-alpha k^2},
        # with w_a = 1/k_perp^2 - 2 alpha for a = x, y and -2 alpha for a = z
        kp2 = kx * kx + ky * ky
        kpE = np.sqrt(kp2) * np.exp(-self.alpha * (kp2 + kz * kz))
        P = self._poly(kx, ky, kz)
        u = 1.0 / kp2 - 2.0 * self.alpha
        weights = ((kx, u), (ky, u), (kz, -2.0 * self.alpha))
        return tuple(np.asarray(kpE * (self._poly(kx, ky, kz, a) + k * w * P),
                                dtype=np.complex128) for a, (k, w) in enumerate(weights))


class _Dilated:
    """f(lambda k) of a duck-typed amplitude (both amplitude classes dilate
    in their own family): maps Dk^2 -> Dk^2/lambda^2, Dr^2 -> lambda^2 Dr^2."""

    def __init__(self, base, lam):
        self.base = base
        self.lam = float(lam)
        self.k_scale = base.k_scale / self.lam

    def value(self, kx, ky, kz):
        s = self.lam
        return self.base.value(s * kx, s * ky, s * kz)

    def grad(self, kx, ky, kz):
        s = self.lam
        gx, gy, gz = self.base.grad(s * kx, s * ky, s * kz)
        return s * gx, s * gy, s * gz


def _dilated(amp, lam):
    if amp is None:
        return None
    if isinstance(amp, PolynomialGaussianAmplitude):
        # f(lambda k) = lambda k_perp P(lambda k) e^{-alpha lambda^2 k^2}
        return PolynomialGaussianAmplitude(
            {e: c * lam ** (sum(e) + 1) for e, c in amp.terms.items()}, amp.alpha * lam * lam)
    if isinstance(amp, RadialProfileAmplitude):
        # f(lambda k) = k_perp lambda h(lambda^2 k^2)
        h, dh, s = amp.h, amp.dh, lam * lam
        return RadialProfileAmplitude(lambda q: lam * h(s * q), lambda q: lam * s * dh(s * q),
                                      amp.k_scale / lam)
    return _Dilated(amp, lam)


@dataclass
class HelicityAmplitudePair:
    """The pair f+(k), f-(k) of complex helicity amplitudes at time t, the
    field's amplitudes being f+- e^{-ikt} (t = 0 unless set by evolved or
    dilated).  Either entry may be None (identically zero)."""

    f_plus: object = None
    f_minus: object = None
    t: float = dc_field(default=0.0, init=False)

    def __post_init__(self):
        if self.f_plus is None and self.f_minus is None:
            raise DegenerateFieldError("HelicityAmplitudePair: both amplitudes zero")

    @property
    def k_scale(self) -> float:
        scales = [a.k_scale for a in (self.f_plus, self.f_minus) if a is not None]
        return min(scales)

    def _at(self, op, value, f_plus, f_minus, t) -> "HelicityAmplitudePair":
        """The pair (f_plus, f_minus) at time t, made from self by op(value);
        ValueError, naming both, if t is not finite."""
        if not math.isfinite(t):
            raise ValueError(f"{op}: the pair's time must be finite, got {t} "
                             f"for {op}({value}) of a pair at t = {self.t}")
        pair = HelicityAmplitudePair(f_plus, f_minus)
        pair.t = t
        return pair

    def evolved(self, t) -> "HelicityAmplitudePair":
        """The same amplitudes at time self.t + t; ValueError unless that
        sum is finite."""
        return self._at("evolved", t, self.f_plus, self.f_minus, self.t + float(t))

    def dilated(self, lam) -> "HelicityAmplitudePair":
        """The pair f(lam k), for a finite lam > 0 (else ValueError); either
        amplitude class stays in its family, so a PolynomialGaussianAmplitude
        keeps its closed form and a RadialProfileAmplitude the radial route;
        f(lam k) e^{-i lam k t} is at time lam t (ValueError unless finite)."""
        if not (math.isfinite(lam) and lam > 0):
            raise ValueError(f"dilated: lambda must be finite and positive, got {lam}")
        return self._at("dilated", lam, _dilated(self.f_plus, lam),
                        _dilated(self.f_minus, lam), lam * self.t)


def saturating_amplitudes(c_plus, c_minus, a) -> HelicityAmplitudePair:
    """Minimal-uncertainty amplitudes f+- = C+- k_perp exp(-a^2 k^2 / 2)."""
    if not (math.isfinite(a) and a > 0):
        raise ValueError(f"saturating_amplitudes: a must be finite and positive, got {a}")

    def make(C):
        if C == 0:
            return None
        return RadialProfileAmplitude(
            h=lambda q, C=C: C * np.exp(-a * a * q / 2.0),
            dh=lambda q, C=C: -C * a * a / 2.0 * np.exp(-a * a * q / 2.0),
            k_scale=1.0 / a,
        )

    return HelicityAmplitudePair(make(c_plus), make(c_minus))


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------

def _time_tables(plus, minus, k, t, out, with_v=True):
    """W = -(P + M) and V = i k (P - M) (None unless with_v), with
    P = plus e^{-ikt} and M = minus e^{+ikt} (a None table is zero), per
    radius on the radial route and per x-slab on the node route, written
    into out[0] and out[1] of four complex arrays of k's shape (out[2:] is
    scratch)."""
    w, v, ph, mb = out
    p = 0.0 if plus is None else plus
    m = 0.0 if minus is None else minus
    # at t = 0 both phases are exactly 1 and multiply through exactly
    if t != 0.0:
        np.exp(np.multiply(k, -1j * t, out=ph), out=ph)
        if minus is not None:
            m = np.multiply(minus, np.conj(ph, out=mb), out=mb)
        if plus is not None:
            p = np.multiply(plus, ph, out=ph)
    np.negative(np.add(p, m, out=w), out=w)
    if not with_v:
        return w, None
    np.multiply(np.subtract(p, m, out=v), k, out=v)
    return w, np.multiply(v, 1j, out=v)


@dataclass(frozen=True, eq=False)
class _NodeParts:
    """The synthesis parts of Ftilde(k, amps.t) on a wavevector grid: the
    node route, for any amplitude on any grid with no node on the kz-axis
    (else AxisSingularityError, raised when the parts are built: the one
    check that needs no amplitude value).

    With f = k_perp g the frame's 1/k_perp cancels (see the module
    docstring), so Ftilde is the polynomial of _polynomial with per-node
    tables plus = g+(k) / (sqrt2 k) and minus = conj(g-)(-k) / (sqrt2 k)
    (None for a zero amplitude) and k = |k|.  Only the grid and the
    amplitudes are kept: slabs() forms the tables of each x-slab, then W
    and V at self.amps.t (_time_tables), and writes the slab's
    components, so no table of the whole grid and no polarization frame is
    ever held.  An amplitude with a _slab_g method (both amplitude
    classes) gives g on the slab from the scalar kx, the column ky and the
    row kz, from per-axis factors; any other gives f by value() on the
    sparse meshes, divided by sqrt2 k k_perp.  A sweep evaluates the
    amplitudes once per slab.
    """

    grid: Grid3D
    amps: HelicityAmplitudePair

    def __post_init__(self):
        KX, KY, KZ = self.grid.meshes(sparse=True)
        kp2 = KX * KX + KY * KY
        # rounding is monotone, so the largest kz^2 decides for every node
        _check_off_axis(kp2, kp2 + (KZ * KZ).max())

    def slabs(self, comps=(0, 1, 2), out=None):
        """Yield Ftilde(k, amps.t) one x-slab at a time, as its per-node
        components (ny, nz, 3), of which only the components comps are
        written: into out[i] (default: one reused slab, so consume each
        before taking the next, whose components are contiguous planes).
        Each slab's tables are formed once, and V only if comps take it."""
        KX, KY, KZ = self.grid.meshes(sparse=True)
        ky, kz = KY[0], KZ[0]  # an x-slab is (ny, nz)
        kyz = ky * kz
        if out is None:
            buf = np.empty((3,) + kyz.shape, dtype=np.complex128).transpose(1, 2, 0)
        tables = np.empty((4,) + kyz.shape, dtype=np.complex128)
        tmp = np.empty(kyz.shape, dtype=np.complex128)

        def table(amp, kx, k, rk, negk):
            if amp is None:
                return None
            slab_g = getattr(amp, "_slab_g", None)
            if slab_g is not None:  # g = f / k_perp from per-axis factors
                g = np.conj(slab_g(-kx, -ky, -kz)) if negk else slab_g(kx, ky, kz)
                return g * rk
            f = np.conj(amp.value(-kx, -ky, -kz)) if negk else amp.value(kx, ky, kz)
            # sqrt2 k_perp, constant along z; k_perp(-k) = k_perp(k)
            return f / np.sqrt(2.0 * (kx * kx + ky * ky)) / k

        for i, kx in enumerate(KX):
            # the slab's tables, W and V: nothing full-size
            kp2 = kx * kx + ky * ky
            k = np.sqrt(kp2 + kz * kz)
            rk = 1.0 / (math.sqrt(2.0) * k)
            w, v = _time_tables(table(self.amps.f_plus, kx, k, rk, False),
                                table(self.amps.f_minus, kx, k, rk, True),
                                k, self.amps.t, tables, with_v=comps != (2,))
            terms = (kx * kz, ky, kyz, kx, -kp2)
            slab = buf if out is None else out[i]
            for comp in comps:
                _polynomial(comp, terms, w, v, None, slab[..., comp], tmp)
            yield slab

    def densities(self, *, source=True):
        """(k-space stats or None if not source, position stats) of
        Ftilde(k, amps.t) (_DensityStats), from its slabs (_stream_stats)."""
        return _stream_stats(self.slabs, self.grid, "wavevector", source)


def _radius_keys(grid):
    """Per-axis keys q and radius table r of a centred even cube: the node
    (i, j, k) lies at radius r[q[i] + q[j] + q[k]].  None for any other
    grid (not cubic, unequal spacings, not centred, odd node count).

    Offsets are u d/2 with u = 2i - (n - 1) odd, so u^2 = 1 (mod 8) and
    r^2 = (d/2)^2 m, m = ux^2 + uy^2 + uz^2 = 8 (qx + qy + qz) + 3 with
    q = (u^2 - 1)/8.  The table holds every such radius up to the corner,
    at most 3(n-1)^2/8 + 5/8 of them.
    """
    n, d = grid.counts[0], grid.spacings[0]
    o = -(n - 1) * d / 2.0
    if (n % 2 or grid.counts != (n, n, n)
            or not all(math.isclose(s, d, rel_tol=1e-12) for s in grid.spacings)
            or not all(math.isclose(v, o, rel_tol=1e-12) for v in grid.origins)):
        return None
    u = 2 * np.arange(n) - (n - 1)
    q = (u * u - 1) // 8
    m = 8 * np.arange(3 * q[0] + 1) + 3
    return q, 0.5 * d * np.sqrt(m)


def _polynomial(comp, terms, w, v, g, out, tmp):
    """Write component comp of

        F0 = (x z) W + y V,  F1 = (y z) W - x V,  F2 = -(x^2 + y^2) W - G

    on one slab into out (tmp: complex scratch of its shape), from
    terms = (x z, y, y z, x, -(x^2 + y^2)) broadcast to the slab and the
    slab's W, V and G (None: no G term).  The node route's x-slabs
    (_NodeParts.slabs) and the closed-form field's z-slabs
    (analytic_fields._gathered_zslabs) are written here."""
    xz, y, yz, x, s = terms
    if comp == 0:
        np.multiply(xz, w, out=out)
        out += np.multiply(y, v, out=tmp)
    elif comp == 1:
        np.multiply(yz, w, out=out)
        out -= np.multiply(x, v, out=tmp)
    else:
        np.multiply(s, w, out=out)
        if g is not None:
            out -= g


def _gather_octant(tab, q, key, poly, buf):
    """The term tab[q[i] + q[j] + q[l]] poly[i, j, l] on the positive
    octant (q = the upper half of the radius keys, key[j, l] =
    2 (q[j] + q[l]); poly broadcasts to an octant) as (planes, nonzero):
    those of its real and imaginary planes whose part of tab is nonzero,
    gathered into buf[:len(planes)], and which of the two they are (None
    if tab is zero).

    One x-slab at a time: each slab is taken from the real view of tab (re
    and im interleaved) straight into its plane and multiplied by poly's
    x-slab, copied into one slab buffer, so that no product has a strided
    or broadcast operand (numpy would allocate an iterator buffer for
    it)."""
    nonzero = [bool(np.any(part)) for part in (tab.real, tab.imag)]
    if not any(nonzero):
        return None
    planes = buf[:sum(nonzero)]
    parts = [p for p, nz in enumerate(nonzero) if nz]  # 0: re, 1: im
    flat = tab.view(np.float64)
    poly = np.broadcast_to(poly, planes.shape[1:])
    pslab = np.empty(key.shape)
    for i, pi in enumerate(poly):
        np.copyto(pslab, pi)
        for p, plane in zip(parts, planes):
            np.take(flat[2 * q[i] + p:], key, out=plane[i], mode="clip")
            plane[i] *= pslab
    return planes, nonzero


def _add_octant_densities(d, terms, rotate, mirror):
    """For a pair of terms (a, b), each held as its (re, im) planes (None
    for a zero plane, _term_planes), d += |a + b|^2, with b first
    multiplied by -i if rotate, and, if mirror, also d += (|a - b|^2)^T
    (axes 0 and 1 swapped); a single term is a with b = 0.  A zero plane
    is neither squared nor added: 0 +- x is exactly x.

    One x-slab of d at a time, in three reused slab buffers: the term of
    d's own x-slab i is x-slab i of the planes, and its mirrored term y-slab
    i, copied into the buffers, so that no ufunc has a strided operand
    (numpy would allocate an iterator buffer for it).  d starts the pair
    at zero, so the order of the two adds does not change a bit."""
    planes = (*terms[0], *(terms[1] if len(terms) > 1 else (None, None)))
    # (a's plane, b's plane, b's sign) of the real and imaginary parts of
    # a + b, or of a + (-i b) = (ar + bi) + i (ai - br) if rotate
    parts = ((0, 3, 1), (1, 2, -1)) if rotate else ((0, 2, 1), (1, 3, 1))
    s, u, c = np.empty((3,) + d.shape[1:])
    ops = {1: np.add, -1: np.subtract}
    for i, di in enumerate(d):
        for sign in (1, -1)[:1 + mirror]:
            acc = None
            for (ja, jb, bsign), out in zip(parts, (s, u)):
                x = _octant_slab(planes[ja], i, sign < 0, out)
                y = _octant_slab(planes[jb], i, sign < 0, c)
                if x is None and y is None:
                    continue
                if x is None or y is None:
                    np.square(y if x is None else x, out=out)
                else:
                    np.square(ops[sign * bsign](x, y, out=out), out=out)
                acc = out if acc is None else np.add(acc, out, out=acc)
            if acc is not None:
                di += acc


def _octant_slab(plane, i, mirrored, out):
    """x-slab i of an octant plane, or if mirrored its y-slab i copied into
    out (None for a zero plane)."""
    if plane is None or not mirrored:
        return None if plane is None else plane[i]
    np.copyto(out, plane[:, i])
    return out


def _octant_densities(terms, q, source):
    """The octant density D+ of k space (None if not source) and, unscaled,
    of position space, from the terms (table, polynomial, odd axes) of
    F0 = A0 + B0 and of F2, a pair at a time: each term's nonzero planes
    are gathered, its k-space density added, the planes transformed (a
    DCT-IV per even axis, a DST-IV per odd one) and its position-space
    density added.

    A term is held as its real and imaginary planes, and a plane whose part
    of the radial table is zero is never gathered, transformed or added:
    for C- = -C+ real, W and V are imaginary at every time (and W is zero
    at t = 0), so every term of the CLI's default packet is one plane.

    F1 = A1 + B1 needs no terms of its own: A1 = A0^T and B1 = -B0^T
    (x <-> y) in both spaces, so it adds (|A0 - B0|^2)^T to D+ (and
    (|A0 + B0|^2)^T to D-).  F2 is x <-> y symmetric, so D- = D+^T is
    never formed."""
    shape = (q.size,) * 3
    key = 2 * (q[:, None] + q)
    src = np.zeros(shape) if source else None
    dual = np.zeros(shape)
    # a term's planes are contiguous real arrays: a type-4 transform along
    # a plane's axis is twice as fast as along a complex array's
    bufs = [np.empty((2,) + shape) for _ in range(2)]
    for pair, mirror in ((terms[:2], True), (terms[2:], False)):
        held = [(_gather_octant(tab, q, key, poly, buf), odd)
                for (tab, poly, odd), buf in zip(pair, bufs)]
        held = [(*term, odd) for term, odd in held if term is not None]
        if not held:
            continue
        if source:
            _add_octant_densities(src, [_term_planes(p, nz) for p, nz, _ in held],
                                  rotate=False, mirror=mirror)
        for j, (planes, nonzero, odd) in enumerate(held):
            for axis in range(3):
                dcst = dst if axis in odd else dct
                planes = dcst(planes, type=4, axis=axis + 1, overwrite_x=True, workers=-1)
            held[j] = (planes, nonzero, odd)
        # A gains i^2 and B i^1 from their odd axes: the transformed pair
        # is -(A - i B)
        _add_octant_densities(dual, [_term_planes(p, nz) for p, nz, _ in held],
                              rotate=True, mirror=mirror)
    return src, dual


def _term_planes(planes, nonzero):
    """(re, im) of a term held as its nonzero planes (_gather_octant),
    None for a zero plane."""
    it = iter(planes)
    return tuple(next(it) if nz else None for nz in nonzero)


@dataclass(frozen=True, eq=False)
class _RadialParts:
    """The synthesis parts of Ftilde(k, amps.t) for radial amplitudes
    f+- = k_perp h+-(k^2) on a centred even cube: the radial route.

    q are the per-axis radius keys of _radius_keys, and w and v the radial
    tables W = -(P + M) and V = i k (P - M) on its table of distinct radii
    k, with P = h+(k^2) e^{-ikt}/(sqrt2 k), M = conj(h-(k^2)) e^{+ikt}/
    (sqrt2 k) and t = amps.t (_time_tables), formed once by
    _synthesis_parts.  They define

        Ftilde = [kx kz W + ky V, ky kz W - kx V, -k_perp^2 W],

    but no component is ever built: octants() reduces that field to the
    positive-octant values of its two densities, and densities() takes
    the reports' stats from those, as _NodeParts.densities does.
    """

    grid: Grid3D
    q: np.ndarray
    w: np.ndarray
    v: np.ndarray

    def octants(self, *, source=True):
        """The positive-octant values D+ of the k-space density (None if
        not source) and of the position density of Ftilde(k, amps.t); the
        density at the reflection (sx, sy, sz) of an octant node is D+
        there if sx sy sz = 1 and D- = D+^T (x <-> y) otherwise.

        Each component is a sum of terms of definite parity per axis,

            F0 = x z W + i y T,  F1 = y z W - i x T,  F2 = -(x^2 + y^2) W,

        so on the octant k = (p + 1/2) dk, p < n/2, and its image
        r = (m + 1/2) dr the unitary transform of a term is a DCT-IV per
        even axis and i DST-IV per odd axis (scipy's type-4 transforms
        carry the two-sided sum).  Reflecting an octant node by
        (sx, sy, sz) multiplies the two terms of F0 (and of F1) by
        signs whose ratio is sx sy sz, so each density takes one of two
        octant values, D+ or D-, there: the pairs' terms added or
        subtracted, squared, plus |F2|^2.  The radius key is symmetric in
        the axes, so F1 is F0 mirrored in x <-> y with its T term negated
        and D- = D+^T: only A0 = x z W, B0 = i y T and F2 are gathered and
        transformed (_octant_densities), each as its real and imaginary
        planes, and only the planes whose part of the radius table is
        nonzero.  The terms are gathered a pair at a time, so at most two
        complex octants (four real planes) and one real octant density per
        space are held, never a component.
        """
        h = self.grid.counts[0] // 2
        q = self.q[h:]
        x, y, z = (ax[h:] for ax in self.grid.axes())
        x, y = x[:, None, None], y[:, None]
        # (table, polynomial, odd axes) of A0, B0 and F2
        terms = [(self.w, x * z, (0, 2)), (self.v, y, (1,)),
                 (self.w, -(x * x + y * y), ())]
        src, dual = _octant_densities(terms, q, source)
        dual *= _dft_scale(self.grid, -1) ** 2
        return src, dual

    def densities(self, *, source=True):
        """(k-space stats or None if not source, position stats) of
        Ftilde(k, amps.t) (_DensityStats), reduced from the octants alone
        (_octant_stats): no density of the whole cube is formed."""
        src, dual = self.octants(source=source)
        # position space first, as in _stream_stats
        r = _octant_stats(dual, self.grid.fourier_dual())
        return None if src is None else _octant_stats(src, self.grid), r


def _synthesis_parts(amps: HelicityAmplitudePair, grid: Grid3D):
    """The synthesis parts of Ftilde(k, amps.t) on grid whose densities()
    the grid reports take: the radial route when every non-None amplitude
    is a RadialProfileAmplitude and the grid is a centred even cube, with
    its radial tables formed here, and the node route otherwise."""
    present = [a for a in (amps.f_plus, amps.f_minus) if a is not None]
    keys = _radius_keys(grid)
    if keys is None or not all(isinstance(a, RadialProfileAmplitude) for a in present):
        return _NodeParts(grid, amps)
    q, k = keys
    den = np.sqrt(2.0) * k
    plus = None if amps.f_plus is None else amps.f_plus.h(k * k) / den
    minus = None if amps.f_minus is None else np.conj(amps.f_minus.h(k * k)) / den
    # four separate tables, so that only W and V outlive this call
    tables = [np.empty(k.shape, dtype=np.complex128) for _ in range(4)]
    return _RadialParts(grid, q, *_time_tables(plus, minus, k, amps.t, tables))


def synthesize_kspace(amps: HelicityAmplitudePair, grid: Grid3D) -> FieldGrid:
    """Sample Ftilde(k,t) = e(k) f+(k) e^{-ikt} + e*(k) conj(f-)(-k) e^{+ikt},
    t = amps.t, on a wavevector grid, through the node route (_NodeParts)
    for any amplitudes: each x-slab's tables are formed once and its three
    components written into the field."""
    vals = np.empty(grid.counts + (3,), dtype=np.complex128)
    for _ in _NodeParts(grid, amps).slabs(out=vals):
        pass  # each x-slab is written into vals[i]
    return FieldGrid(vals, grid, "wavevector")


def _dft_phases(src: Grid3D, dst: Grid3D, sign):
    """Per-axis DFT phase corrections for grids with arbitrary origins.

    For F(r_m) = C sum_n G(k_n) e^{+i k_n . r_m} (sign=+1):
      e^{i k_n r_m} = e^{i k0 r_m} * e^{i n dk r0} * e^{2 pi i n m / N}
    """
    pins, pouts = [], []
    for a in range(3):
        n = np.arange(src.counts[a])
        pins.append(np.exp(sign * 1j * n * src.spacings[a] * dst.origins[a]))
        m_coord = dst.origins[a] + dst.spacings[a] * np.arange(dst.counts[a])
        pouts.append(np.exp(sign * 1j * src.origins[a] * m_coord))
    return pins, pouts


def _dft_scale(src: Grid3D, sign):
    """(2pi)^(-3/2) times the cell volume of src (and times the node count
    for the inverse FFT, which divides by it)."""
    scale = (2 * np.pi) ** -1.5 * src.cell_volume
    return scale * np.prod(src.counts) if sign > 0 else scale


def _phase_planes(p, order="C"):
    """The products p[0][i] p[1][j] p[2][l] of each slab along the outer
    memory axis of an (nx, ny, nz) array in `order`, yielded into one
    reused plane: x-slab i's (y, z) plane yz p[0][i] for "C", z-slab l's
    (y, x) plane yz[:, l] p[0] for "F", with yz = p[1][j] p[2][l], so both
    orders give the same products."""
    yz = p[1][:, None] * p[2]
    if order == "C":
        plane = np.empty_like(yz)
        for px in p[0]:
            yield np.multiply(yz, px, out=plane)
    else:
        plane = np.empty((yz.shape[0], p[0].size), dtype=yz.dtype)
        for pyz in yz.T:
            yield np.multiply(pyz[:, None], p[0], out=plane)


def _phased(a, p, out=None):
    """a[i, j, l] p[0][i] p[1][j] p[2][l], written into out (which may be
    a itself) or a new array in one pass, one x-slab at a time."""
    if out is None:
        out = np.empty(a.shape, dtype=np.complex128)
    for ai, oi, plane in zip(a, out, _phase_planes(p)):
        np.multiply(ai, plane, out=oi)
    return out


def _fft(x, sign):
    """Inverse FFT (sign > 0) or FFT (sign < 0) of x, which it may
    overwrite."""
    fft = ifftn if sign > 0 else fftn
    if x.flags.f_contiguous:
        # its C-contiguous transpose, x axis still first: pocketfft walks
        # the lines in memory order, twice as fast, to the same bits
        return fft(x.T, axes=(2, 1, 0), workers=-1, overwrite_x=True).T
    return fft(x, workers=-1, overwrite_x=True)


def fourier_to_position(fieldK: FieldGrid) -> FieldGrid:
    """Unitary synthesis F(r) = (2pi)^(-3/2) Int d3k Ftilde(k) e^{+i k.r},
    discretized exactly on the dual grid (round trip is the identity), one
    component at a time."""
    if fieldK.space != "wavevector":
        raise GridMismatchError("fourier_to_position: field is not in k-space")
    src = fieldK.grid
    dst = src.fourier_dual()
    pins, pouts = _dft_phases(src, dst, +1)
    pouts[2] = pouts[2] * _dft_scale(src, +1)
    vals = np.empty_like(fieldK.values)
    for comp in range(3):
        x = _fft(_phased(fieldK.values[..., comp], pins), +1)
        _phased(x, pouts, out=vals[..., comp])
    return FieldGrid(vals, dst, "position")


def _add_density(d, x):
    """d += re^2 + im^2 of the complex array x, one slab at a time along
    d's outer memory axis (no full-size temporary)."""
    if d.flags.f_contiguous:
        d, x = d.T, x.T
    for di, xi in zip(d, x):
        di += xi.real ** 2
        di += xi.imag ** 2


def _add_pair_density(d, z):
    """d += (|z|^2 + |z'|^2) / 2, z' being z with all three indices
    reversed: the summed density of two real planes p and q, given z, the
    transform of p + i q up to unimodular phases, on a grid symmetric about
    0 (every fourier_dual grid).  There z' holds the transform at -k, and
    a real plane's transform takes conjugate values at k and -k, so
    |Z(k)|^2 + |Z(-k)|^2 = 2 (|P(k)|^2 + |Q(k)|^2).

    Slab i of d's outer memory axis is taken with its mirror slab, so each
    |z|^2 is formed once; node and mirror add the same two terms, so the
    result does not depend on d's order."""
    if d.flags.f_contiguous:
        d, z = d.T, z.T
    n = d.shape[0]
    s, t, u = np.empty((3,) + d.shape[1:])
    for i in range((n + 1) // 2):
        j = n - 1 - i
        for zk, out in ((z[i], s), (z[j], t)):
            np.square(zk.real, out=out)
            out += np.square(zk.imag, out=u)
        for di, own, other in ((d[i], s, t), (d[j], t, s))[:1 + (j > i)]:
            np.add(own, other[::-1, ::-1], out=u)
            u *= 0.5
            di += u


def _add_node_density(d, f):
    """d += the density of f, a slab of per-node components (..., 3): each
    component's re^2, then im^2, in component order, so the per-node sums
    are those of _add_density over the three components, to the bit.  The
    own-space density of every stream (_stream_stats) and FieldGrid.density
    are added here, one slab at a time."""
    for c in range(3):
        d += f[..., c].real ** 2
        d += f[..., c].imag ** 2


# A field's six real planes: plane 2c + p is the real (p = 0) or imaginary
# (p = 1) part of component c, in the order of its interleaved values.
_COMPONENTS = ((0, 1), (2, 3), (4, 5))


def _plane(f, p):
    """Plane p of f, a slab of per-node components (..., 3)."""
    return f[..., p // 2].imag if p % 2 else f[..., p // 2].real


def _note_planes(nonzero, f):
    """Set nonzero[p] (six bools, one per plane) for each plane p that
    holds a nonzero value in f, a slab of per-node components (..., 3).  A
    plane already marked is not looked at again, and NaN counts as
    nonzero."""
    for p in np.flatnonzero(~nonzero):
        nonzero[p] = np.count_nonzero(_plane(f, p)) > 0


def _nonzero_planes(slabs):
    """Which planes of a field, given as its slabs of per-node components,
    hold a nonzero value (_note_planes), taken slab by slab until
    _transform_plan takes all three components whole, which no further
    nonzero plane changes: one slab for a complex field."""
    nonzero = np.zeros(6, dtype=bool)
    for f in slabs:
        _note_planes(nonzero, f)
        if _transform_plan(nonzero) == (_COMPONENTS, ()):
            break
    return nonzero


def _transform_plan(nonzero):
    """(the components transformed whole, each as its (re, im) planes,
    in component order, and the pairs of real planes transformed two to
    an FFT) of a field whose planes with a nonzero value are marked in
    nonzero.

    A component with both planes nonzero is transformed whole and a zero
    one not at all.  The planes of components with one nonzero plane are
    paired in order; the last, if their count is odd, goes whole with its
    component, as every complex field's components do."""
    whole, single = [], []
    for planes in _COMPONENTS:
        held = [p for p in planes if nonzero[p]]
        if len(held) == 2:
            whole.append(planes)
        elif held:
            single.append(held[0])
    if len(single) % 2:
        whole = sorted(whole + [_COMPONENTS[single.pop() // 2]])
    return tuple(whole), tuple(zip(single[::2], single[1::2]))


def _stream_stats(slabs, grid: Grid3D, space, source=True, order="C"):
    """(k-space stats, position stats) (_DensityStats) of a field on grid in
    `space` ("wavevector" or "position"), given as its slab stream:
    slabs(comps) returns a fresh iterator over the field's per-node
    components, one slab (..., 3) at a time along the outer memory axis of
    an (nx, ny, nz) array in `order` -- x-slabs (ny, nz, 3) for "C",
    z-slabs (ny, nx, 3) for "F", the .rsf payload's order -- of which only
    the components comps are read, so a source may write no other.  A slab
    is read before the next is taken.  The k-space stats are None if not
    source (a wavevector field only).

    One pass per space, position space first, so its checks raise first;
    each adds up one real density in `order`:
    * the own-space pass, one iteration of the stream: each slab's density
      is added (_add_node_density), and, when the transform pass comes next
      (a position field), its nonzero planes are noted (_note_planes);
    * a wavevector field's probe, before its transform pass: slabs until
      the plan can no longer change (_nonzero_planes), one for a complex
      field;
    * the transform pass, one iteration per item of _transform_plan: each
      slab's component, or its plane pair as p + i q, is multiplied by the
      slab's input-side phase plane (_phase_planes) straight into that slab
      of one buffer, which is transformed in place and its density added,
      a component's as re^2 + im^2 and a pair's mirrored
      (_add_pair_density).  A zero component costs nothing, two real or
      imaginary components one FFT, and a complex field's report is that of
      a transform per component.  The output-side DFT phases are unimodular
      and never applied.

    A field with no nonzero plane still has its zero density formed and
    reduced.  The buffer is freed before the density is made C-contiguous
    (a copy for order "F") and reduced, and each density before the next
    pass, so one buffer and one density are held.  Either order gives the
    same bits: the phases and densities are the same products node by
    node, and fftn applies the same 1-D transforms in the same axis order.
    """
    sign = +1 if space == "wavevector" else -1
    outer = (lambda a: a) if order == "C" else np.transpose

    def own_pass(nonzero=None):
        d = np.zeros(grid.counts, order=order)
        for dl, f in zip(outer(d), slabs((0, 1, 2))):
            _add_node_density(dl, f)
            if nonzero is not None:
                _note_planes(nonzero, f)
        f = None  # the last slab's buffer is freed before the copy below
        return _density_stats(np.ascontiguousarray(d), grid)

    def transformed(pins, nonzero):
        # the buffer and its slab views die with this frame
        buf = np.empty(grid.counts, dtype=np.complex128, order=order)
        d = np.zeros(grid.counts, order=order)
        whole, pairs = _transform_plan(nonzero)
        for a, b in whole + pairs:
            pair = (a, b) not in whole
            for bl, f, phase in zip(outer(buf), slabs((a // 2, b // 2) if pair else (a // 2,)),
                                    _phase_planes(pins, order)):
                if pair:
                    np.copyto(bl.real, _plane(f, a))
                    np.copyto(bl.imag, _plane(f, b))
                    bl *= phase
                else:
                    np.multiply(f[..., a // 2], phase, out=bl)
            f = phase = None  # the last slab's buffer and phase plane, before the FFT
            (_add_pair_density if pair else _add_density)(d, _fft(buf, sign))
        return d

    def transform_pass(nonzero):
        dual = grid.fourier_dual()
        # an inf sample times the exact zero part of a phase is NaN: the
        # norm check (_grid_moment) names it, as it does a NaN sample
        with np.errstate(invalid="ignore"):
            d = transformed(_dft_phases(grid, dual, sign)[0], nonzero)
        d *= _dft_scale(grid, sign) ** 2
        return _density_stats(np.ascontiguousarray(d), dual)

    if sign < 0:
        nonzero = np.zeros(6, dtype=bool)
        r = own_pass(nonzero)
        return transform_pass(nonzero), r
    r = transform_pass(_nonzero_planes(slabs((0, 1, 2))))
    return own_pass() if source else None, r
