"""Wavevector-space core: uniform grids, the helicity polarization frame
e(k), helicity amplitude pairs, field synthesis and the unitary Fourier
bridge.

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

Synthesis is split in two: a time-independent part, built once per
(amplitudes, grid), and a per-time components(t) step that yields one
contiguous component of Ftilde(k, t) at a time.  There are two routes, and
_synthesis_parts picks one from two properties of its input, nothing else:

* Radial route (_RadialParts), taken when every non-None amplitude is a
  RadialProfileAmplitude and the grid is a centred cube with an even node
  count (the one _radius_keys accepts, e.g. Grid3D.centered(...)
  .fourier_dual()).  With f+- = k_perp h+-(k^2) and

      e(k) k_perp = [-kx kz + i ky k, -ky kz - i kx k, k_perp^2] / (sqrt2 k),

  every component is a polynomial in (kx, ky, kz) times one of two radial
  functions, S = P + M and k (P - M), where P = h+ e^{-ikt}/(sqrt2 k) and
  M = conj(h-) e^{+ikt}/(sqrt2 k).  Those are tabulated once per distinct
  radius (6,049 at 128^3) and gathered per node by the slab assembler
  _assemble_grid, the same one the closed-form position field uses; no
  polarization frame, no full-size |k| and no per-node exponential.
  Its densities(t) assemble no component at all: every term of a
  component has a definite parity in each axis, so both densities come
  from the positive octant, through one DCT-IV or DST-IV per axis and
  term (_RadialParts.octants).  F1 is the x <-> y mirror of F0, so only
  the three terms x z W, i y T (of F0) and F2 are transformed, and one
  octant density per space, D+, stands for the whole cube: every number
  a report takes of a density comes from D+ (_octant_stats), and no
  density of the whole cube is ever formed.
* Node route (_NodeParts) for everything else: polynomial, sampled and
  wrapped (phase-evolved, dilated) amplitudes, and any other grid.  Every
  admissible amplitude is f = k_perp g, so the same polynomial holds with
  per-node tables: it keeps f+/(sqrt2 k k_perp), conj(f-)(-k)/(sqrt2 k
  k_perp) and |k| (40 bytes a node), builds no polarization frame, and
  forms the two functions and the phases one x-slab at a time through
  the same assembler.

synthesize_kspace is the one-time case of either route: with three
distinct output arrays the assembler forms each x-slab's tables once and
writes all three components.

The Fourier bridge transforms one component at a time: per-axis phases are
applied one x-slab at a time, in place, around an overwriting scipy FFT.  A
density is computed once per field as re^2 + im^2 (FieldGrid.density).
_stream_densities reduces a stream of components to the density on their
grid and the density of their transform on the dual grid, holding one
component and the two densities (the output-side DFT phases are unimodular
and drop out).  _stream_stats, the one reducer of a component stream,
takes from those two arrays the three numbers a report takes of a density
(_DensityStats: its boundary ratio, second moment and norm), position
space first; _NodeParts.densities and the FieldGrid reports of moments
call it.  Both routes' parts have densities(t, source), which give those
numbers per space, and the spreading trajectory and
`verify-bound --method grid` take them from there.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    "SampledAmplitude",
    "saturating_amplitudes",
    "synthesize_kspace",
    "fourier_to_position",
    "fourier_to_kspace",
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
        """Energy-like density F*.F at every node (real array)."""
        # re^2 + im^2 summed over components, in one pass over a float view
        f = self.values.view(np.float64)
        return np.einsum("...i,...i->...", f, f)

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
    if not np.isfinite(n) or n <= 0.0:
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
    """The stats of the density array d on grid."""
    return _DensityStats(_boundary_ratio(d), *_grid_moment(d, grid.axes(), grid.cell_volume))


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

    h, dh: callables of q = k^2, vectorized; k_scale sizes quadrature
    domains.
    """

    def __init__(self, h, dh, k_scale):
        self.h = h
        self.dh = dh
        self.k_scale = float(k_scale)

    def value(self, kx, ky, kz):
        q = kx * kx + ky * ky + kz * kz
        return np.sqrt(kx * kx + ky * ky) * self.h(q)

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

    terms: dict {(i,j,l): complex coefficient} for monomials kx^i ky^j kz^l.
    Gradients are exact (product rule on the monomial expansion).

    The kernel works in real arithmetic.  Each call forms every axis's
    powers k_a^2, k_a^3, ... once, up to that axis's highest degree, and
    k_perp exp(-alpha k^2) once.  From those it builds the real and then
    the imaginary part of P (in grad, of dP/dk_a + k_a w_a P for each axis,
    see grad) in one float array, skipping a part that no coefficient has,
    and writes each, scaled by k_perp exp(-alpha k^2), into its half of the
    one complex array formed per returned value.  Besides its outputs a
    call holds only a few node-sized float arrays, reused in place: fresh
    memory costs a page fault per page on every call, which at the
    quadrature rules' sizes outweighs the arithmetic.
    """

    def __init__(self, terms, alpha):
        self.terms = dict(terms)
        self.alpha = float(alpha)
        self.k_scale = 1.0 / np.sqrt(2.0 * self.alpha)

    def _parts(self):
        """[(0, real parts), (1, imaginary parts)] of the terms, as lists of
        (exponents, float), keeping a part only if some coefficient has it."""
        terms = [(e, complex(c)) for e, c in self.terms.items()]
        parts = ([(e, c.real) for e, c in terms], [(e, c.imag) for e, c in terms])
        return [(i, part) for i, part in enumerate(parts) if any(v for _, v in part)]

    def _tables(self, kx, ky, kz, grad):
        """(powers, k_perp e^{-alpha k^2}, u) at the nodes: powers[a][n] is
        k_a^n for 1 <= n <= the highest degree of axis a, and u is
        1/k_perp^2 - 2 alpha (None unless grad)."""
        pows = []
        for a, k in enumerate((kx, ky, kz)):
            p = [None, k]
            for _ in range(max((e[a] for e in self.terms), default=0) - 1):
                p.append(p[-1] * k)
            pows.append(p)

        def square(a):
            return pows[a][2] if len(pows[a]) > 2 else pows[a][1] * pows[a][1]

        kp2 = square(0) + square(1)
        E = np.exp(-self.alpha * (kp2 + square(2)))
        u = 1.0 / kp2 - 2.0 * self.alpha if grad else None
        return pows, np.sqrt(kp2) * E, u

    def value(self, kx, ky, kz):
        pows, kpE, _ = self._tables(kx, ky, kz, grad=False)
        out = np.zeros(np.shape(kpE), dtype=np.complex128)
        P, scratch = np.empty(out.shape), np.empty(out.shape)
        for i, terms in self._parts():
            P.fill(0.0)
            _add_poly(P, terms, pows, scratch)
            np.multiply(kpE, P, out=(out.real, out.imag)[i])
        return out

    def grad(self, kx, ky, kz):
        # d/dk_a (k_perp e^{-alpha k^2}) is k_a w_a k_perp e^{-alpha k^2},
        # with w_a = u for a = x, y and -2 alpha for a = z
        pows, kpE, u = self._tables(kx, ky, kz, grad=True)
        out = [np.zeros(np.shape(kpE), dtype=np.complex128) for _ in range(3)]
        P, D, scratch = (np.empty(out[0].shape) for _ in range(3))
        weights = ((kx, u), (ky, u), (kz, -2.0 * self.alpha))
        for i, terms in self._parts():
            P.fill(0.0)
            _add_poly(P, terms, pows, scratch)
            for axis, (k, w) in enumerate(weights):
                np.multiply(P, k, out=D)
                D *= w
                _add_poly(D, terms, pows, scratch, axis)
                np.multiply(kpE, D, out=(out[axis].real, out[axis].imag)[i])
        return tuple(out)


def _add_poly(acc, terms, pows, scratch, axis=None):
    """acc += sum of v kx^i ky^j kz^l over terms [((i, j, l), v)], or of
    its derivative in k_axis, in place; pows[a][n] = k_a^n.  A term's
    product is formed in scratch once it has the nodes' full shape; on
    sparse meshes its leading factors stay small until then."""
    for e, v in terms:
        if axis is not None:
            v *= e[axis]
            e = tuple(n - (b == axis) for b, n in enumerate(e))
        if not v:
            continue
        term = v
        for a, n in enumerate(e):
            if n:
                f = pows[a][n]
                full = np.broadcast_shapes(np.shape(term), np.shape(f)) == scratch.shape
                term = np.multiply(term, f, out=scratch if full else None)
        acc += term


class _PhaseEvolved:
    """Amplitude multiplied by a free-photon phase e^{-ikt}."""

    def __init__(self, base, t):
        self.base = base
        self.t = float(t)
        self.k_scale = base.k_scale

    def value(self, kx, ky, kz):
        k = np.sqrt(kx * kx + ky * ky + kz * kz)
        return self.base.value(kx, ky, kz) * np.exp(-1j * k * self.t)

    def grad(self, kx, ky, kz):
        k = np.sqrt(kx * kx + ky * ky + kz * kz)
        ph = np.exp(-1j * k * self.t)
        f = self.base.value(kx, ky, kz)
        gx, gy, gz = self.base.grad(kx, ky, kz)
        it = 1j * self.t
        return (
            ph * (gx - it * kx / k * f),
            ph * (gy - it * ky / k * f),
            ph * (gz - it * kz / k * f),
        )


class _Dilated:
    """f(lambda k): maps Dk^2 -> Dk^2/lambda^2, Dr^2 -> lambda^2 Dr^2."""

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


class SampledAmplitude:
    """Helicity amplitude sampled on a wavevector grid.

    Derivatives come from the Fourier-multiplier route: transform to the
    conjugate domain, multiply by -i r_j, transform back.  Moments of
    sampled amplitudes are Riemann sums over the grid (see moments), so the
    grid must resolve and contain the amplitude.

    Accuracy note: the spectral derivative is exact to rounding for
    amplitudes smooth across the kz-axis (e.g. k_perp^2 profiles).  The
    common k_perp * h(k^2) profiles have a conical kink on the axis, which
    limits the route to algebraic convergence in the box size; prefer
    analytic closures for those when tight tolerances matter.

    As f-, a sampled amplitude needs a grid symmetric about k = 0 on every
    axis (origin = -(n - 1) spacing / 2, as on Grid3D.centered and
    fourier_dual grids): synthesis takes conj f-(-k) by index reversal
    (negated_conj), which on any other grid reads another node's value, so
    there it raises GridMismatchError.  f+ may use any grid.
    """

    def __init__(self, values, grid: Grid3D):
        values = np.asarray(values, dtype=np.complex128)
        if values.shape != grid.counts:
            raise ValueError(
                f"SampledAmplitude: values shape {values.shape} != {grid.counts}"
            )
        self.values = values
        self.grid = grid
        # decay scale estimate from the grid extent (rule sizing only)
        self.k_scale = max(n * d for n, d in zip(grid.counts, grid.spacings)) / 18.0

    @classmethod
    def from_closure(cls, amp, grid: Grid3D) -> "SampledAmplitude":
        KX, KY, KZ = grid.meshes(sparse=True)
        vals = np.broadcast_to(amp.value(KX, KY, KZ), grid.counts).astype(
            np.complex128
        )
        return cls(vals, grid)

    def spectral_grad(self):
        """(df/dkx, df/dky, df/dkz) on the grid nodes."""
        rgrid = self.grid.fourier_dual()
        U = _dft(self.values, self.grid, rgrid, +1)
        out = []
        for a, coord in enumerate(rgrid.axes()):
            shape = [1, 1, 1]
            shape[a] = coord.size
            mult = (-1j * coord).reshape(shape)
            out.append(_dft(mult * U, rgrid, self.grid, -1))
        return tuple(out)

    def negated_conj(self):
        """conj(f)(-k) on the grid nodes, by index reversal: a grid
        symmetric about k = 0 closes under k -> -k that way; any other grid
        raises GridMismatchError."""
        g = self.grid
        if any(abs(2.0 * o + (n - 1) * d) > 1e-12 * n * d
               for n, d, o in zip(g.counts, g.spacings, g.origins)):
            raise GridMismatchError("SampledAmplitude: conj f(-k) needs a grid "
                                    "symmetric about k = 0")
        return np.conj(self.values[::-1, ::-1, ::-1])


def _phase_evolved(amp, t):
    if amp is None:
        return None
    if isinstance(amp, SampledAmplitude):
        KX, KY, KZ = amp.grid.meshes(sparse=True)
        k = np.sqrt(KX * KX + KY * KY + KZ * KZ)
        return SampledAmplitude(amp.values * np.exp(-1j * k * t), amp.grid)
    return _PhaseEvolved(amp, t)


def _dilated(amp, lam):
    if amp is None:
        return None
    if isinstance(amp, SampledAmplitude):
        # f(lambda k) takes at k / lambda the value f has at k
        g = amp.grid
        return SampledAmplitude(amp.values, Grid3D(g.counts, tuple(d / lam for d in g.spacings),
                                                   tuple(o / lam for o in g.origins)))
    return _Dilated(amp, lam)


@dataclass
class HelicityAmplitudePair:
    """The pair f+(k), f-(k) of complex helicity amplitudes.

    Either entry may be None (identically zero).
    """

    f_plus: object = None
    f_minus: object = None

    def __post_init__(self):
        if self.f_plus is None and self.f_minus is None:
            raise DegenerateFieldError("HelicityAmplitudePair: both amplitudes zero")

    @property
    def k_scale(self) -> float:
        scales = [a.k_scale for a in (self.f_plus, self.f_minus) if a is not None]
        return min(scales)

    def evolved(self, t) -> "HelicityAmplitudePair":
        return HelicityAmplitudePair(_phase_evolved(self.f_plus, t),
                                     _phase_evolved(self.f_minus, t))

    def dilated(self, lam) -> "HelicityAmplitudePair":
        """The pair f(lam k), for a finite lam > 0 (else ValueError)."""
        if not (math.isfinite(lam) and lam > 0):
            raise ValueError(f"dilated: lambda must be finite and positive, got {lam}")
        return HelicityAmplitudePair(_dilated(self.f_plus, lam), _dilated(self.f_minus, lam))


def saturating_amplitudes(c_plus, c_minus, a) -> HelicityAmplitudePair:
    """Minimal-uncertainty amplitudes f+- = C+- k_perp exp(-a^2 k^2 / 2)."""
    if a <= 0:
        raise ValueError("saturating_amplitudes: a must be positive")

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
# synthesis and Fourier bridge
# ---------------------------------------------------------------------------

def _time_tables(plus, minus, k, t, out, with_v=True):
    """W = -(P + M) and V = i k (P - M) (None unless with_v), with
    P = plus e^{-ikt} and M = minus e^{+ikt} (a None table is zero), per
    radius on the radial route and per x-slab on the node route, written
    into out[0] and out[1] of a complex (4,) + k.shape array (out[2:] is
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
    """The time-independent part of Ftilde(k,t) on a wavevector grid: the
    node route of the synthesis, for any amplitude on any grid.

    With f = k_perp g the frame's 1/k_perp cancels (see the module
    docstring), so Ftilde is the radial route's polynomial with per-node
    tables: plus = f+(k) / (sqrt2 k k_perp) and minus = conj(f-)(-k) /
    (sqrt2 k k_perp) at the nodes (None for a zero amplitude), and k = |k|,
    40 bytes per node and no polarization frame.  components(t) forms W and
    V (_time_tables) one x-slab at a time and writes the polynomial of
    _assemble_grid: only the unimodular phases depend on t, so a
    trajectory builds the parts once and takes components(t) per time.
    """

    grid: Grid3D
    plus: np.ndarray | None
    minus: np.ndarray | None
    k: np.ndarray

    @classmethod
    def from_amplitudes(cls, amps: HelicityAmplitudePair, grid: Grid3D) -> "_NodeParts":
        KX, KY, KZ = grid.meshes(sparse=True)
        kp2 = KX * KX + KY * KY
        k = kp2 + KZ * KZ
        _check_off_axis(kp2, k)  # before any division by k_perp
        np.sqrt(k, out=k)
        den = np.sqrt(2.0 * kp2)  # sqrt2 k_perp, constant along z

        def table(amp, negk):
            if isinstance(amp, SampledAmplitude):
                if amp.grid != grid:
                    raise GridMismatchError("synthesize_kspace: amplitude grid differs")
                f = amp.negated_conj() if negk else amp.values
            else:
                f = np.conj(amp.value(-KX, -KY, -KZ)) if negk else amp.value(KX, KY, KZ)
            return f / den / k  # k_perp(-k) = k_perp(k)

        plus = None if amps.f_plus is None else table(amps.f_plus, False)
        minus = None if amps.f_minus is None else table(amps.f_minus, True)
        return cls(grid, plus, minus, k)

    def components(self, t, out=None):
        """The per-time phase step: yield Ftilde_comp(k, t) for comp = 0, 1,
        2, written into out[comp] (default: one buffer reused for all three,
        so consume each component before taking the next)."""
        if not np.isfinite(t):
            raise ValueError("_NodeParts.components: t must be finite")
        buf = np.empty((4,) + self.grid.counts[1:], dtype=np.complex128)

        def slabs(i, comps):
            # the slab's W and V, formed per sweep: nothing full-size
            return _time_tables(None if self.plus is None else self.plus[i],
                                None if self.minus is None else self.minus[i],
                                self.k[i], t, buf, with_v=comps != (2,)) + (None,)

        yield from _assemble_grid(self.grid, slabs, out)

    def densities(self, t, source=True):
        """(k-space stats or None if not source, position stats) of
        Ftilde(k, t) (_DensityStats), from its components (_stream_stats)."""
        return _stream_stats(self.components(t), self.grid, "wavevector", source)


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


def _assemble_grid(grid, slabs, out=None):
    """Yield the components

        F0 = x z W + y V,  F1 = y z W - x V,  F2 = -(x^2 + y^2) W - G

    on grid, one at a time, written into out[comp] (default: one buffer
    reused for all three, so consume each component before taking the
    next), one x-slab at a time.  slabs(i, comps) gives x-slab i of W, of V
    (None unless comps holds 0 or 1) and of G (None unless comps holds 2,
    or for no G term) as (ny, nz) arrays: gathered from per-radius tables
    (_gathered) or formed per node (_NodeParts).
    """
    x, y, z = grid.axes()
    y = y[:, None]  # an x-slab is (ny, nz)
    yz = y * z
    if out is None:
        buf = np.empty(grid.counts, dtype=np.complex128)
        out = (buf, buf, buf)
    # three distinct outputs are written in one sweep, so each slab's
    # tables are formed once; a shared buffer takes one component a sweep
    sweeps = [(0, 1, 2)] if len({id(o) for o in out}) == 3 else [(0,), (1,), (2,)]
    tmp = np.empty(yz.shape, dtype=np.complex128)
    for comps in sweeps:
        for i, xi in enumerate(x):
            w, v, g = slabs(i, comps)
            for comp in comps:
                oi = out[comp][i]
                if comp == 0:
                    np.multiply(xi * z, w, out=oi)
                    oi += np.multiply(y, v, out=tmp)
                elif comp == 1:
                    np.multiply(yz, w, out=oi)
                    oi -= np.multiply(xi, v, out=tmp)
                else:
                    np.multiply(-(xi * xi + y * y), w, out=oi)
                    if g is not None:
                        oi -= g
        yield from (out[comp] for comp in comps)


def _gathered(q, w, v, g=None):
    """slabs(i, comps) for _assemble_grid from per-radius tables W, V and G
    (None: no G term) on the centred cube of _radius_keys: the node
    (i, j, l) takes table[q[i] + q[j] + q[l]]."""
    w = np.asarray(w, dtype=np.complex128)
    key = q[:, None] + q  # radius key of the slab nodes, before the x offset
    # slab-sized buffers are reused: allocating them per slab costs more
    # than the gather
    bufs = np.empty((3,) + key.shape, dtype=np.complex128)

    def slabs(i, comps):
        # shifting a table by q[i] adds the x part of every key
        want = (w, v if comps != (2,) else None, g if 2 in comps else None)
        return tuple(None if tab is None else np.take(tab[q[i]:], key, out=b, mode="clip")
                     for tab, b in zip(want, bufs))

    return slabs


def _gather_octant(tab, q, poly, out):
    """out = (re, im) planes of tab[q[i] + q[j] + q[l]] poly[i, j, l] on
    the positive octant (q = the upper half of the radius keys), one x-slab
    at a time; poly broadcasts to an octant."""
    key = q[:, None] + q
    poly = np.broadcast_to(poly, out.shape[1:])
    for plane, part in zip(out, (tab.real, tab.imag)):
        part = np.ascontiguousarray(part, dtype=np.float64)
        for i, oi in enumerate(plane):
            np.take(part[q[i]:], key, out=oi, mode="clip")
            oi *= poly[i]


def _add_octant_densities(d, terms, rotate, mirror):
    """For a pair of terms (a, b) held as (re, im) planes, d += |a + b|^2,
    with b first multiplied by -i if rotate, and, if mirror, also
    d += (|a - b|^2)^T (axes 0 and 1 swapped); a single term is a with
    b = 0.  One x-slab at a time."""
    for i in range(d.shape[0]):
        ar, ai = terms[0][:, i]
        if len(terms) == 1:
            plus = minus = ar * ar + ai * ai
        else:
            br, bi = terms[1][:, i]
            if rotate:
                br, bi = bi, -br
            plus = (ar + br) ** 2 + (ai + bi) ** 2
            minus = (ar - br) ** 2 + (ai - bi) ** 2
        d[i] += plus
        if mirror:
            d[:, i] += minus


def _octant_densities(terms, q, source):
    """The octant density D+ of k space (None if not source) and, unscaled,
    of position space, from the terms (table, polynomial, odd axes) of
    F0 = A0 + B0 and of F2, a pair at a time: each term is gathered, its
    k-space density added, transformed in place (a DCT-IV per even axis, a
    DST-IV per odd one) and its position-space density added.

    F1 = A1 + B1 needs no terms of its own: A1 = A0^T and B1 = -B0^T
    (x <-> y) in both spaces, so it adds (|A0 - B0|^2)^T to D+ (and
    (|A0 + B0|^2)^T to D-).  F2 is x <-> y symmetric, so D- = D+^T is
    never formed."""
    shape = (q.size,) * 3
    src = np.zeros(shape) if source else None
    dual = np.zeros(shape)
    # a term is held as contiguous (re, im) planes: a type-4 transform
    # along a plane's axis is twice as fast as along a complex array's
    bufs = [np.empty((2,) + shape) for _ in range(2)]
    for pair, mirror in ((terms[:2], True), (terms[2:], False)):
        # a term with a zero table adds nothing (|a +- 0|^2 = |a|^2): at
        # t = 0 W is zero for the simplest packet
        pair = [term for term in pair if np.any(term[0])]
        if not pair:
            continue
        held = bufs[:len(pair)]
        for (tab, poly, _), buf in zip(pair, held):
            _gather_octant(tab, q, poly, buf)
        if source:
            _add_octant_densities(src, held, rotate=False, mirror=mirror)
        for j, (_, _, odd) in enumerate(pair):
            for axis in range(3):
                dcst = dst if axis in odd else dct
                held[j] = dcst(held[j], type=4, axis=axis + 1, overwrite_x=True, workers=-1)
        # A gains i^2 and B i^1 from their odd axes: the transformed pair
        # is -(A - i B)
        _add_octant_densities(dual, held, rotate=True, mirror=mirror)
    return src, dual


@dataclass(frozen=True, eq=False)
class _RadialParts:
    """The time-independent part of Ftilde(k,t) for radial amplitudes
    f+- = k_perp h+-(k^2) on a centred even cube: the radial route.

    q are the per-axis radius keys and k the table of distinct radii
    (_radius_keys); plus = h+(k^2)/(sqrt2 k) and minus = conj(h-(k^2))/
    (sqrt2 k) on that table (None for a zero amplitude).  Per time,
    components(t) forms the two radial tables W = -(P + M) and
    V = i k (P - M), with P = plus e^{-ikt} and M = minus e^{+ikt}
    (_time_tables), and assembles

        Ftilde = [kx kz W + ky V, ky kz W - kx V, -k_perp^2 W]

    by gathering them per node (_assemble_grid with _gathered).  octants(t)
    reduces the same field to the positive-octant values of its two
    densities, with no component built, and densities(t) takes the
    reports' stats from those.  Same interface as _NodeParts.
    """

    grid: Grid3D
    q: np.ndarray
    k: np.ndarray
    plus: np.ndarray | None
    minus: np.ndarray | None

    @classmethod
    def from_amplitudes(cls, amps: HelicityAmplitudePair, grid: Grid3D, keys) -> "_RadialParts":
        q, k = keys
        den = np.sqrt(2.0) * k
        plus = None if amps.f_plus is None else amps.f_plus.h(k * k) / den
        minus = None if amps.f_minus is None else np.conj(amps.f_minus.h(k * k)) / den
        return cls(grid, q, k, plus, minus)

    def _tables(self, t):
        """The radial tables W and V = i T at time t (_time_tables)."""
        if not np.isfinite(t):
            raise ValueError("_RadialParts: t must be finite")
        buf = np.empty((4,) + self.k.shape, dtype=np.complex128)
        return _time_tables(self.plus, self.minus, self.k, t, buf)

    def components(self, t, out=None):
        """The per-time step: yield Ftilde_comp(k, t) for comp = 0, 1, 2,
        written into out[comp] (default: one buffer reused for all three)."""
        w, v = self._tables(t)
        yield from _assemble_grid(self.grid, _gathered(self.q, w, v), out)

    def octants(self, t, source=True):
        """The positive-octant values D+ of the k-space density (None if
        not source) and of the position density of Ftilde(k, t); the
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
        transformed (_octant_densities).  The terms are gathered one at a
        time from the radius table, so two complex octants and one real
        octant density per space are held, never a component.
        """
        w, it = self._tables(t)
        h = self.grid.counts[0] // 2
        q = self.q[h:]
        x, y, z = (ax[h:] for ax in self.grid.axes())
        x, y = x[:, None, None], y[:, None]
        # (table, polynomial, odd axes) of A0, B0 and F2
        terms = [(w, x * z, (0, 2)), (it, y, (1,)),
                 (w, -(x * x + y * y), ())]
        src, dual = _octant_densities(terms, q, source)
        dual *= _dft_scale(self.grid, -1) ** 2
        return src, dual

    def densities(self, t, source=True):
        """(k-space stats or None if not source, position stats) of
        Ftilde(k, t) (_DensityStats), reduced from the octants alone
        (_octant_stats): no density of the whole cube is formed."""
        src, dual = self.octants(t, source)
        # position space first, as in _stream_stats
        r = _octant_stats(dual, self.grid.fourier_dual())
        return None if src is None else _octant_stats(src, self.grid), r


def _synthesis_parts(amps: HelicityAmplitudePair, grid: Grid3D):
    """The time-independent synthesis part of amps on grid: the radial route
    when every non-None amplitude is a RadialProfileAmplitude and the grid
    is a centred even cube, _NodeParts (the node route) otherwise.  Both
    yield the same components(t) to rounding."""
    present = [a for a in (amps.f_plus, amps.f_minus) if a is not None]
    if all(isinstance(a, RadialProfileAmplitude) for a in present):
        keys = _radius_keys(grid)
        if keys is not None:
            return _RadialParts.from_amplitudes(amps, grid, keys)
    return _NodeParts.from_amplitudes(amps, grid)


def synthesize_kspace(amps: HelicityAmplitudePair, grid: Grid3D, t=0.0) -> FieldGrid:
    """Sample Ftilde(k,t) = e(k) f+(k) e^{-ikt} + e*(k) conj(f-)(-k) e^{+ikt}
    on a wavevector grid: the one-time case of the synthesis parts (radial
    or node route, see the module docstring)."""
    parts = _synthesis_parts(amps, grid)
    vals = np.empty(grid.counts + (3,), dtype=np.complex128)
    for _ in parts.components(t, out=[vals[..., comp] for comp in range(3)]):
        pass  # each component is written into its slice of vals
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


def _phased(a, p, out=None):
    """a[i, j, l] p[0][i] p[1][j] p[2][l], written into out (which may be
    a itself) or a new array in one pass: each x-slab is multiplied by
    p[0][i] times the (y, z) phase plane."""
    yz = p[1][:, None] * p[2]
    if out is None:
        out = np.empty(a.shape, dtype=np.result_type(a, yz))
    plane = np.empty_like(yz)
    for ai, oi, px in zip(a, out, p[0]):
        np.multiply(ai, np.multiply(yz, px, out=plane), out=oi)
    return out


def _fft(vals, pins, sign, out=None):
    """Inverse FFT (sign > 0) or FFT (sign < 0) of vals times the input-side
    phases pins: the transform up to its output-side phases (unimodular)
    and scale.  out=vals does the work in place; otherwise vals is left
    untouched."""
    fft = ifftn if sign > 0 else fftn
    return fft(_phased(vals, pins, out=out), workers=-1, overwrite_x=True)


def _dft(vals, src: Grid3D, dst: Grid3D, sign, out=None):
    """(2pi)^(-3/2) Int d3x vals(x) e^{sign i x.y} on the dst nodes, for one
    scalar component sampled on src, written into out (default: a new
    array); vals is left untouched."""
    pins, pouts = _dft_phases(src, dst, sign)
    pouts[2] = pouts[2] * _dft_scale(src, sign)
    x = _fft(vals, pins, sign)
    return _phased(x, pouts, out=x if out is None else out)


def _bridge(field: FieldGrid, sign):
    """Values and grid of the unitary transform of field to its dual grid,
    one component at a time."""
    src = field.grid
    dst = src.fourier_dual()
    vals = np.empty_like(field.values)
    for comp in range(3):
        _dft(field.values[..., comp], src, dst, sign, out=vals[..., comp])
    return vals, dst


def fourier_to_position(fieldK: FieldGrid) -> FieldGrid:
    """Unitary synthesis F(r) = (2pi)^(-3/2) Int d3k Ftilde(k) e^{+i k.r},
    discretized exactly on the dual grid (round trip is the identity)."""
    if fieldK.space != "wavevector":
        raise GridMismatchError("fourier_to_position: field is not in k-space")
    vals, rgrid = _bridge(fieldK, +1)
    return FieldGrid(vals, rgrid, "position")


def fourier_to_kspace(fieldR: FieldGrid) -> FieldGrid:
    """Unitary analysis Ftilde(k) = (2pi)^(-3/2) Int d3r F(r) e^{-i k.r}."""
    if fieldR.space != "position":
        raise GridMismatchError("fourier_to_kspace: field is not in position space")
    vals, kgrid = _bridge(fieldR, -1)
    return FieldGrid(vals, kgrid, "wavevector")


def _add_density(d, x):
    """d += re^2 + im^2 of the complex array x, one slab at a time (no
    full-size temporary)."""
    for di, xi in zip(d, x):
        di += xi.real ** 2
        di += xi.imag ** 2


def _stream_densities(components, grid: Grid3D, sign, source=True):
    """Reduce a stream of field components sampled on grid to densities:
    (density on grid or None if not source, density of the unitary
    transform on the dual grid, the dual grid).  sign = +1 transforms
    k-space to position space, -1 the reverse.

    Each component must be a contiguous array that may be overwritten (the
    components(t) buffers of the synthesis parts qualify): its density is
    added, it is transformed in place and the density of the result is
    added.  The output-side DFT phases are unimodular and never applied,
    so only the component and the two densities are held.
    """
    dual = grid.fourier_dual()
    pins, _ = _dft_phases(grid, dual, sign)
    d_src = np.zeros(grid.counts) if source else None
    d_dual = np.zeros(dual.counts)
    for comp in components:
        if source:
            _add_density(d_src, comp)
        _add_density(d_dual, _fft(comp, pins, sign, out=comp))
    d_dual *= _dft_scale(grid, sign) ** 2
    return d_src, d_dual, dual


def _stream_stats(components, grid: Grid3D, space, source=True):
    """(k-space stats, position stats) (_DensityStats) of a field given as
    a stream of its components on grid, in `space` ("wavevector" or
    "position"): the two density arrays of _stream_densities, each reduced.
    The k-space stats are None if not source (a wavevector stream only).
    Position space is reduced first, so its checks raise first."""
    sign = +1 if space == "wavevector" else -1
    d_src, d_dual, dual = _stream_densities(components, grid, sign, source)
    (d_r, rgrid), (d_k, kgrid) = (((d_dual, dual), (d_src, grid)) if sign > 0
                                  else ((d_src, grid), (d_dual, dual)))
    r = _density_stats(d_r, rgrid)
    return None if d_k is None else _density_stats(d_k, kgrid), r
