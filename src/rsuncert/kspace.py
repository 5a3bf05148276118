"""Wavevector-space core: uniform grids, the helicity polarization frame
e(k), helicity amplitude pairs, field synthesis, the unitary Fourier bridge
and energy norms.

Conventions (used everywhere in this package):

* c = 1 internally; lengths in units of the user-supplied scale.
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

Synthesis is split in two.  KspaceParts holds the time-independent part,
e(k) f+(k), e*(k) conj(f-)(-k) and |k|, computed once per (amplitudes,
grid); its components(t) step applies only the unimodular phases
e^{-+ikt}.  synthesize_kspace is the one-time case of the same code.

The Fourier bridge transforms one component at a time: per-axis phases are
applied by broadcasting, in place, around an overwriting scipy FFT.  A
density is computed once per field as re^2 + im^2 (FieldGrid.density), and
position_density gives the position-space density of an evolving field
without building it, the output-side DFT phases being unimodular.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import fftn, ifftn

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
    "dilated",
    "saturating_amplitudes",
    "simplest_field_amplitudes",
    "KspaceParts",
    "synthesize_kspace",
    "position_density",
    "fourier_to_position",
    "fourier_to_kspace",
    "norm",
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

    def is_fourier_pair(self, other: "Grid3D", rtol=1e-12) -> bool:
        if self.counts != other.counts:
            return False
        for n, d1, d2 in zip(self.counts, self.spacings, other.spacings):
            if abs(n * d1 * d2 - 2 * np.pi) > rtol * 2 * np.pi:
                return False
        return True


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


# ---------------------------------------------------------------------------
# polarization frame
# ---------------------------------------------------------------------------

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
    if np.any(kp2 <= (AXIS_RTOL ** 2) * k2):
        raise AxisSingularityError(
            "polarization: wavevector on the kz-axis (k_perp ~ 0)"
        )
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

    h, dh (and optionally d2h, enabling the exact Laplacian): callables of
    q = k^2, vectorized; k_scale sizes quadrature domains.
    """

    def __init__(self, h, dh, k_scale, d2h=None):
        self.h = h
        self.dh = dh
        self.d2h = d2h
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

    def laplacian(self, kx, ky, kz):
        # Lap(kp h(q)) = h/kp + 10 kp h' + 4 q kp h''
        if self.d2h is None:
            raise NotImplementedError("amplitude has no second profile derivative")
        q = kx * kx + ky * ky + kz * kz
        kp = np.sqrt(kx * kx + ky * ky)
        return self.h(q) / kp + 10.0 * kp * self.dh(q) + 4.0 * q * kp * self.d2h(q)


class PolynomialGaussianAmplitude:
    """f(k) = k_perp * P(kx,ky,kz) * exp(-alpha k^2), P a polynomial.

    terms: dict {(i,j,l): complex coefficient} for monomials kx^i ky^j kz^l.
    Gradients are exact (product rule on the monomial expansion).
    """

    def __init__(self, terms, alpha):
        self.terms = dict(terms)
        self.alpha = float(alpha)
        self.k_scale = 1.0 / np.sqrt(2.0 * self.alpha)

    def _poly(self, kx, ky, kz):
        out = 0.0
        for (i, j, l), c in self.terms.items():
            out = out + c * kx ** i * ky ** j * kz ** l
        return out

    def _dpoly(self, kx, ky, kz):
        dx = 0.0
        dy = 0.0
        dz = 0.0
        for (i, j, l), c in self.terms.items():
            if i:
                dx = dx + c * i * kx ** (i - 1) * ky ** j * kz ** l
            if j:
                dy = dy + c * j * kx ** i * ky ** (j - 1) * kz ** l
            if l:
                dz = dz + c * l * kx ** i * ky ** j * kz ** (l - 1)
        return dx, dy, dz

    def value(self, kx, ky, kz):
        q = kx * kx + ky * ky + kz * kz
        return np.sqrt(kx * kx + ky * ky) * self._poly(kx, ky, kz) * np.exp(-self.alpha * q)

    def grad(self, kx, ky, kz):
        q = kx * kx + ky * ky + kz * kz
        kp = np.sqrt(kx * kx + ky * ky)
        E = np.exp(-self.alpha * q)
        P = self._poly(kx, ky, kz)
        Px, Py, Pz = self._dpoly(kx, ky, kz)
        a2 = 2.0 * self.alpha
        gx = E * (kx / kp * P + kp * Px - a2 * kx * kp * P)
        gy = E * (ky / kp * P + kp * Py - a2 * ky * kp * P)
        gz = E * (kp * Pz - a2 * kz * kp * P)
        return gx, gy, gz


class _PhaseEvolved:
    """Amplitude multiplied by a free-photon phase e^{-i c k t}."""

    def __init__(self, base, t, c=1.0):
        self.base = base
        self.t = float(t)
        self.c = float(c)
        self.k_scale = base.k_scale

    def value(self, kx, ky, kz):
        k = np.sqrt(kx * kx + ky * ky + kz * kz)
        return self.base.value(kx, ky, kz) * np.exp(-1j * self.c * k * self.t)

    def grad(self, kx, ky, kz):
        k = np.sqrt(kx * kx + ky * ky + kz * kz)
        ph = np.exp(-1j * self.c * k * self.t)
        f = self.base.value(kx, ky, kz)
        gx, gy, gz = self.base.grad(kx, ky, kz)
        ict = 1j * self.c * self.t
        return (
            ph * (gx - ict * kx / k * f),
            ph * (gy - ict * ky / k * f),
            ph * (gz - ict * kz / k * f),
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
        """conj(f)(-k) on the grid nodes (half-offset grids close under
        k -> -k by index reversal)."""
        return np.conj(self.values[::-1, ::-1, ::-1])


def _phase_evolved(amp, t, c=1.0):
    if amp is None:
        return None
    if isinstance(amp, SampledAmplitude):
        KX, KY, KZ = amp.grid.meshes(sparse=True)
        k = np.sqrt(KX * KX + KY * KY + KZ * KZ)
        return SampledAmplitude(amp.values * np.exp(-1j * c * k * t), amp.grid)
    return _PhaseEvolved(amp, t, c)


def dilated(amp, lam):
    return _Dilated(amp, lam) if amp is not None else None


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

    def swapped(self) -> "HelicityAmplitudePair":
        return HelicityAmplitudePair(self.f_minus, self.f_plus)

    def evolved(self, t, c=1.0) -> "HelicityAmplitudePair":
        return HelicityAmplitudePair(
            _phase_evolved(self.f_plus, t, c), _phase_evolved(self.f_minus, t, c)
        )

    def dilated(self, lam) -> "HelicityAmplitudePair":
        return HelicityAmplitudePair(dilated(self.f_plus, lam), dilated(self.f_minus, lam))


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
            d2h=lambda q, C=C: C * a ** 4 / 4.0 * np.exp(-a * a * q / 2.0),
            k_scale=1.0 / a,
        )

    return HelicityAmplitudePair(make(c_plus), make(c_minus))


def simplest_field_amplitudes(C, a) -> HelicityAmplitudePair:
    """Amplitude pair whose k-space field is i C a^5 e^{-a^2 k^2/2} (ky,-kx,0),
    i.e. C+ = C a^5/sqrt(2), C- = -conj(C) a^5/sqrt(2).

    The corresponding position field is -C e^{-r^2/2a^2} (y,-x,0); pass -C to
    get the packet C e^{-r^2/2a^2} (y,-x,0).
    """
    s = a ** 5 / np.sqrt(2.0)
    return saturating_amplitudes(C * s, -np.conj(C) * s, a)


# ---------------------------------------------------------------------------
# synthesis and Fourier bridge
# ---------------------------------------------------------------------------

def _amp_on_grid(amp, grid, KX, KY, KZ):
    if isinstance(amp, SampledAmplitude):
        if amp.grid != grid:
            raise GridMismatchError("synthesize_kspace: amplitude grid differs")
        return amp.values
    return amp.value(KX, KY, KZ)


def _amp_on_grid_negk_conj(amp, grid, KX, KY, KZ):
    if isinstance(amp, SampledAmplitude):
        if amp.grid != grid:
            raise GridMismatchError("synthesize_kspace: amplitude grid differs")
        return amp.negated_conj()
    return np.conj(amp.value(-KX, -KY, -KZ))


@dataclass(frozen=True, eq=False)
class KspaceParts:
    """The time-independent part of Ftilde(k,t) on a wavevector grid.

    plus = e(k) f+(k) and minus = e*(k) conj(f-)(-k), each of shape
    (3, nx, ny, nz) with contiguous components (None for a zero amplitude),
    and k = |k| at the nodes.  Only the unimodular phases e^{-+ickt} depend
    on t: a trajectory builds the parts once and takes components(t) per
    time.
    """

    grid: Grid3D
    plus: np.ndarray | None
    minus: np.ndarray | None
    k: np.ndarray

    @classmethod
    def from_amplitudes(cls, amps: HelicityAmplitudePair, grid: Grid3D) -> "KspaceParts":
        KX, KY, KZ = grid.meshes(sparse=True)
        frame = polarization(KX, KY, KZ)  # raises if a node sits on the axis
        shape = (3,) + grid.counts
        plus = minus = None
        if amps.f_plus is not None:
            fp = _amp_on_grid(amps.f_plus, grid, KX, KY, KZ)
            plus = np.empty(shape, dtype=np.complex128)
            for comp, e in enumerate(frame):
                np.multiply(e, fp, out=plus[comp])
            del fp
        if amps.f_minus is not None:
            fmc = _amp_on_grid_negk_conj(amps.f_minus, grid, KX, KY, KZ)
            minus = np.empty(shape, dtype=np.complex128)
            for comp, e in enumerate(frame):
                np.multiply(np.conj(e), fmc, out=minus[comp])
        return cls(grid, plus, minus, np.sqrt(KX * KX + KY * KY + KZ * KZ))

    def components(self, t, c=1.0, out=None):
        """The per-time phase step: yield Ftilde_comp(k, t) for comp = 0, 1,
        2, written into out[comp] (default: one buffer reused for all three,
        so consume each component before taking the next)."""
        if not np.isfinite(t):
            raise ValueError("KspaceParts.components: t must be finite")
        if out is None:
            buf = np.empty(self.grid.counts, dtype=np.complex128)
            out = (buf, buf, buf)
        # at t = 0 both phases are exactly 1 and multiply through exactly
        pm = 1.0 if t == 0.0 else np.exp((-1j * c * t) * self.k)
        terms = [(part, ph) for part, ph in ((self.plus, pm), (self.minus, np.conj(pm)))
                 if part is not None]
        tmp = np.empty(self.grid.counts, dtype=np.complex128) if len(terms) > 1 else None
        for comp in range(3):
            o = out[comp]
            part, ph = terms[0]
            np.multiply(part[comp], ph, out=o)
            for part, ph in terms[1:]:
                o += np.multiply(part[comp], ph, out=tmp)
            yield o


def synthesize_kspace(amps: HelicityAmplitudePair, grid: Grid3D, t=0.0, c=1.0) -> FieldGrid:
    """Sample Ftilde(k,t) = e(k) f+(k) e^{-ickt} + e*(k) conj(f-)(-k) e^{+ickt}
    on a wavevector grid: the one-time case of KspaceParts."""
    parts = KspaceParts.from_amplitudes(amps, grid)
    vals = np.empty(grid.counts + (3,), dtype=np.complex128)
    for _ in parts.components(t, c, out=[vals[..., comp] for comp in range(3)]):
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
    """a[i, j, l] p[0][i] p[1][j] p[2][l] by broadcasting, written into out
    (which may be a itself) or a new array."""
    b = np.multiply(a, (p[0][:, None] * p[1][None, :])[:, :, None], out=out)
    return np.multiply(b, p[2], out=b)


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
    if not src.is_fourier_pair(dst):
        raise GridMismatchError("Fourier bridge: inconsistent grids")
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


def position_density(parts: KspaceParts, t, c=1.0) -> np.ndarray:
    """F*.F of the position field at time t, on the dual of parts.grid,
    without building that field: each component of Ftilde(k, t) is
    transformed in place and its re^2 + im^2 added to one real density.
    The output-side DFT phases are unimodular and drop out of |F|^2."""
    kgrid = parts.grid
    rgrid = kgrid.fourier_dual()
    pins, _ = _dft_phases(kgrid, rgrid, +1)
    d = np.zeros(rgrid.counts)
    for comp in parts.components(t, c):
        x = _fft(comp, pins, +1, out=comp)
        d += x.real ** 2
        d += x.imag ** 2
    d *= _dft_scale(kgrid, +1) ** 2
    return d


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def norm(obj, rule=None) -> float:
    """Energy norm of a FieldGrid (grid path) or HelicityAmplitudePair
    (amplitude path); both agree by the Plancherel theorem.

    Grid path: N = Int F*.F dV, a Riemann sum with cell-volume weights over
    one density pass; a zero or non-finite N raises DegenerateFieldError.
    Amplitude path: N = Int d3k (|f+|^2 + |f-|^2) from the amplitude-path
    engine of moments, i.e. the finer rule of the nested spherical Gauss
    pair (or of `rule` and rule.refined() when given) for closures and
    Riemann sums for sampled amplitudes.
    """
    if isinstance(obj, FieldGrid):
        n = float(obj.density().sum() * obj.grid.cell_volume)
        if not np.isfinite(n) or n <= 0.0:
            raise DegenerateFieldError("norm: zero or non-finite field norm")
        return n
    if isinstance(obj, HelicityAmplitudePair):
        from .moments import _amp_moments  # local import to avoid a cycle

        return _amp_moments(obj, rule)[0]
    raise TypeError("norm: expected FieldGrid or HelicityAmplitudePair")
