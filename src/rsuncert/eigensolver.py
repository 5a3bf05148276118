"""Dimensionless radial eigenproblem of the variational bound.

The stationarity condition for the uncertainty product reduces (after the
substitution f = k_perp g(k)/k and rescaling to kappa) to

    1/2 [ -d^2/dkappa^2 - (2/kappa) d/dkappa + 2/kappa^2 + kappa^2 ] g
        = gamma g,

a radially symmetric 3D harmonic oscillator in the l = 1 sector.  Its exact
spectrum is gamma_n = 5/2 + 2n with eigenfunctions

    g_n(kappa) = kappa exp(-kappa^2/2) L_n^{3/2}(kappa^2),

the n = 0 value being the uncertainty bound 5/2.  (The Laguerre argument is
kappa^2, as the operator-residual tests verify.)

Numerics: substituting u = kappa g removes the first-derivative term,

    -1/2 u'' + (1/kappa^2 + kappa^2/2) u = gamma u,   u(0) = 0,

which is discretized by symmetric second-order central differences with
Dirichlet ends and solved as a symmetric tridiagonal eigenproblem.
Eigenvalues converge quadratically in the grid spacing.  solve_radial
returns the single-grid values and does no extrapolation; a caller that
combines two grids, (4 gamma(h/2) - gamma(h)) / 3, gains two further
orders, as the acceptance test does.
"""

from __future__ import annotations

from dataclasses import dataclass
import json

import numpy as np

from .errors import ResolutionError
from .specfun import laguerre_general

__all__ = [
    "RadialProblem",
    "RadialSpectrum",
    "solve_radial",
    "analytic_eigenfunction",
    "rayleigh_quotient",
]


N_POINTS_MAX = 1_000_000  # largest radial grid: about 2.5 s and 200 MB
CSV_BLOCK_VALUES = 2 ** 14  # values per block of the eigenfunction CSV: about 0.4 MB of text


@dataclass(frozen=True)
class RadialProblem:
    """Domain cutoff and grid size for the radial solve.

    kappa_max >= 8 keeps the Gaussian tails below ~1e-13 at the Dirichlet
    wall; n_points >= 200 is the coarsest grid worth solving on (coarser
    raises ResolutionError).  n_points <= N_POINTS_MAX bounds the memory
    of the solve, which grows by about 150 bytes per point; a larger
    value raises ValueError before anything is allocated, as does a
    non-finite kappa_max.
    """

    kappa_max: float = 10.0
    n_points: int = 2000

    def __post_init__(self):
        if not np.isfinite(self.kappa_max):  # NaN would pass kappa_max < 8
            raise ValueError(f"RadialProblem: kappa_max must be finite, got {self.kappa_max}")
        if self.kappa_max < 8.0:
            raise ResolutionError("RadialProblem: kappa_max must be >= 8")
        if self.n_points < 200:
            raise ResolutionError("RadialProblem: n_points must be >= 200")
        if self.n_points > N_POINTS_MAX:
            raise ValueError(f"RadialProblem: n_points must be <= {N_POINTS_MAX}, "
                             f"got {self.n_points}")


@dataclass
class RadialSpectrum:
    """Lowest eigenvalues gamma_n, sampled eigenfunctions g_n(kappa) and
    discrete operator-residual norms."""

    eigenvalues: np.ndarray
    kappa: np.ndarray
    eigenfunctions: np.ndarray  # shape (n_states, len(kappa))
    residuals: np.ndarray
    problem: RadialProblem

    def to_dict(self) -> dict:
        return {
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "residuals": [float(v) for v in self.residuals],
            "grid": {
                "kappa_max": self.problem.kappa_max,
                "n_points": self.problem.n_points,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def eigenfunctions_csv_blocks(self):
        """The sampled eigenfunctions as CSV text in blocks of whole lines:
        the header kappa,g0,g1,..., then one row per kappa node, each value
        its repr.  A block holds about CSV_BLOCK_VALUES values, so writing
        the blocks in turn holds one block's text at a time, whatever the
        grid and state count."""
        cols = ["kappa"] + [f"g{n}" for n in range(len(self.eigenvalues))]
        yield ",".join(cols) + "\n"
        rows = max(1, CSV_BLOCK_VALUES // len(cols))
        for start in range(0, self.kappa.size, rows):
            stop = start + rows
            block = zip(self.kappa[start:stop].tolist(),
                        self.eigenfunctions[:, start:stop].T.tolist())
            yield "".join(f"{k!r},{','.join(map(repr, g))}\n" for k, g in block)


def _potential(kappa):
    return 1.0 / kappa ** 2 + 0.5 * kappa ** 2


def _simpson(y, x):
    """Int y dx over the increasing 1D nodes x (at least 3) by the composite
    Simpson rule, in the arithmetic of scipy.integrate.simpson(y, x=x): parabolas
    through each pair of spacings, and for an even node count Cartwright's
    correction of the last interval.  Importing scipy.integrate for it
    would pull in scipy.optimize, sparse and spatial."""
    n = y.size
    stop = n - 2 if n % 2 else n - 3  # pairs of intervals start before stop
    d = np.diff(x)
    h0, h1 = d[0:stop:2], d[1:stop + 1:2]
    hsum = h0 + h1
    hprod = h0 * h1
    h0divh1 = h0 / h1
    result = np.sum(hsum / 6.0 * (y[0:stop:2] * (2.0 - 1.0 / h0divh1)
                                  + y[1:stop + 1:2] * (hsum * (hsum / hprod))
                                  + y[2:stop + 2:2] * (2.0 - h0divh1)))
    if n % 2 == 0:
        # 0-d arrays, as in scipy, so that the powers take the same path
        a, b = np.asarray(d[-2]), np.asarray(d[-1])
        alpha = (2 * b ** 2 + 3 * a * b) / (6 * (b + a))
        beta = (b ** 2 + 3.0 * a * b) / (6 * a)
        eta = b ** 3 / (6 * a * (a + b))
        result += alpha * y[-1] + beta * y[-2] - eta * y[-3]
    return result


def solve_radial(problem: RadialProblem, n_states: int = 3) -> RadialSpectrum:
    """Lowest n_states eigenpairs of the dimensionless radial operator.

    The eigenvectors and the sampled eigenfunctions take 16 n_states
    n_points bytes, so n_states * n_points <= 10 N_POINTS_MAX (160 MB) is
    required; a larger product raises ValueError before the solve."""
    # scipy.linalg (LAPACK's tridiagonal solver) is imported here, not at
    # module level, so that importing the package does not pay for it
    from scipy.linalg import eigh_tridiagonal

    if n_states < 1:
        raise ValueError("solve_radial: n_states must be >= 1")
    n = problem.n_points
    if n_states > n // 20:
        raise ResolutionError("solve_radial: too many states for this grid")
    # Dirichlet wall must sit beyond the classical turning point of the
    # highest requested state, with room for the tail to die off.
    gamma_top = 2.5 + 2.0 * (n_states - 1)
    if problem.kappa_max < np.sqrt(2.0 * gamma_top) + 3.0:
        raise ResolutionError("solve_radial: kappa_max too small for n_states")
    if n_states * n > 10 * N_POINTS_MAX:
        raise ValueError(f"solve_radial: n_states * n_points (--n-states * --n-points) "
                         f"must be <= {10 * N_POINTS_MAX}, got {n_states} * {n}")

    h = problem.kappa_max / n
    kappa = h * np.arange(1, n)  # interior nodes; u(0) = u(kappa_max) = 0
    diag = 1.0 / h ** 2 + _potential(kappa)
    off = np.full(n - 2, -0.5 / h ** 2)
    vals, vecs = eigh_tridiagonal(diag, off, select="i",
                                  select_range=(0, n_states - 1))

    funcs = np.empty((n_states, kappa.size))
    residuals = np.empty(n_states)
    for m in range(n_states):
        u = vecs[:, m]
        # normalize Int kappa^2 g^2 dkappa = Int u^2 dkappa = 1
        u = u / np.sqrt(_simpson(u ** 2, kappa))
        if u[np.argmax(np.abs(u))] < 0:
            u = -u
        g = u / kappa
        funcs[m] = g
        Hu = np.empty_like(u)
        Hu[1:-1] = -0.5 * (u[2:] - 2 * u[1:-1] + u[:-2]) / h ** 2
        Hu[0] = -0.5 * (u[1] - 2 * u[0]) / h ** 2
        Hu[-1] = -0.5 * (-2 * u[-1] + u[-2]) / h ** 2
        Hu += _potential(kappa) * u
        residuals[m] = np.linalg.norm(Hu - vals[m] * u) / np.linalg.norm(u)

    return RadialSpectrum(
        eigenvalues=np.asarray(vals),
        kappa=kappa,
        eigenfunctions=funcs,
        residuals=residuals,
        problem=problem,
    )


def analytic_eigenfunction(n, kappa):
    """Unnormalized exact eigenfunction kappa e^{-kappa^2/2} L_n^{3/2}(kappa^2)."""
    if n < 0:
        raise ValueError("analytic_eigenfunction: n must be >= 0")
    kappa = np.asarray(kappa, dtype=float)
    return kappa * np.exp(-kappa ** 2 / 2.0) * laguerre_general(n, 1.5, kappa ** 2)


def _derivative_4th(u, h):
    """Fourth-order first derivative on a uniform grid."""
    du = np.empty_like(u)
    du[2:-2] = (u[:-4] - 8 * u[1:-3] + 8 * u[3:-1] - u[4:]) / (12 * h)
    # one-sided 4th-order stencils at the edges
    c = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / (12 * h)
    du[0] = c @ u[:5]
    du[1] = c @ u[1:6]
    du[-1] = -(c @ u[-1:-6:-1])
    du[-2] = -(c @ u[-2:-7:-1])
    return du


def rayleigh_quotient(g, kappa) -> float:
    """<g|H|g> / <g|g> for the dimensionless radial operator, evaluated from
    a sampled trial function via the positive quadratic form

        <g|H|g> = Int [ 1/2 u'^2 + (1/kappa^2 + kappa^2/2) u^2 ] dkappa,
        u = kappa g,

    which bounds the true minimum 5/2 from above for any admissible g.
    g and kappa must be finite and kappa uniform, increasing and above 0;
    otherwise ValueError names the argument before any integral.
    """
    g = np.asarray(g, dtype=float)
    kappa = np.asarray(kappa, dtype=float)
    if g.shape != kappa.shape or g.ndim != 1 or g.size < 9:
        raise ValueError("rayleigh_quotient: g and kappa must be equal 1D arrays")
    if not np.all(np.isfinite(g)):
        raise ValueError("rayleigh_quotient: g must be finite")
    if not np.all(np.isfinite(kappa)):
        raise ValueError("rayleigh_quotient: kappa must be finite")
    if np.all(g == 0.0):
        raise ValueError("rayleigh_quotient: zero trial function")
    if kappa[0] <= 0.0:
        raise ValueError("rayleigh_quotient: kappa grid must start above 0")
    if not np.all(np.diff(kappa) > 0.0):
        raise ValueError("rayleigh_quotient: kappa grid must increase")
    h = kappa[1] - kappa[0]
    if not np.allclose(np.diff(kappa), h, rtol=1e-10):
        raise ValueError("rayleigh_quotient: kappa grid must be uniform")
    u = kappa * g
    du = _derivative_4th(u, h)
    num = _simpson(0.5 * du ** 2 + _potential(kappa) * u ** 2, kappa)
    den = _simpson(u ** 2, kappa)
    if den <= 0:
        raise ValueError("rayleigh_quotient: non-normalizable trial function")
    return float(num / den)

