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

which solve_radial discretizes by Chebyshev collocation on (0, L),
u = 0 at both ends, at the interior points only, so that the 1/kappa^2 pole
is never evaluated.  The error falls faster than any power of the order.
Two solves, of two orders on two spans, give each eigenvalue and its error
estimate, their difference; L stops short of kappa_max where the top
state's tail has died off, and the second span is longer than the first, so
the estimate also shows that a farther wall moves no eigenvalue.
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


N_POINTS_MAX = 1_000_000  # largest sampling grid: 3 states dumped in about 4.4 s and 98 MiB
# rounding floor of an error estimate, in eps * order * gamma_n: the largest
# error of 1042 states (1 to 150 states, walls 8 to 60) was 2.3 of it
ROUNDING = 4.0 * np.finfo(float).eps
CSV_BLOCK_VALUES = 2 ** 14  # values per block of the eigenfunction CSV: about 0.4 MB of text


@dataclass(frozen=True)
class RadialProblem:
    """Dirichlet wall and sampling grid of the radial solve.

    kappa_max >= 8 keeps the Gaussian tails below ~1e-13 at the wall.
    n_points is the grid kappa_max / n_points * (1..n_points - 1) on which
    the eigenfunctions are sampled (and dumped); n_points >= 200 (fewer
    raises ResolutionError) and n_points <= N_POINTS_MAX, which bounds
    that grid's memory (8 bytes per point, and 8 more per state); a larger
    value raises ValueError before anything is allocated, as does a
    kappa_max that is not finite or whose square is not.
    """

    kappa_max: float = 10.0
    n_points: int = 2000

    def __post_init__(self):
        if not np.isfinite(self.kappa_max):  # NaN would pass kappa_max < 8
            raise ValueError(f"RadialProblem: kappa_max must be finite, got {self.kappa_max}")
        if self.kappa_max > np.sqrt(np.finfo(float).max):  # the potential at the wall
            raise ValueError(f"RadialProblem: kappa_max^2 must be finite, got {self.kappa_max}")
        if self.kappa_max < 8.0:
            raise ResolutionError("RadialProblem: kappa_max must be >= 8")
        if self.n_points < 200:
            raise ResolutionError("RadialProblem: n_points must be >= 200")
        if self.n_points > N_POINTS_MAX:
            raise ValueError(f"RadialProblem: n_points must be <= {N_POINTS_MAX}, "
                             f"got {self.n_points}")


@dataclass
class RadialSpectrum:
    """Lowest eigenvalues gamma_n, their error estimates, and the
    eigenfunctions g_n(kappa) sampled on the problem's grid.  orders and
    spans are the two collocation solves', coarse first; the eigenvalues
    and eigenfunctions are the finer's, and each error estimate is the
    difference of the two solves' eigenvalues, or the rounding floor
    ROUNDING * order * gamma_n of the finer if that is larger."""

    eigenvalues: np.ndarray
    error_estimates: np.ndarray
    kappa: np.ndarray
    eigenfunctions: np.ndarray  # shape (n_states, len(kappa))
    orders: tuple
    spans: tuple
    problem: RadialProblem

    def to_dict(self) -> dict:
        return {
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "error_estimates": [float(v) for v in self.error_estimates],
            "grid": {
                "kappa_max": self.problem.kappa_max,
                "n_points": self.problem.n_points,
                "orders": list(self.orders),
                "spans": list(self.spans),
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def eigenfunctions_csv_blocks(self):
        """The sampled eigenfunctions as CSV text in blocks of whole lines:
        the header kappa,g0,g1,..., then one row per kappa node, each value
        its repr.  A block holds about CSV_BLOCK_VALUES values, so writing
        the blocks in turn holds one block's text at a time, whatever the
        grid and state count.

        The eigenfunctions are solved on the span (0, spans[1]) and sampled
        as 0 past it, so this call raises ResolutionError, before any block
        is made, unless at least 20 sampling nodes per state lie inside
        the span: a far kappa_max on few n_points would dump zeros."""
        inside = int(np.searchsorted(self.kappa, self.spans[1]))
        need = 20 * len(self.eigenvalues)
        if inside < need:
            raise ResolutionError(
                f"eigenfunction samples: {inside} nodes of spacing "
                f"{self.problem.kappa_max / self.problem.n_points:.6g} lie inside the "
                f"solve's span (0, {self.spans[1]:.6g}), fewer than 20 per state "
                f"({need}): lower kappa_max (--kappa-max) or raise n_points (--n-points)")
        return self._csv_blocks()

    def _csv_blocks(self):
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


def _nodes(span, order):
    """The Chebyshev points of (0, span), kappa_j = span (1 - cos(j pi /
    order)) / 2 for j = 0..order, increasing."""
    return 0.5 * span * (1.0 - np.cos(np.pi / order * np.arange(order + 1)))


def _chebyshev(order):
    """Second-derivative collocation matrix at the Chebyshev points
    x_j = cos(j pi / order) of [-1, 1], rows and columns of the interior
    points only.  The differences x_i - x_j come from the sine identity
    and the diagonal of the first-derivative matrix from its negative row
    sums, which keeps rounding down (Trefethen's cheb)."""
    j = np.arange(order + 1)
    s = np.pi / (2 * order)
    c = np.where((j == 0) | (j == order), 2.0, 1.0) * (-1.0) ** j
    dx = 2.0 * np.sin((j[:, None] + j) * s) * np.sin((j - j[:, None]) * s)
    np.fill_diagonal(dx, 1.0)
    d = c[:, None] / c / dx
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -d.sum(axis=1))
    return d[1:-1] @ d[:, 1:-1]


def _clenshaw_curtis(order):
    """Weights of the Clenshaw-Curtis rule at the interior Chebyshev points
    of [-1, 1] (the end weights multiply u = 0)."""
    theta = np.pi * np.arange(1, order) / order
    k = np.arange(1, order // 2 + 1)
    b = np.where(2 * k == order, 1.0, 2.0) / (4.0 * k ** 2 - 1.0)
    return 2.0 / order * (1.0 - np.cos(2.0 * np.outer(theta, k)) @ b)


def _collocate(span, order, n_states, vectors=False):
    """Lowest n_states eigenvalues of -u''/2 + (1/kappa^2 + kappa^2/2) u on
    (0, span), u = 0 at both ends, by collocation at the order - 1 interior
    Chebyshev points; with vectors, also the nodes kappa_0..kappa_order and
    the eigenvectors at the interior ones."""
    kappa = _nodes(span, order)  # d^2/dkappa^2 = (2 / span)^2 d^2/dx^2
    a = (-2.0 / span ** 2) * _chebyshev(order)
    a[np.diag_indices_from(a)] += _potential(kappa[1:-1])
    if not vectors:
        vals = np.linalg.eigvals(a)
        return np.sort(vals.real)[:n_states]
    vals, vecs = np.linalg.eig(a)
    low = np.argsort(vals.real)[:n_states]
    return vals.real[low], kappa, vecs.real[:, low]


def _interpolate(nodes, values, points, out):
    """out[:, i] = the polynomial through (nodes, values) at points[i], by the
    barycentric formula of the Chebyshev points (weights (-1)^j, halved at
    the ends), in blocks of points, so that no len(points) x len(nodes)
    array is formed.  A point that is a node takes that node's values."""
    w = (-1.0) ** np.arange(nodes.size)
    w[[0, -1]] *= 0.5
    rows = max(1, 2 ** 18 // nodes.size)  # a block of at most 2^18 values, 2 MB
    for start in range(0, points.size, rows):
        diff = points[start:start + rows, None] - nodes
        hit = np.nonzero(diff == 0.0)
        diff[hit] = 1.0
        c = w / diff
        block = (c @ values) / c.sum(axis=1)[:, None]
        block[hit[0]] = values[hit[1]]
        out[:, start:start + rows] = block.T


def solve_radial(problem: RadialProblem, n_states: int = 3) -> RadialSpectrum:
    """Lowest n_states eigenpairs of the dimensionless radial operator.

    The sampled eigenfunctions take 8 n_states n_points bytes, so
    n_states * n_points <= 10 N_POINTS_MAX (80 MB) is required; a larger
    product raises ValueError before the solve."""
    if n_states < 1:
        raise ValueError("solve_radial: n_states must be >= 1")
    n = problem.n_points
    if n_states > n // 20:
        raise ResolutionError("solve_radial: too many states for this grid")
    # Dirichlet wall must sit beyond the classical turning point of the
    # highest requested state, with room for the tail to die off.
    gamma_top = 2.5 + 2.0 * (n_states - 1)
    turn = np.sqrt(2.0 * gamma_top)
    if problem.kappa_max < turn + 3.0:
        raise ResolutionError("solve_radial: kappa_max too small for n_states")
    if n_states * n > 10 * N_POINTS_MAX:
        raise ValueError(f"solve_radial: n_states * n_points (--n-states * --n-points) "
                         f"must be <= {10 * N_POINTS_MAX}, got {n_states} * {n}")

    # Past the turning point the top state decays as e^{-S}, and S reaches
    # depth within (3 depth / (2 sqrt(2 turn)))^(2/3) of it (the Airy form,
    # which underestimates S).  A wall at depth 16 or 20 moves no eigenvalue
    # by as much as rounding, so the solve stops there when kappa_max lies
    # beyond: its cost does not grow with the wall.  An order of
    # span (turn + 2.4) / 2 + 15 gets the top state to about 1e-12 (fitted
    # for spans 8 to 28 and 1 to 100 states); the coarse solve adds 9 to it
    # and the fine one 17.
    spans = [min(problem.kappa_max, turn + (1.5 * depth / np.sqrt(2.0 * turn)) ** (2.0 / 3.0))
             for depth in (16.0, 20.0)]
    orders = [int(span * (turn + 2.4) / 2.0) + extra for span, extra in zip(spans, (24, 32))]
    coarse = _collocate(spans[0], orders[0], n_states)
    vals, nodes, u = _collocate(spans[1], orders[1], n_states, vectors=True)

    values = np.zeros((nodes.size, n_states))
    values[1:-1] = u
    # normalize Int kappa^2 g^2 dkappa = Int u^2 dkappa = 1 by the
    # Clenshaw-Curtis rule of twice the order, exact for the square of u's
    # polynomial, then make the largest node value positive
    fine = np.empty((n_states, 2 * orders[1] - 1))
    _interpolate(nodes, values, _nodes(spans[1], 2 * orders[1])[1:-1], fine)
    values /= np.sqrt(0.5 * spans[1] * (fine ** 2 @ _clenshaw_curtis(2 * orders[1])))
    values *= np.sign(values[np.argmax(np.abs(values), axis=0), np.arange(n_states)])

    kappa = problem.kappa_max / n * np.arange(1, n)  # the sampling grid
    funcs = np.zeros((n_states, kappa.size))  # u = 0 past the span
    inside = np.searchsorted(kappa, spans[1])
    _interpolate(nodes, values, kappa[:inside], funcs[:, :inside])
    funcs[:, :inside] /= kappa[:inside]  # g = u / kappa

    return RadialSpectrum(
        eigenvalues=vals,
        error_estimates=np.maximum(np.abs(vals - coarse), ROUNDING * orders[1] * vals),
        kappa=kappa,
        eigenfunctions=funcs,
        orders=tuple(orders),
        spans=tuple(float(v) for v in spans),
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

