"""Shared test oracles, kept independent of the code paths they check."""

from fractions import Fraction
import itertools

import mpmath as mp
import numpy as np
import pytest


# ---------------------------------------------------------------------------
# arbitrary-precision Dawson oracles
# ---------------------------------------------------------------------------

def dawson_series_oracle(w, extra_dps=40):
    """Maclaurin series D(w) = sum_n (-1)^n 2^n w^(2n+1)/(2n+1)!! summed in
    arbitrary precision until the terms fall below eps * |sum|."""
    dps = extra_dps + int(float(w) ** 2)
    with mp.workdps(dps):
        wm = mp.mpf(w)
        term = wm
        total = wm
        n = 0
        while True:
            n += 1
            term = term * (-2) * wm * wm / (2 * n + 1)
            total += term
            if abs(term) < mp.eps * (abs(total) + 1):
                break
        return float(total)


def dawson_erfi_oracle(w, dps=30):
    """D(w) = sqrt(pi)/2 e^{-w^2} erfi(w), via mpmath's erfi."""
    with mp.workdps(dps):
        wm = mp.mpf(w)
        return float(mp.sqrt(mp.pi) / 2 * mp.exp(-wm * wm) * mp.erfi(wm))


# ---------------------------------------------------------------------------
# exact-rational Laguerre oracle
# ---------------------------------------------------------------------------

def laguerre_halfint_oracle(n, alpha2, x_frac):
    """L_n^{alpha}(x) with alpha = alpha2/2 by the explicit sum

        L_n^a(x) = sum_k binom(n+a, n-k) (-x)^k / k!

    in exact rational arithmetic (alpha2 integer, x a Fraction)."""
    a = Fraction(alpha2, 2)
    x = Fraction(x_frac)
    total = Fraction(0)

    def binom_frac(top, j):
        # generalized binomial with Fraction top, integer j
        num = Fraction(1)
        for i in range(j):
            num *= top - i
        den = Fraction(1)
        for i in range(1, j + 1):
            den *= i
        return num / den

    fact = Fraction(1)
    for k in range(n + 1):
        if k > 0:
            fact *= k
        total += binom_frac(n + a, n - k) * (-x) ** k / fact
    return total


# ---------------------------------------------------------------------------
# adaptive quadrature oracle for azimuthally symmetric densities
# ---------------------------------------------------------------------------

def second_moment_oracle(density_cyl, r_max, epsrel=1e-10):
    """(Dr^2, N) for a density d(rho, z) (already |F|^2, phi-independent),
    via nested adaptive quadrature in cylindrical coordinates."""
    from scipy import integrate

    def n_int(rho, z):
        return 2 * np.pi * rho * density_cyl(rho, z)

    def m_int(rho, z):
        return 2 * np.pi * rho * (rho * rho + z * z) * density_cyl(rho, z)

    kw = dict(epsabs=1e-13, epsrel=epsrel)
    N = integrate.dblquad(lambda z, rho: n_int(rho, z), 1e-12, r_max,
                          lambda _: -r_max, lambda _: r_max, **kw)[0]
    M = integrate.dblquad(lambda z, rho: m_int(rho, z), 1e-12, r_max,
                          lambda _: -r_max, lambda _: r_max, **kw)[0]
    return M / N, N


# ---------------------------------------------------------------------------
# finite-difference helpers
# ---------------------------------------------------------------------------

def central_diff(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def central_diff2(f, x, h):
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def mixed_partial_4th(f, p, i, j, h):
    """4th-order mixed second partial d^2 f / dx_i dx_j at point p (len-4:
    x, y, z, t), treating f as f(x, y, z, t)."""
    def shift(di, dj):
        q = list(p)
        q[i] += di * h
        q[j] += dj * h
        return f(*q)

    # derivative of a 4th-order first derivative, applied twice
    c = [1.0, -8.0, 8.0, -1.0]
    o = [-2, -1, 1, 2]
    acc = 0.0
    for ci, oi in zip(c, o):
        inner = 0.0
        for cj, oj in zip(c, o):
            inner += cj * shift(oi, oj)
        acc += ci * inner
    return acc / (12.0 * h) ** 2


def second_partial_4th(f, p, i, h):
    def shift(d):
        q = list(p)
        q[i] += d * h
        return f(*q)

    return (
        -shift(-2) + 16 * shift(-1) - 30 * shift(0) + 16 * shift(1) - shift(2)
    ) / (12.0 * h * h)


# ---------------------------------------------------------------------------
# random amplitude pairs for property suites
# ---------------------------------------------------------------------------

def random_amplitude(rng, max_degree=2):
    """Random Gaussian-enveloped polynomial amplitude, vanishing on the
    kz-axis (k_perp prefactor)."""
    from rsuncert import PolynomialGaussianAmplitude

    alpha = float(rng.uniform(0.35, 1.8))
    terms = {}
    n_terms = rng.integers(2, 6)
    for _ in range(n_terms):
        i, j, l = (int(v) for v in rng.integers(0, max_degree + 1, size=3))
        if i + j + l > max_degree + 1:
            continue
        terms[(i, j, l)] = complex(rng.normal(), rng.normal())
    if not terms:
        terms[(0, 0, 0)] = 1.0 + 0.0j
    return PolynomialGaussianAmplitude(terms, alpha)


def random_pair(rng, allow_single=True):
    from rsuncert import HelicityAmplitudePair

    mode = rng.integers(0, 3) if allow_single else 2
    fp = random_amplitude(rng) if mode != 1 else None
    fm = random_amplitude(rng) if mode != 0 else None
    return HelicityAmplitudePair(fp, fm)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def node_route_pair(c_plus, c_minus, a):
    """saturating_amplitudes(c_plus, c_minus, a) written as polynomial
    amplitudes, C k_perp e^{-a^2 k^2/2}: the same field (to rounding), but
    synthesized through the node route (_NodeParts: per-node tables, FFT
    densities), not the radial route's radius table, gather and octant
    transforms, so it is a reference for the latter."""
    from rsuncert import HelicityAmplitudePair, PolynomialGaussianAmplitude

    def amp(C):
        return PolynomialGaussianAmplitude({(0, 0, 0): C}, a * a / 2.0) if C else None

    return HelicityAmplitudePair(amp(c_plus), amp(c_minus))


def unfold_octant(dp):
    """The whole cube of a radial-route density from its positive-octant
    values D+ (_RadialParts.octants), by the eight-reflection rule: the
    octant reflected by (sx, sy, sz) holds D+ if sx sy sz = 1 and
    D+^T (x <-> y) otherwise."""
    h = dp.shape[0]
    halves = {1: slice(h, None), -1: slice(h - 1, None, -1)}
    d = np.empty((2 * h,) * 3)
    for signs in itertools.product((1, -1), repeat=3):
        block = dp if np.prod(signs) == 1 else dp.transpose(1, 0, 2)
        d[tuple(halves[s] for s in signs)] = block
    return d
