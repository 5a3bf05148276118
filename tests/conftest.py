"""Shared test oracles, kept independent of the code paths they check."""

from fractions import Fraction
import itertools
import math

import mpmath as mp
import numpy as np
import pytest

from rsuncert.analytic_fields import _scalar_blocks
from rsuncert.kspace import (
    FieldGrid,
    Grid3D,
    _add_density,
    _dft_phases,
    _dft_scale,
    _fft,
    _phased,
    polarization,
)
from rsuncert.specfun import dawson


# ---------------------------------------------------------------------------
# arbitrary-precision Dawson oracles
# ---------------------------------------------------------------------------

def dawson_series_oracle(w, dps=40):
    """D(w) = e^{-w^2} sum_n w^(2n+1) / (n! (2n+1)), summed in arbitrary
    precision until a term falls to eps * |sum|.  Every term has the sign
    of w, so no digits cancel and a fixed precision suffices, where the
    alternating Maclaurin series sum_n (-1)^n 2^n w^(2n+1)/(2n+1)!! needs
    about w^2 more digits."""
    with mp.workdps(dps):
        wm = mp.mpf(w)
        w2 = wm * wm
        power = wm  # w^(2n+1) / n!
        total = wm
        n = 0
        while True:
            n += 1
            power = power * w2 / n
            term = power / (2 * n + 1)
            total += term
            if abs(term) <= mp.eps * abs(total):
                break
        return float(mp.exp(-w2) * total)


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


def strong_form_moment(amp, sign, d2h, rule):
    """(N, Dr^2 N) of a radial-profile amplitude f = k_perp h(k^2) of
    helicity sign = +-1 on `rule`, from the strong form of the Dr^2
    integrand, Re f* [f/kp^2 + s (2 i kz)/(k kp^2) d_phi f - Lap_k f], with
    Lap_k f = h/kp + 10 kp h' + 4 k^2 kp h'' and d2h = h''.  Reference for
    the by-parts form that moments evaluates."""
    KX, KY, KZ, W = rule.nodes()
    KP2 = KX * KX + KY * KY
    K2 = KP2 + KZ * KZ
    kp = np.sqrt(KP2)
    f = amp.value(KX, KY, KZ)
    gx, gy, _ = amp.grad(KX, KY, KZ)
    az = (sign * 2.0) * KZ / (np.sqrt(K2) * KP2)
    lap = amp.h(K2) / kp + 10.0 * kp * amp.dh(K2) + 4.0 * K2 * kp * d2h(K2)
    integ = (np.conj(f) * (f / KP2 + 1j * az * (KX * gy - KY * gx) - lap)).real
    return (W * (f.real ** 2 + f.imag ** 2)).sum(), (W * integ).sum()


# ---------------------------------------------------------------------------
# phase-evolved reference closure
# ---------------------------------------------------------------------------

class PhaseEvolved:
    """The amplitude base(k) e^{-ikt} as a closure: value and grad with the
    phase multiplied in at every node, by the product rule
    grad(f e^{-ikt}) = e^{-ikt} (grad f - i t k_hat f).  Reference for a
    pair's time t (HelicityAmplitudePair.t), which moments integrates
    through the identity of its module docstring and kspace phases per
    radius or x-slab."""

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


def phase_evolved_pair(pair, t):
    """The pair's amplitudes at time t as PhaseEvolved closures, in a pair
    at time 0."""
    from rsuncert import HelicityAmplitudePair

    def wrap(amp):
        return None if amp is None else PhaseEvolved(amp, t)

    return HelicityAmplitudePair(wrap(pair.f_plus), wrap(pair.f_minus))


# ---------------------------------------------------------------------------
# closed-form moments of polynomial-Gaussian amplitudes
# ---------------------------------------------------------------------------
# Polynomials are dicts {(i, j, l): complex} of monomials kx^i ky^j kz^l.

def _poly_mul(p, q):
    out = {}
    for (e1, c1), (e2, c2) in itertools.product(p.items(), q.items()):
        e = tuple(a + b for a, b in zip(e1, e2))
        out[e] = out.get(e, 0.0) + c1 * c2
    return out


def _poly_add(*terms):
    """The sum of (scale, polynomial) pairs."""
    out = {}
    for scale, p in terms:
        for e, c in p.items():
            out[e] = out.get(e, 0.0) + scale * c
    return out


def _poly_conj(p):
    return {e: complex(c).conjugate() for e, c in p.items()}


def _poly_diff(p, axis):
    out = {}
    for e, c in p.items():
        if e[axis]:
            d = list(e)
            d[axis] -= 1
            out[tuple(d)] = out.get(tuple(d), 0.0) + e[axis] * c
    return out


def _gauss_integral(p, beta, z_hat=False, inv_k=False):
    """Int d3k p(k) e^{-beta k^2}, times kz/k if z_hat and 1/k if inv_k,
    exactly: each monomial is k^n x^i y^j z^l on the unit sphere
    (n = i + j + l), whose sphere integral 2 G((i+1)/2) G((j+1)/2)
    G((l+1)/2) / G((n+3)/2) vanishes unless i, j and l are all even, times
    the radial moment Int k^(r+2) e^{-beta k^2} dk = G((r+3)/2) /
    (2 beta^((r+3)/2)), r = n (n - 1 with 1/k)."""
    g = math.gamma
    total = 0.0
    for (i, j, l), c in p.items():
        r = i + j + l - inv_k
        l += z_hat
        if i % 2 or j % 2 or l % 2:
            continue
        sphere = 2.0 * g((i + 1) / 2) * g((j + 1) / 2) * g((l + 1) / 2) / g((i + j + l + 3) / 2)
        total += c * sphere * g((r + 3) / 2) / (2.0 * beta ** ((r + 3) / 2))
    return total


def polynomial_gaussian_moments(pair, t=0.0):
    """Exact (N, Dk^2, Dr^2) of a HelicityAmplitudePair of
    PolynomialGaussianAmplitude, f = k_perp P e^{-alpha k^2}, at time t
    (the amplitudes f e^{-ikt}), from the weak form of the Dr^2 integrand
    (moments' module docstring), with kp^2 = kx^2 + ky^2,
    Q_a = d_a P - 2 alpha k_a P, d_phi P = kx d_y P - ky d_x P and the
    Euler operator k.grad P:

        |f|^2          = kp^2 |P|^2 E
        |grad f|^2     = [|P|^2 + 2 Re P* (kx Q_x + ky Q_y)
                          + kp^2 (|Q_x|^2 + |Q_y|^2 + |Q_z|^2)] E
        |f|^2 / kp^2   = |P|^2 E
        Im f* d_phi f  = kp^2 Im(P* d_phi P) E
        Im f* d_k f    = kp^2 Im(P* k.grad P) E / k

    with E = e^{-2 alpha k^2}, summed over f+ (s = +1) and f- (s = -1);
    the phase adds t^2 |f|^2 - 2 t Im f* d_k f to |grad f|^2."""
    x, y, z = {(1, 0, 0): 1.0}, {(0, 1, 0): 1.0}, {(0, 0, 1): 1.0}
    kp2 = _poly_add((1.0, _poly_mul(x, x)), (1.0, _poly_mul(y, y)))
    k2 = _poly_add((1.0, kp2), (1.0, _poly_mul(z, z)))
    n = mk = mr = 0.0
    for amp, s in ((pair.f_plus, 1.0), (pair.f_minus, -1.0)):
        if amp is None:
            continue
        P, alpha = dict(amp.terms), amp.alpha
        beta = 2.0 * alpha
        Pc = _poly_conj(P)
        P2 = _poly_mul(Pc, P)
        Q = [_poly_add((1.0, _poly_diff(P, a)), (-2.0 * alpha, _poly_mul(k, P)))
             for a, k in enumerate((x, y, z))]
        Q2 = _poly_add(*((1.0, _poly_mul(_poly_conj(q), q)) for q in Q))
        cross = _poly_mul(Pc, _poly_add((1.0, _poly_mul(x, Q[0])), (1.0, _poly_mul(y, Q[1]))))
        dphi = _poly_add((1.0, _poly_mul(x, _poly_diff(P, 1))),
                         (-1.0, _poly_mul(y, _poly_diff(P, 0))))
        euler = {e: sum(e) * c for e, c in P.items()}
        na = _gauss_integral(_poly_mul(kp2, P2), beta).real
        n += na
        mk += _gauss_integral(_poly_mul(k2, _poly_mul(kp2, P2)), beta).real
        mr += (_gauss_integral(_poly_add((2.0, P2), (2.0, cross), (1.0, _poly_mul(kp2, Q2))),
                               beta).real
               - 2.0 * s * _gauss_integral(_poly_mul(Pc, dphi), beta, z_hat=True).imag
               + t * t * na
               - 2.0 * t * _gauss_integral(_poly_mul(kp2, _poly_mul(Pc, euler)), beta,
                                           inv_k=True).imag)
    return n, mk / n, mr / n


def closed_form_reference(amp, sign, t=0.0):
    """((N, Mk, Mr, Mr_abs), [(N, Mk, Mr), their rounding bounds]) of a
    PolynomialGaussianAmplitude of helicity sign at time t, by the formula
    of moments._closed_form_matrices with one three-factor gather per
    shifted Gaussian moment G(m + s): the engine's kernel before it took
    all 14 shifts in one gather per axis, kept as its bit-for-bit
    reference (the same factors, products and sums in the same order)."""
    from rsuncert.moments import _CLOSED_FORM_ULPS, _half_gamma_ratios

    terms = amp.terms
    e = np.array(list(terms), dtype=np.intp)
    c = np.array([complex(v) for v in terms.values()])
    alpha = amp.alpha
    beta = 2.0 * alpha
    mx, my, mz = np.moveaxis(e[:, None, :] + e[None, :, :] + 2, -1, 0)
    top = 2 * int(e.max()) + 4
    g = np.zeros(top + 3)
    g[2::2] = np.sqrt(np.pi / beta) * np.cumprod(
        np.concatenate(([1.0], np.arange(1, top, 2) / beta / 2.0)))

    def G(sx, sy, sz):
        return g[mx + sx] * g[my + sy] * g[mz + sz]

    def pair_sum(v):
        return v[:, None] + v[None, :]

    perp = pair_sum(e[:, 0] + e[:, 1])
    deg = pair_sum(e.sum(axis=1))
    bx, by, bz = (e[:, None, a] * e[None, :, a] for a in range(3))
    g0 = G(0, 0, 0)
    n_m = G(2, 0, 0) + G(0, 2, 0)
    mk_m = G(4, 0, 0) + G(0, 4, 0) + 2.0 * G(2, 2, 0) + G(2, 0, 2) + G(0, 2, 2)
    shifted = ((bx + by) * g0 + by * G(2, -2, 0) + bz * G(2, 0, -2)
               + bx * G(-2, 2, 0) + bz * G(0, 2, -2))
    drift = 2.0 * alpha * (2 + deg) * n_m
    mr_pos = (2 + perp) * g0 + 4.0 * alpha * alpha * mk_m + shifted
    dx, dy = (e[None, :, a] - e[:, None, a] for a in range(2))
    ratios = np.sqrt(beta) * _half_gamma_ratios(int(deg.max()) + 4)
    r = ratios[deg + 3]
    zxy, zyx = r * G(1, -1, 1), r * G(-1, 1, 1)
    mr_m = mr_pos - drift + 1j * sign * (dy * zxy - dx * zyx)
    mr_abs = mr_pos + drift + np.abs(dy) * zxy + np.abs(dx) * zyx
    if t:
        ddeg = dx + dy + e[None, :, 2] - e[:, None, 2]  # |e'| - |e|
        phi = ratios[deg + 4] * n_m
        mr_m = mr_m + t * t * n_m + 1j * t * ddeg * phi
        mr_abs = mr_abs + t * t * n_m + abs(t) * np.abs(ddeg) * phi
    ac = np.abs(c)
    out = np.empty((2, 3))
    for q, (m, m_abs) in enumerate(((n_m, n_m), (mk_m, mk_m), (mr_m, mr_abs))):
        out[0, q] = (np.conj(c) @ m @ c).real
        out[1, q] = ac @ m_abs @ ac
    out[1] *= _CLOSED_FORM_ULPS * np.finfo(float).eps
    return (n_m, mk_m, mr_m, mr_abs), out


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


def radial_operator_apply(g, kappa):
    """Finite-difference application of the radial operator
    1/2 [ -g'' - (2/kappa) g' + (2/kappa^2) g + kappa^2 g ]
    to g sampled on a uniform kappa grid, with fourth-order central
    stencils; the two values at each end have no stencil and are NaN."""
    h = kappa[1] - kappa[0]
    dg = np.full_like(g, np.nan)
    d2g = np.full_like(g, np.nan)
    dg[2:-2] = (g[:-4] - 8 * g[1:-3] + 8 * g[3:-1] - g[4:]) / (12 * h)
    d2g[2:-2] = (-g[:-4] + 16 * g[1:-3] - 30 * g[2:-2] + 16 * g[3:-1] - g[4:]) / (12 * h * h)
    return 0.5 * (-d2g - 2.0 / kappa * dg + 2.0 / kappa ** 2 * g + kappa ** 2 * g)


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
    synthesized through the node route (_NodeParts: per-node tables formed
    a slab at a time, FFT densities), not the radial route's radius table,
    gather and octant transforms, so it is a reference for the latter."""
    from rsuncert import HelicityAmplitudePair, PolynomialGaussianAmplitude

    def amp(C):
        return PolynomialGaussianAmplitude({(0, 0, 0): C}, a * a / 2.0) if C else None

    return HelicityAmplitudePair(amp(c_plus), amp(c_minus))


def sampled_kspace_field(f_plus, f_minus, kgrid):
    """The wavevector FieldGrid e(k) f+(k) + e*(k) conj f-(-k) of helicity
    amplitudes sampled on kgrid (arrays of shape kgrid.counts, None for a
    zero amplitude), through the public polarization frame.  conj f-(-k)
    is taken by index reversal, which needs a kgrid symmetric about k = 0,
    as Grid3D.centered(...).fourier_dual() is."""
    e = np.stack(np.broadcast_arrays(*polarization(*kgrid.meshes())), axis=-1)
    vals = np.zeros(kgrid.counts + (3,), dtype=complex)
    if f_plus is not None:
        vals += e * f_plus[..., None]
    if f_minus is not None:
        vals += np.conj(e) * np.conj(f_minus[::-1, ::-1, ::-1])[..., None]
    return FieldGrid(vals, kgrid, "wavevector")


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


def spy_densities(monkeypatch):
    """The densities a grid report reduces (kspace._density_stats), each
    copied as given, in order: position space first."""
    from rsuncert import kspace

    got = []
    real = kspace._density_stats

    def spy(d, grid):
        got.append(d.copy(order="K"))
        return real(d, grid)

    monkeypatch.setattr(kspace, "_density_stats", spy)
    return got


# ---------------------------------------------------------------------------
# full-cube density arrays of a field (octant-route reference)
# ---------------------------------------------------------------------------

def _stream_densities(field: FieldGrid, source=True):
    """Reduce a FieldGrid to densities, one component at a time: (density
    on its grid or None if not source, density of the unitary transform on
    the dual grid, the dual grid).

    Each component is copied into one buffer: its density is added, it is
    transformed in place and the density of the result is added.  The
    output-side DFT phases are unimodular and never applied.
    """
    grid = field.grid
    sign = +1 if field.space == "wavevector" else -1
    dual = grid.fourier_dual()
    pins, _ = _dft_phases(grid, dual, sign)
    d_src = np.zeros(grid.counts) if source else None
    d_dual = np.zeros(dual.counts)
    comp = np.empty(grid.counts, dtype=complex)
    for c in range(3):
        np.copyto(comp, field.values[..., c])
        if source:
            _add_density(d_src, comp)
        _add_density(d_dual, _fft(_phased(comp, pins, out=comp), sign))
    d_dual *= _dft_scale(grid, sign) ** 2
    return d_src, d_dual, dual


# ---------------------------------------------------------------------------
# closed-form field references
# ---------------------------------------------------------------------------

def scalar_generator(r, t, spec, helicity=+1):
    """Per-helicity closed-form scalar

        Fgen_{+-}(r,t) = 1/(2ar) [D(l+) + D(l-) -+ i sqrt(pi)/2 (e^{-l+^2}-e^{-l-^2})]

    with the upper sign for helicity=+1: the scalar G of
    analytic_fields._scalar_blocks with A = sqrt(2 pi)/2 (so nu A = 1/(2a))
    and B = -+ i sqrt(pi)/2 A."""
    A = np.sqrt(2.0 * np.pi) / 2.0
    G = _scalar_blocks(r, t, spec.a, A, -helicity * 1j * np.sqrt(np.pi) / 2.0 * A)[3]
    return complex(G) if G.ndim == 0 else G


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
    sqpi = np.sqrt(np.pi)
    out = np.empty(points.shape, dtype=np.complex128)
    out[..., 0] = pref * (sqpi * y * r ** 5 * gauss - x * z * Q)
    out[..., 1] = pref * (-sqpi * x * r ** 5 * gauss - y * z * Q)
    out[..., 2] = pref * (
        np.sqrt(2.0) * a * r * (s * (a * a + r2) - 2.0 * a * a * z * z)
        - 2.0 * ((a ** 4 + r2 * r2) * s - 2.0 * a * a * z * z * (a * a + r2)) * Dl
    )
    return out


def _check_unit_axis(n):
    n = np.asarray(n, dtype=float)
    if n.shape != (3,):
        raise ValueError("axis must be a 3-vector")
    if abs(np.linalg.norm(n) - 1.0) > 1e-12:
        raise ValueError("axis must be a unit vector")
    return n


def rotate(F, n, phi):
    """Rotate a (generally complex) 3-vector field about the unit axis n:
    F' = F cos(phi) + n x F sin(phi) + n (n.F) (1 - cos(phi)).  A complex
    angle phi = -i h psi is the Lorentz boost of a helicity-h
    eigen-wavefunction along n with rapidity psi."""
    n = _check_unit_axis(n)
    F = np.asarray(F, dtype=np.complex128)
    nxF = np.cross(np.broadcast_to(n, F.shape), F)
    ndF = F @ n
    return F * np.cos(phi) + nxF * np.sin(phi) + np.multiply.outer(ndF, n) * (1.0 - np.cos(phi))


# ---------------------------------------------------------------------------
# unitary analysis, the inverse of kspace.fourier_to_position
# ---------------------------------------------------------------------------

def fourier_to_kspace(fieldR: FieldGrid) -> FieldGrid:
    """Unitary analysis Ftilde(k) = (2pi)^(-3/2) Int d3r F(r) e^{-i k.r} of a
    position field, on the dual grid, one component at a time: the same
    steps as kspace.fourier_to_position with the sign of the exponent
    flipped."""
    assert fieldR.space == "position", fieldR.space
    src = fieldR.grid
    dst = src.fourier_dual()
    pins, pouts = _dft_phases(src, dst, -1)
    pouts[2] = pouts[2] * _dft_scale(src, -1)
    vals = np.empty_like(fieldR.values)
    for comp in range(3):
        x = _fft(_phased(fieldR.values[..., comp], pins), -1)
        _phased(x, pouts, out=vals[..., comp])
    return FieldGrid(vals, dst, "wavevector")
