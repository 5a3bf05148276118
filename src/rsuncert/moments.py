"""Variance engine: second moments of the field energy density about the
coordinate origin, in position and wavevector space, the uncertainty product
and the massless-particle bound.

Both moments are taken about the ORIGIN, with no centroid subtraction:

    Dr^2 = Int d3r r^2 F*.F / Int d3r F*.F        (position grid path)
    Dk^2 = Int d3k k^2 Ft*.Ft / Int d3k Ft*.Ft    (wavevector path)

This differs from the statistics convention; translating a field changes
Dr^2.

Amplitude path.  In terms of helicity amplitudes the same moments read
(summed over both helicities, s = +1 for f+ and s = -1 for f-)

    Dk^2 N = Int d3k k^2 |f|^2
    Dr^2 N = Int d3k f* [ f/kp^2 + s (2 i kz)/(k kp^2) (kx d_ky - ky d_kx) f
                          - Lap_k f ]
           = Int d3k [ |grad f|^2 + |f|^2/kp^2
                       - s (2 kz)/(k kp^2) Im(f* d_phi f) ]    (by parts)

with kp^2 = kx^2 + ky^2.  The helicity sign s comes from the frame: f-
enters the field as e*(k) conj(f-)(-k), not as e(k) f+(k), which reverses
the azimuthal term.  The second (by-parts) form needs only first
derivatives and is the one evaluated.

A pair at time t (HelicityAmplitudePair.t) has the amplitudes f e^{-ikt},
and |grad(f e^{-ikt})|^2 = |grad f|^2 + t^2 |f|^2 - 2 t Im(f* d_k f) with
d_k f = k.grad f / k; no other term sees the phase.  Both engines add the
two terms (none at t = 0), so Dr^2 N(t) = Dr^2 N(0) + t^2 N + t X.

Integrals: one engine (_amp_moments) evaluates N, Dk^2 N and Dr^2 N per
amplitude, by one of two means, each with an error estimate.
* A PolynomialGaussianAmplitude, k_perp P(k) e^{-alpha k^2}, given no rule
  (evolved and dilated ones too): every term of the by-parts integrand is a
  polynomial times e^{-2 alpha k^2}, the azimuthal one also times kz/k and
  the phase's one times 1/k, so each integral is a finite sum of
  Gamma-function factors: a Hermitian matrix over P's monomials
  (_closed_form_matrices, which takes the 14 shifted Gaussian moments it
  needs in one gather per axis) and its form in P's coefficients
  (_closed_form_integrals).  quad_rel_err is then
  a float rounding bound, a few ulps times the sum of the moduli of the
  terms over the modulus of their sum: 4.6e-15 for the saturating pair,
  4.8e-15 to 2.0e-14 over the benchmark's 80 random pairs (P of degree
  <= 3), and 3.5e-12 for the radial mode L_3^{3/2} expanded into monomials,
  whose coefficients cancel.
* Every other closure, and any closure given an explicit rule: a nested
  pair of spherical rules -- Gauss-Legendre in k on (0, 9 k_scale] and in
  cos(theta), half-offset trapezoid in phi, at 32x20x16 and 48x30x24 nodes.
  A RadialProfileAmplitude's integrands are polynomials of degree <= 2 in
  cos(theta) and constant in phi, so its rules take 4 and 6 nodes in
  cos(theta) and one in phi, exact in angle.  The finer sums are taken,
  and quad_rel_err is the largest relative difference of the three
  between the two rules.  It grows with the polynomial degree of the
  amplitude: measured 2.9e-15 for the saturating pairs, at most 2.5e-13
  over 280 random pairs with P of degree <= 3 (on the full rules), and
  2.8e-15, 1.4e-13, 3.7e-12 and 2.7e-10 for the radial modes
  k_perp L_n^{3/2}(k^2) e^{-k^2/2}, n = 0..3.
A pair that mixes the two reports the larger of the two estimates.
Grid-path reductions are plain Riemann sums, with no error estimate; numpy's
pairwise summation keeps them reproducible at the stated tolerances.

Dr^2, Dk^2 and the norms of both spaces are public only as fields of the
report that uncertainty_product returns.

Grid path.  A grid report is made from three numbers per space, its
density's boundary ratio, second moment and norm (two
kspace._DensityStats).  uncertainty_product takes them, streamed, from
each grid source through the one reducer, kspace._stream_stats, which
takes the source's per-node slabs: a FieldGrid's x-slabs, an .rsf path's
z-slabs (rsfio._file_stats), and, for an amplitude pair on a wavevector
grid, the node route's x-slabs (the radial route reduces its own
octants; kspace._synthesis_parts and its module docstring give both
routes).  The reducer makes one pass per space, position space first,
holding one buffer and one density, and transforms only the field's
nonzero planes, two real ones to an FFT.  No partner FieldGrid is built,
and no field at all for a path or a pair.  The report's truncations()
decide `verify-bound`'s exit 5.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache
import json
import os

import numpy as np

from .errors import DegenerateFieldError, SingularAmplitudeError
from .kspace import (
    FieldGrid,
    Grid3D,
    HelicityAmplitudePair,
    PolynomialGaussianAmplitude,
    RadialProfileAmplitude,
    _stream_stats,
    _synthesis_parts,
    # not called here since grid reports stream; kept as a binding site that
    # bench/selftest.py checks the tracer wraps and restores
    fourier_to_position,  # noqa: F401
)
from .rsfio import _file_stats

__all__ = [
    "BOUND_EM",
    "CylindricalRule",
    "VarianceReport",
    "uncertainty_product",
    "massless_bound",
]

BOUND_EM = 2.5           # proven lower bound of Dr * Dk for the EM field
TRUNCATION_RATIO = 1e-8  # boundary-density / peak-density warning threshold


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _SphericalRule:
    """Tensor quadrature in spherical k-coordinates: Gauss-Legendre in k on
    (0, k_max] and in cos(theta), half-offset trapezoid in phi.

    Every integrand of the amplitude classes here is a polynomial in
    (k, cos theta, sin theta e^{+-i phi}) times a Gaussian in k, so the rule
    converges exponentially.  For k_max = 9 k_scale a radial profile's
    rule and its refinement agree to 2.9e-15 relative for the saturating
    pairs and to 2.7e-10 for the n = 3 radial mode; the difference grows
    with the polynomial degree (see the module docstring)."""

    k_max: float
    n_k: int = 32
    n_theta: int = 20
    n_phi: int = 16

    def nodes(self):
        KX, KY, KZ, W = _unit_sphere_nodes(self.n_k, self.n_theta, self.n_phi)
        s = self.k_max
        return s * KX, s * KY, s * KZ, s ** 3 * W

    def refined(self) -> "_SphericalRule":
        return _SphericalRule(self.k_max, *_refined_counts(
            self.n_k, self.n_theta, self.n_phi))


@lru_cache(maxsize=8)
def _unit_sphere_nodes(n_k, n_theta, n_phi):
    """Nodes and weights (measure k^2 dk dcos(theta) dphi) for k_max = 1."""
    xk, wk = np.polynomial.legendre.leggauss(n_k)
    k = 0.5 * (xk + 1.0)
    u, wu = np.polynomial.legendre.leggauss(n_theta)
    phi = (np.arange(n_phi) + 0.5) * (2.0 * np.pi / n_phi)
    K, U, PH = np.meshgrid(k, u, phi, indexing="ij")
    S = K * np.sqrt(1.0 - U * U)
    W = (0.5 * wk * k * k)[:, None, None] * wu[None, :, None] * (2.0 * np.pi / n_phi)
    out = (S * np.cos(PH), S * np.sin(PH), K * U, np.broadcast_to(W, K.shape).copy())
    for a in out:
        a.flags.writeable = False
    return out


def _refined_counts(*counts):
    return tuple(3 * n // 2 for n in counts)


@dataclass(frozen=True)
class CylindricalRule:
    """Tensor quadrature in cylindrical k-coordinates: Gauss-Legendre in
    k_perp on (0, k_max] and in kz on [-k_max, k_max], trapezoid in phi.

    Reference use only (pass it as `rule=` explicitly): k = sqrt(k_perp^2 +
    kz^2) is not smooth on the axis in these coordinates, so the rule
    converges only algebraically, to ~1e-8 relative at the defaults.  The
    default amplitude-path rule is spherical (see the module docstring)."""

    k_max: float
    n_radial: int = 72
    n_phi: int = 24
    n_axial: int = 110

    def nodes(self):
        return _rule_nodes(self.k_max, self.n_radial, self.n_phi, self.n_axial)

    def refined(self) -> "CylindricalRule":
        return CylindricalRule(self.k_max, *_refined_counts(
            self.n_radial, self.n_phi, self.n_axial))


@lru_cache(maxsize=16)
def _rule_nodes(k_max, n_radial, n_phi, n_axial):
    xp, wp = np.polynomial.legendre.leggauss(n_radial)
    kp = 0.5 * (xp + 1.0) * k_max
    wkp = 0.5 * k_max * wp
    xz, wz = np.polynomial.legendre.leggauss(n_axial)
    kz = xz * k_max
    wkz = k_max * wz
    phi = (np.arange(n_phi) + 0.5) * (2.0 * np.pi / n_phi)
    wphi = 2.0 * np.pi / n_phi
    KP = kp[:, None, None]
    PH = phi[None, :, None]
    KZ = kz[None, None, :]
    KX = np.ascontiguousarray(np.broadcast_to(KP * np.cos(PH), (n_radial, n_phi, n_axial)))
    KY = np.ascontiguousarray(np.broadcast_to(KP * np.sin(PH), (n_radial, n_phi, n_axial)))
    KZB = np.ascontiguousarray(np.broadcast_to(KZ, (n_radial, n_phi, n_axial)))
    W = (wkp[:, None, None] * wphi * wkz[None, None, :]) * KP  # k_perp measure
    return KX, KY, KZB, W


def _rule_for_amp(amp, rule):
    """Rule for one amplitude: explicit rule wins, else sized to its decay.
    Every integrand of a RadialProfileAmplitude (the time's terms included)
    is a polynomial of degree <= 2 in cos(theta) and does not depend on
    phi, so 4 nodes in cos(theta) and one in phi integrate it exactly."""
    if rule is not None:
        return rule
    if isinstance(amp, RadialProfileAmplitude):
        return _SphericalRule(9.0 * amp.k_scale, n_theta=4, n_phi=1)
    return _SphericalRule(k_max=9.0 * amp.k_scale)


def _integrands(f, grads, KX, KY, KZ, sign, t=0.0):
    """|f|^2, k^2 and the by-parts Dr^2 integrand of an amplitude of
    helicity sign = +-1 at time t (the amplitude f e^{-ikt})."""
    KP2 = KX * KX + KY * KY
    K2 = KP2 + KZ * KZ
    gx, gy, gz = grads
    dphi = KX * gy - KY * gx
    az = (sign * 2.0) * KZ / (np.sqrt(K2) * KP2)
    af2 = f.real ** 2 + f.imag ** 2
    integ = (
        np.abs(gx) ** 2 + np.abs(gy) ** 2 + np.abs(gz) ** 2
        + af2 / KP2
        - az * (np.conj(f) * dphi).imag
    )
    if t:  # the phase's terms (module docstring)
        dk = (KX * gx + KY * gy + KZ * gz) / np.sqrt(K2)
        integ += t * t * af2 - 2.0 * t * (np.conj(f) * dk).imag
    return af2, K2, integ


def _amp_integrals(amp, sign, rule, t=0.0):
    """(N, Mk, Mr) of one amplitude at time t on `rule`, with its exact gradients."""
    KX, KY, KZ, W = rule.nodes()
    af2, K2, integ = _integrands(amp.value(KX, KY, KZ), amp.grad(KX, KY, KZ),
                                 KX, KY, KZ, sign, t)
    return np.array([(W * af2).sum(), (W * K2 * af2).sum(), (W * integ).sum()])


def _amp_moments(amps: HelicityAmplitudePair, rule=None):
    """The amplitude-path integral engine: (N, Mk, Mr, N_coarse,
    quad_rel_err) summed over both helicities at the pair's time amps.t, Mk
    and Mr being the Dk^2 and Dr^2 numerators.

    With no rule given, a PolynomialGaussianAmplitude is integrated in
    closed form (_closed_form_integrals).  Other closures, and every closure
    when a rule is given, are integrated on their rule and on
    rule.refined(), and the refined sums are taken.  N_coarse is N with the
    coarser rule's norm in place of the finer one's.  quad_rel_err is the
    larger of two parts, each the largest relative error estimate of the
    three sums over the amplitudes of its kind: the rounding bound of the
    closed forms, and the difference between the two rules."""
    _check_axis_regular(amps, rule)
    exact = np.zeros((2, 3))  # closed-form sums and their rounding bounds
    fine = np.zeros(3)
    coarse = np.zeros(3)
    ruled = False
    for amp, sign in ((amps.f_plus, 1.0), (amps.f_minus, -1.0)):
        if amp is None:
            continue
        if rule is None and isinstance(amp, PolynomialGaussianAmplitude):
            exact += _closed_form_integrals(amp, sign, amps.t)
        else:
            ruled = True
            r = _rule_for_amp(amp, rule)
            coarse += _amp_integrals(amp, sign, r, amps.t)
            fine += _amp_integrals(amp, sign, r.refined(), amps.t)
    n, mk, mr = (float(v) for v in exact[0] + fine)
    if not np.isfinite(n):
        raise ValueError(f"uncertainty_product: the pair's norm N = {n} is not finite; "
                         "the amplitudes' scale overflows")
    if n <= 0.0:
        raise DegenerateFieldError("degenerate amplitude pair: zero norm")
    err = _rel_err(exact[1], exact[0])
    if ruled:  # else the rules' part is 0
        err = max(err, _rel_err(np.abs(fine - coarse), fine))
    n_coarse = float(exact[0, 0] + coarse[0])
    return n, mk, mr, n_coarse, err


def _rel_err(err, sums):
    """The largest err / |sums|, a zero err counting as 0: the sums of a kind
    with no amplitude, or with only zero ones, are zero, exactly."""
    return float(np.max(np.divide(err, np.abs(sums), out=np.zeros(3), where=err != 0)))


# a float rounding bound in ulps per term of a closed-form sum, covering the
# two coefficients, the three Gaussian factors, their products and the sum:
# on 600 random amplitudes (P of degree <= 3) it was at least twice the error
# against a 50-digit evaluation of the same sums
_CLOSED_FORM_ULPS = 8


# the exponent shifts of the Gaussian moments G(m + shift) that the closed
# form takes (_closed_form_matrices), one row each, in the order it unpacks
_SHIFTS = np.array([
    (0, 0, 0), (2, 0, 0), (0, 2, 0), (4, 0, 0), (0, 4, 0), (2, 2, 0), (2, 0, 2),
    (0, 2, 2), (2, -2, 0), (2, 0, -2), (-2, 2, 0), (0, 2, -2), (1, -1, 1), (-1, 1, 1),
], dtype=np.intp)


def _closed_form_integrals(amp, sign, t=0.0):
    """[(N, Mk, Mr), their rounding bounds] of f = k_perp P e^{-alpha k^2}
    (a PolynomialGaussianAmplitude) of helicity sign = +-1 at time t (the
    amplitude f e^{-ikt}), in closed form: the Hermitian forms c^H M c of
    the matrices of _closed_form_matrices in the coefficients c_e of P's
    monomials.  The rounding bound of each sum is _CLOSED_FORM_ULPS ulps
    times the sum of the moduli of its terms, |c|^T M_abs |c| with every
    Gaussian term of M taken positive (M_abs is M for N and Mk), so it grows
    with the cancellation between them."""
    terms = amp.terms
    if not terms:
        return np.zeros((2, 3))
    c = np.array([complex(v) for v in terms.values()])
    n_m, mk_m, mr_m, mr_abs = _closed_form_matrices(list(terms), amp.alpha, sign, t)
    ac = np.abs(c)
    out = np.empty((2, 3))
    for q, (m, m_abs) in enumerate(((n_m, n_m), (mk_m, mk_m), (mr_m, mr_abs))):
        out[0, q] = (np.conj(c) @ m @ c).real
        out[1, q] = ac @ m_abs @ ac
    out[1] *= _CLOSED_FORM_ULPS * np.finfo(float).eps
    return out


def _closed_form_matrices(exponents, alpha, sign, t=0.0):
    """(N, Mk, Mr, Mr_abs): the Hermitian matrices of the three integrals
    over the monomials k^e of `exponents` (a sequence of (e_x, e_y, e_z))
    for k_perp P e^{-alpha k^2} of helicity sign = +-1 at time t, and the
    rounding bound matrix of Mr, its Gaussian terms taken positive.

    With m = e + e', beta = 2 alpha, |e| = e_x + e_y + e_z, |e_perp| = e_x +
    e_y, unit shifts x, y, z of the exponent and the Gaussian moments G(m) =
    Int k^m e^{-beta k^2} d3k and Z(m), the same with a factor kz/k, the
    weak form of the module docstring reads

        N_ee'  = G(m + 2x) + G(m + 2y)
        Mk_ee' = sum_{a = x, y} sum_{b = x, y, z} G(m + 2a + 2b)
        Mr_ee' = (2 + |e_perp| + |e'_perp|) G(m) - 2 alpha (2 + |e| + |e'|) N_ee'
                 + 4 alpha^2 Mk_ee' + sum_{a = x, y} sum_b e_b e'_b G(m + 2a - 2b)
                 + i sign [(e'_y - e_y) Z(m + x - y) - (e'_x - e_x) Z(m - x + y)]
                 + t^2 N_ee' + i t (|e'| - |e|) Phi_ee'

    G factorizes per axis, g(n) = Int x^n e^{-beta x^2} dx (zero for odd n,
    sqrt(pi/beta) at 0, then g(n) = g(n - 2) (n - 1)/(2 beta), which
    overflows only where the moment does), and Z(m) = G(m + z) sqrt(beta)
    Gamma((|m| + 3)/2) / Gamma((|m| + 4)/2), the ratio of the radial
    moments of k^{|m|} and k^{|m| + 1}; Phi_ee' = Int phi_e phi_e' / k d3k
    is N_ee' times the next such ratio (k.grad phi_e = (|e| + 1 - 2 alpha
    k^2) phi_e, phi_e = k_perp k^e e^{-alpha k^2}).  The 14 shifted moments
    G(m + s) (s in _SHIFTS) are taken in one gather per axis."""
    e = np.array(exponents, dtype=np.intp)
    beta = 2.0 * alpha
    # exponent sums, offset by 2 so that shifts down to -2 index zeros
    m = (e[:, None, :] + e[None, :, :] + 2).transpose(2, 0, 1)
    top = 2 * int(e.max()) + 4
    g = np.zeros(top + 3)
    g[2::2] = np.sqrt(np.pi / beta) * np.cumprod(
        np.concatenate(([1.0], np.arange(1, top, 2) / beta / 2.0)))
    gx, gy, gz = (g[m[a] + _SHIFTS[:, a, None, None]] for a in range(3))
    (g0, gx2, gy2, gx4, gy4, gx2y2, gx2z2, gy2z2,
     sxy, sxz, syx, syz, zxy, zyx) = gx * gy * gz
    perp = m[0] + m[1] - 4
    deg = perp + m[2] - 2
    bx, by, bz = (e[:, None, a] * e[None, :, a] for a in range(3))
    n_m = gx2 + gy2
    mk_m = gx4 + gy4 + 2.0 * gx2y2 + gx2z2 + gy2z2
    shifted = (bx + by) * g0 + by * sxy + bz * sxz + bx * syx + bz * syz
    drift = 2.0 * alpha * (2 + deg) * n_m
    mr_pos = (2 + perp) * g0 + 4.0 * alpha * alpha * mk_m + shifted
    dx, dy = (e[None, :, a] - e[:, None, a] for a in range(2))
    ratios = np.sqrt(beta) * _half_gamma_ratios(int(deg.max()) + 4)
    r = ratios[deg + 3]
    zxy, zyx = r * zxy, r * zyx
    mr_m = mr_pos - drift + 1j * sign * (dy * zxy - dx * zyx)
    mr_abs = mr_pos + drift + np.abs(dy) * zxy + np.abs(dx) * zyx
    if t:
        ddeg = dx + dy + e[None, :, 2] - e[:, None, 2]  # |e'| - |e|
        phi = ratios[deg + 4] * n_m
        mr_m = mr_m + t * t * n_m + 1j * t * ddeg * phi
        mr_abs = mr_abs + t * t * n_m + abs(t) * np.abs(ddeg) * phi
    return n_m, mk_m, mr_m, mr_abs


@lru_cache(maxsize=8)
def _half_gamma_ratios(n):
    """Gamma(j/2) / Gamma((j+1)/2) for j = 0..n (0 at j = 0), each an exact
    ratio of integers rounded once, times or over sqrt(pi):
    Gamma(k + 1/2) / Gamma(k + 1) = sqrt(pi) prod_{i<=k} (2i - 1)/(2i) and
    Gamma(k) / Gamma(k + 1/2) = 1 / (sqrt(pi) k prod_{i<=k} (2i - 1)/(2i))."""
    out = np.zeros(n + 1)
    num = den = 1
    for j in range(1, n + 1):
        k, odd = divmod(j, 2)
        if odd:
            out[j] = num / den * np.sqrt(np.pi)
            num *= 2 * k + 1
            den *= 2 * k + 2
        else:
            out[j] = den / (k * num) / np.sqrt(np.pi)
    out.flags.writeable = False
    return out


def _check_axis_regular(amps, rule=None):
    """Amplitudes must vanish on the kz-axis: probe |f| near k_perp = 0.
    Both amplitude classes carry the factor k_perp, so |f|^2 / k_perp^2 is
    |P|^2 e^{-2 alpha k^2} or |h(k^2)|^2, finite there, and they are not
    probed."""
    for amp in (amps.f_plus, amps.f_minus):
        if amp is None or isinstance(amp, (PolynomialGaussianAmplitude,
                                           RadialProfileAmplitude)):
            continue
        k_max = _rule_for_amp(amp, rule).k_max
        kz = k_max * np.array([0.31, -0.54, 0.12, -0.05, 0.44])
        ref = 0.0
        for frac in (0.1, 0.3, 0.6):
            ref = max(ref, np.abs(amp.value(np.full_like(kz, frac * k_max),
                                            0.0 * kz, kz)).max())
        scale = max(ref, 1e-300)
        for eps in (1e-5, 1e-7):
            v = np.abs(amp.value(np.full_like(kz, eps * k_max), 0.0 * kz, kz))
            if np.any(v > 0.3 * scale):
                raise SingularAmplitudeError(
                    "amplitudes carry weight on the kz-axis; 1/k_perp^2 "
                    "variance integrand is singular"
                )


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class VarianceReport:
    """Full uncertainty diagnostic for one field configuration."""

    delta_r2: float
    delta_k2: float
    product: float
    bound: float
    saturation_ratio: float
    norm_r: float
    norm_k: float
    warnings: list = dc_field(default_factory=list)
    # amplitude path only (None for grid reports): the relative error
    # estimate of (N, Mk, Mr), a rounding bound for closed forms and the
    # change between a rule and its refinement; not part of to_dict()
    quad_rel_err: float | None = None
    # grid path only (None for amplitude reports): max boundary-face
    # density / max density in position and in wavevector space, the
    # truncation diagnostic; not part of to_dict()
    boundary_ratio_r: float | None = None
    boundary_ratio_k: float | None = None

    def to_dict(self) -> dict:
        return {
            "delta_r2": self.delta_r2,
            "delta_k2": self.delta_k2,
            "product": self.product,
            "bound": self.bound,
            "saturation_ratio": self.saturation_ratio,
            "norm_r": self.norm_r,
            "norm_k": self.norm_k,
            "warnings": list(self.warnings),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def truncations(self) -> list:
        """One line per space whose boundary ratio exceeds TRUNCATION_RATIO,
        position space first; none for an amplitude report (no ratios).  Any
        line means the box cut the packet off: no verdict on the bound."""
        return [f"{space}-space density at boundary exceeds {TRUNCATION_RATIO:g} of peak"
                for ratio, space in ((self.boundary_ratio_r, "position"),
                                     (self.boundary_ratio_k, "wavevector"))
                if ratio is not None and ratio > TRUNCATION_RATIO]


def _report(dr2, dk2, nr, nk, warnings, **extra):
    product = float(np.sqrt(dr2 * dk2))
    return VarianceReport(
        delta_r2=float(dr2),
        delta_k2=float(dk2),
        product=product,
        bound=BOUND_EM,
        saturation_ratio=product / BOUND_EM,
        norm_r=float(nr),
        norm_k=float(nk),
        warnings=warnings,
        **extra,
    )


def uncertainty_product(source, rule=None) -> VarianceReport:
    """Build a VarianceReport (bound BOUND_EM = 5/2) from any of:

    * HelicityAmplitudePair     analytic amplitude path, on the quadrature
                                `rule` if one is given
    * HelicityAmplitudePair,    grid path of the pair on that wavevector
      Grid3D rule               grid, streamed (kspace._synthesis_parts)
    * FieldGrid                 grid path (partner obtained by FFT, streamed
                                from its x-slabs: kspace._stream_stats)
    * str or os.PathLike        grid path of that .rsf file, streamed from
                                the file (rsfio._file_stats)

    Any other source, or a rule with a FieldGrid or a path, raises TypeError.
    """
    if isinstance(source, HelicityAmplitudePair) and not isinstance(rule, Grid3D):
        # norm_r takes the coarser rule's norm, so its agreement with norm_k
        # is the Plancherel line of the report; closed forms give both
        # exactly.  A time so large that a moment overflows is refused
        # below, not warned of on the way (a caller's "raise" still raises)
        quiet = {k: "ignore" for k in ("over", "invalid") if np.geterr()[k] == "warn"}
        with np.errstate(**quiet):
            n, mk, mr, n_coarse, err = _amp_moments(source, rule)
            rep = _report(mr / n, mk / n, n_coarse, n, [], quad_rel_err=err)
        if not np.all(np.isfinite([rep.delta_r2, rep.delta_k2, rep.product, rep.norm_r, err])):
            raise ValueError(f"uncertainty_product: the pair at t = {source.t} has "
                             "moments that are not finite")
        return rep
    if isinstance(source, HelicityAmplitudePair):
        k, r = _synthesis_parts(source, rule).densities()
    elif rule is not None:
        raise TypeError("uncertainty_product: a rule applies to a HelicityAmplitudePair only")
    elif isinstance(source, FieldGrid):
        # the slabs are views of the caller's field, left untouched
        k, r = _stream_stats(lambda comps: iter(source.values), source.grid, source.space)
    elif isinstance(source, (str, os.PathLike)):
        k, r = _file_stats(source)
    else:
        raise TypeError("uncertainty_product: unsupported source type")
    rep = _report(r.moment, k.moment, r.norm, k.norm, [],
                  boundary_ratio_r=float(r.ratio), boundary_ratio_k=float(k.ratio))
    rep.warnings = [f"truncation: {cut}" for cut in rep.truncations()]
    return rep


def massless_bound(h) -> float:
    """Lower bound of Dr * Dk for a massless particle of helicity modulus h:
    1 + sqrt(1/4 + 2h).  Photons (h = 1) give 5/2, every report's BOUND_EM."""
    h = float(h)
    if h < 0 or not np.isfinite(h):
        raise ValueError("massless_bound: h must be a nonnegative real")
    return 1.0 + np.sqrt(0.25 + 2.0 * h)
