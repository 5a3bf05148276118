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

Quadrature: one engine (_amp_moments) evaluates N, Dk^2 N and Dr^2 N on a
nested pair of spherical rules per amplitude -- Gauss-Legendre in k on
(0, 9 k_scale] and in cos(theta), half-offset trapezoid in phi, at 32x20x16
and 48x30x24 nodes.  It reports the finer sums, and the largest relative
difference of the three between the two rules as quad_rel_err.  It grows
with the polynomial degree of the amplitude: measured 7.8e-15 for the
saturating pairs, at most 2.5e-13 over 280 random pairs k_perp P(k)
e^{-alpha k^2} with P of degree <= 3, and 7.5e-15, 1.3e-13, 3.7e-12 and
2.7e-10 for the radial modes k_perp L_n^{3/2}(k^2) e^{-k^2/2}, n = 0..3.
Grid-path reductions and sampled amplitudes use plain Riemann sums; numpy's
pairwise summation keeps them reproducible at the stated tolerances.

Dr^2, Dk^2 and the norms of both spaces are public only as fields of the
report that uncertainty_product returns.

Grid path.  A grid report is made from three numbers per space, its
density's boundary ratio, second moment and norm (_density_report of two
kspace._DensityStats).  For a FieldGrid (uncertainty_product) they come
from the one reducer of a component stream, kspace._stream_stats, which
the node route's densities also use: each component adds its density in
its own space, is transformed in place and adds its partner's density, so
one component and two density arrays are held and no partner FieldGrid is
built.  For an amplitude pair
(`verify-bound --method grid`) they come from the synthesis parts'
densities (kspace._synthesis_parts): for radial amplitudes on a centred
even cube, from the positive octant of each density, with no component
and no density of the whole cube built.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache
import json

import numpy as np

from .errors import DegenerateFieldError, SingularAmplitudeError
from .kspace import (
    FieldGrid,
    HelicityAmplitudePair,
    SampledAmplitude,
    _stream_stats,
    # not called here since grid reports stream; kept as a binding site that
    # bench/selftest.py checks the tracer wraps and restores
    fourier_to_position,  # noqa: F401
)

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
    converges exponentially.  For k_max = 9 k_scale the default and its
    refinement agree to 7.8e-15 relative for the saturating pairs and to
    2.7e-10 for the n = 3 radial mode; the difference grows with the
    polynomial degree (see the module docstring)."""

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
    """Rule for one amplitude: explicit rule wins, else sized to its decay."""
    if rule is not None:
        return rule
    return _SphericalRule(k_max=9.0 * amp.k_scale)


def _integrands(f, grads, KX, KY, KZ, sign):
    """|f|^2, k^2 and the by-parts Dr^2 integrand of an amplitude of
    helicity sign = +-1."""
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
    return af2, K2, integ


def _amp_integrals(amp, sign, rule):
    """(N, Mk, Mr) of one amplitude: on `rule` with the exact gradients for
    closures, as Riemann sums with spectral gradients for sampled ones."""
    if isinstance(amp, SampledAmplitude):
        KX, KY, KZ = amp.grid.meshes(sparse=False)
        W = amp.grid.cell_volume
        af2, K2, integ = _integrands(amp.values, amp.spectral_grad(), KX, KY, KZ, sign)
    else:
        KX, KY, KZ, W = rule.nodes()
        af2, K2, integ = _integrands(amp.value(KX, KY, KZ), amp.grad(KX, KY, KZ),
                                     KX, KY, KZ, sign)
    return np.array([(W * af2).sum(), (W * K2 * af2).sum(), (W * integ).sum()])


def _amp_moments(amps: HelicityAmplitudePair, rule=None):
    """The amplitude-path integral engine: (N, Mk, Mr, N_coarse,
    quad_rel_err) summed over both helicities, Mk and Mr being the Dk^2 and
    Dr^2 numerators.

    Closures are integrated on their rule and on rule.refined(); the refined
    sums are returned, N_coarse is the coarser rule's norm, and quad_rel_err
    is the largest relative difference of the three sums between the two
    rules (None when every amplitude is sampled, i.e. no rule was used)."""
    _check_axis_regular(amps, rule)
    fine = np.zeros(3)
    coarse = np.zeros(3)
    ruled = False
    for amp, sign in ((amps.f_plus, 1.0), (amps.f_minus, -1.0)):
        if amp is None:
            continue
        if isinstance(amp, SampledAmplitude):
            sums = _amp_integrals(amp, sign, None)
            fine += sums
            coarse += sums
            continue
        r = _rule_for_amp(amp, rule)
        coarse += _amp_integrals(amp, sign, r)
        fine += _amp_integrals(amp, sign, r.refined())
        ruled = True
    n, mk, mr = (float(v) for v in fine)
    if not np.isfinite(n) or n <= 0.0:
        raise DegenerateFieldError("degenerate amplitude pair: zero norm")
    err = float(np.max(np.abs(fine - coarse) / np.abs(fine))) if ruled else None
    return n, mk, mr, float(coarse[0]), err


def _check_axis_regular(amps, rule=None):
    """Amplitudes must vanish on the kz-axis: probe |f| near k_perp = 0
    (closures), or bound the near-axis share of the norm (sampled grids)."""
    for amp in (amps.f_plus, amps.f_minus):
        if amp is None:
            continue
        if isinstance(amp, SampledAmplitude):
            # the 1/k_perp^2 density must stay bounded toward the axis: for
            # admissible amplitudes (vanishing at k_perp = 0) its near-axis
            # peak is no larger than its off-axis peak; a non-vanishing
            # amplitude spikes as 1/k_perp^2 in the closest cells
            KX, KY, KZ = amp.grid.meshes(sparse=False)
            kp2 = KX * KX + KY * KY
            near = kp2 < (3.0 * max(amp.grid.spacings[:2])) ** 2
            q = np.abs(amp.values) ** 2 / kp2
            off_peak = q[~near].max() if np.any(~near) else 0.0
            if np.any(near) and q[near].max() > 10.0 * max(off_peak, 1e-300):
                raise SingularAmplitudeError(
                    "sampled amplitude carries weight on the kz-axis; "
                    "1/k_perp^2 variance integrand is singular"
                )
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
    # amplitude path only: largest relative change of (N, Mk, Mr) between
    # the rule and its refinement; not part of to_dict()
    quad_rel_err: float | None = None

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


def _report(dr2, dk2, nr, nk, warnings, quad_rel_err=None):
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
        quad_rel_err=quad_rel_err,
    )


def uncertainty_product(source, rule=None) -> VarianceReport:
    """Build a VarianceReport (bound BOUND_EM = 5/2) from either of:

    * HelicityAmplitudePair     analytic amplitude path
    * FieldGrid                 grid path (partner obtained by FFT, streamed
                                one component at a time: kspace._stream_stats)

    Any other source raises TypeError.
    """
    if isinstance(source, HelicityAmplitudePair):
        # norm_r is the coarser rule's norm: its agreement with norm_k is
        # the Plancherel line of the report
        n, mk, mr, n_coarse, err = _amp_moments(source, rule)
        return _report(mr / n, mk / n, n_coarse, n, [], err)
    if not isinstance(source, FieldGrid):
        raise TypeError("uncertainty_product: unsupported source type")
    k, r = _stream_stats(_field_components(source), source.grid, source.space)
    return _density_report(r, k)


def _field_components(field: FieldGrid):
    """The components of field, each copied into one reused contiguous
    buffer (which the consumer may overwrite)."""
    buf = np.empty(field.grid.counts, dtype=np.complex128)
    for comp in range(3):
        np.copyto(buf, field.values[..., comp])
        yield buf


def _density_report(r, k) -> VarianceReport:
    """Report from the position and wavevector stats (kspace._DensityStats):
    each space's boundary ratio, second moment and norm."""
    warnings = [f"truncation: {space}-space density at boundary "
                f"exceeds {TRUNCATION_RATIO:g} of peak"
                for stats, space in ((r, "position"), (k, "wavevector"))
                if stats.ratio > TRUNCATION_RATIO]
    return _report(r.moment, k.moment, r.norm, k.norm, warnings)


def massless_bound(h) -> float:
    """Lower bound of Dr * Dk for a massless particle of helicity modulus h:
    1 + sqrt(1/4 + 2h).  Photons (h = 1) give 5/2, every report's BOUND_EM."""
    h = float(h)
    if h < 0 or not np.isfinite(h):
        raise ValueError("massless_bound: h must be a nonnegative real")
    return 1.0 + np.sqrt(0.25 + 2.0 * h)
