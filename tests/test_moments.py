"""Variance engine: both evaluation paths, the uncertainty product, the
massless bound, and the bound/covariance property suites."""

import cmath
import itertools

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from rsuncert import (
    BOUND_EM,
    CylindricalRule,
    DegenerateFieldError,
    FieldGrid,
    Grid3D,
    HelicityAmplitudePair,
    PolynomialGaussianAmplitude,
    RadialProfileAmplitude,
    SampledAmplitude,
    SaturatingFieldSpec,
    SingularAmplitudeError,
    fourier_to_kspace,
    fourier_to_position,
    massless_bound,
    saturating_amplitudes,
    simplest_field,
    synthesize_kspace,
    uncertainty_product,
)
from rsuncert.moments import _amp_integrals, _SphericalRule
from rsuncert.specfun import laguerre_general
from conftest import (
    polynomial_gaussian_moments,
    random_pair,
    second_moment_oracle,
    strong_form_moment,
)


def simplest_field_grid(C=1.0, a=1.0, n=64, extent=16.0):
    grid = Grid3D.centered(n, extent * a)
    pts = np.stack(np.meshgrid(*grid.axes(), indexing="ij"), axis=-1)
    return FieldGrid(simplest_field(pts, C, a), grid, "position")


def radial_mode_amplitude(n, a=1.0, C=1.0):
    """f = C a k_perp e^{-a^2k^2/2} L_n^{3/2}(a^2 k^2): n-th radial mode."""
    def h(q):
        return C * a * np.exp(-a * a * q / 2.0) * laguerre_general(n, 1.5, a * a * q)

    def dh(q):
        L = laguerre_general(n, 1.5, a * a * q)
        dL = -laguerre_general(n - 1, 2.5, a * a * q) if n > 0 else 0.0
        return C * a * np.exp(-a * a * q / 2.0) * (a * a * dL - a * a / 2.0 * L)

    return RadialProfileAmplitude(h, dh, k_scale=1.0 / a)


class SmoothAmplitude:
    """f = k_perp^2 e^{-k^2/2}: smooth across the kz-axis, so a sampled
    copy's spectral derivatives are exact to rounding."""

    k_scale = 1.0

    def value(self, kx, ky, kz):
        kp2 = kx * kx + ky * ky
        return kp2 * np.exp(-(kp2 + kz * kz) / 2)

    def grad(self, kx, ky, kz):
        E = np.exp(-(kx * kx + ky * ky + kz * kz) / 2)
        kp2 = kx * kx + ky * ky
        return (
            E * (2 * kx - kx * kp2),
            E * (2 * ky - ky * kp2),
            -kz * kp2 * E,
        )


class TestVariancePosition:
    def test_simplest_field_a1(self):
        assert uncertainty_product(simplest_field_grid(a=1.0)).delta_r2 == pytest.approx(
            2.5, abs=1e-6
        )

    def test_simplest_field_a2_scaling(self):
        got = uncertainty_product(simplest_field_grid(a=2.0)).delta_r2
        assert got == pytest.approx(10.0, rel=1e-6)

    def test_scalar_enveloped_vs_adaptive_oracle(self):
        # single-component field (0, y e^{-r^2/2}, 0): Dr^2 = 5/2
        grid = Grid3D.centered(64, 16.0)
        pts = np.stack(np.meshgrid(*grid.axes(), indexing="ij"), axis=-1)
        vals = np.zeros(pts.shape, dtype=complex)
        vals[..., 1] = pts[..., 1] * np.exp(-(pts ** 2).sum(-1) / 2.0)
        riemann = uncertainty_product(FieldGrid(vals, grid, "position")).delta_r2
        # density |F|^2 = y^2 e^{-r^2}; average over phi: <y^2> = rho^2/2
        dens = lambda rho, z: 0.5 * rho ** 2 * np.exp(-(rho ** 2 + z ** 2))
        oracle, _ = second_moment_oracle(dens, 10.0)
        assert abs(oracle - 2.5) < 1e-9
        assert abs(riemann - oracle) < 1e-6

    def test_zero_norm_degenerate(self):
        grid = Grid3D.centered(16, 8.0)
        field = FieldGrid(np.zeros((16, 16, 16, 3), complex), grid, "position")
        with pytest.raises(DegenerateFieldError):
            uncertainty_product(field)


class TestVarianceKspace:
    def test_simplest_transform_a1(self):
        kgrid = Grid3D.centered(64, 16.0).fourier_dual()
        field = synthesize_kspace(SaturatingFieldSpec.simplest(-1.0, 1.0).amplitudes(), kgrid)
        assert uncertainty_product(field).delta_k2 == pytest.approx(2.5, abs=1e-6)

    def test_simplest_transform_a2(self):
        kgrid = Grid3D.centered(64, 32.0).fourier_dual()
        field = synthesize_kspace(SaturatingFieldSpec.simplest(-1.0, 2.0).amplitudes(), kgrid)
        assert uncertainty_product(field).delta_k2 == pytest.approx(5.0 / 8.0, rel=1e-6)

    def test_narrow_shell(self):
        # Gaussian shell at |k| = k0: Dk^2 ~ k0^2 (+ O(sigma^2))
        k0, sigma = 3.0, 0.12

        class Shell:
            k_scale = k0 / 6.0

            def value(self, kx, ky, kz):
                k = np.sqrt(kx * kx + ky * ky + kz * kz)
                kp = np.sqrt(kx * kx + ky * ky)
                return (kp / k) * np.exp(-((k - k0) ** 2) / (2 * sigma ** 2))

        kgrid = Grid3D.centered(64, 24.0).fourier_dual()
        field = synthesize_kspace(HelicityAmplitudePair(Shell(), None), kgrid)
        got = uncertainty_product(field).delta_k2
        assert abs(got - k0 ** 2) < 4.0 * sigma ** 2 + 0.01


class TestVarianceFromAmplitudes:
    def test_saturating_pair_exact(self):
        amps = saturating_amplitudes(1.0, 1.0, 1.0)
        rep = uncertainty_product(amps)
        assert rep.delta_r2 == pytest.approx(2.5, abs=1e-9)
        assert rep.delta_k2 == pytest.approx(2.5, abs=1e-9)

    def test_azimuthal_term_vanishes_for_real_axisymmetric(self):
        # f real and phi-independent: Im(f* dphi f) = 0 identically
        amp = saturating_amplitudes(1.0, 0.0, 1.0).f_plus
        rule = CylindricalRule(9.0)
        KX, KY, KZ, W = rule.nodes()
        f = amp.value(KX, KY, KZ)
        gx, gy, gz = amp.grad(KX, KY, KZ)
        dphi = KX * gy - KY * gx
        K = np.sqrt(KX ** 2 + KY ** 2 + KZ ** 2)
        KP2 = KX ** 2 + KY ** 2
        term = (W * (2.0 * KZ / (K * KP2)) * (np.conj(f) * dphi).imag).sum()
        assert abs(term) < 1e-14

    def test_weak_equals_strong_form(self):
        a, c_plus, c_minus = 1.2, 0.8, -0.3 + 0.1j
        amps = saturating_amplitudes(c_plus, c_minus, a)
        weak = uncertainty_product(amps).delta_r2
        rule = _SphericalRule(9.0 * amps.k_scale).refined()
        n = mr = 0.0
        for C, amp, sign in ((c_plus, amps.f_plus, 1.0), (c_minus, amps.f_minus, -1.0)):
            d2h = lambda q, C=C: C * a ** 4 / 4.0 * np.exp(-a * a * q / 2.0)
            dn, dmr = strong_form_moment(amp, sign, d2h, rule)
            n, mr = n + dn, mr + dmr
        strong = mr / n
        assert abs(weak - strong) / weak < 1e-10

    def test_grid_path_agreement(self, rng):
        # analytic amplitude path vs 64^3 grid path, <= 1e-3 relative,
        # improving with resolution
        amps = random_pair(rng, allow_single=False)
        extent = 28.0 / amps.k_scale
        ref = uncertainty_product(amps)
        dr2, dk2 = ref.delta_r2, ref.delta_k2

        def grid_err(n, box):
            kgrid = Grid3D.centered(n, box).fourier_dual()
            rep = uncertainty_product(synthesize_kspace(amps, kgrid))
            return abs(rep.delta_r2 - dr2) / dr2, abs(rep.delta_k2 - dk2) / dk2

        err_r64, err_k64 = grid_err(64, extent)
        assert err_r64 < 1e-3
        assert err_k64 < 1e-3
        # refining spacing and box together drives the residual down
        # (at fixed box the error is truncation-dominated by the 1/r^4 tails)
        err_r128, err_k128 = grid_err(128, 1.6 * extent)
        assert err_r128 < err_r64
        assert err_k128 <= err_k64 + 1e-12

    def test_sampled_smooth_amplitude_matches_closure(self):
        # smooth amplitude: the spectral-derivative route is exact to
        # rounding on an adequate grid
        closure = HelicityAmplitudePair(SmoothAmplitude(), None)
        kgrid = Grid3D.centered(64, 16.0).fourier_dual()
        sampled = HelicityAmplitudePair(
            SampledAmplitude.from_closure(SmoothAmplitude(), kgrid), None
        )
        ref = uncertainty_product(closure)
        got = uncertainty_product(sampled)
        for key in ("delta_r2", "delta_k2"):
            assert abs(getattr(got, key) - getattr(ref, key)) / getattr(ref, key) < 1e-12
        assert got.product >= 2.5 - 1e-6

    def test_dilated_sampled_amplitude(self):
        # f(lambda k) of a sampled f is the same values on the grid scaled
        # by 1/lambda: both report paths and synthesis take it as they take f
        kgrid = Grid3D.centered(64, 16.0).fourier_dual()
        sampled = HelicityAmplitudePair(SampledAmplitude.from_closure(SmoothAmplitude(), kgrid))
        rep = uncertainty_product(sampled)
        fK = synthesize_kspace(sampled, kgrid, 0.3)
        for lam in (0.8, 1.7):
            dil = sampled.dilated(lam)
            rep_l = uncertainty_product(dil)
            assert abs(rep_l.delta_k2 - rep.delta_k2 / lam ** 2) / rep_l.delta_k2 < 1e-12
            assert abs(rep_l.delta_r2 - rep.delta_r2 * lam ** 2) / rep_l.delta_r2 < 1e-12
            assert abs(rep_l.product - rep.product) / rep.product < 1e-12
            # Ftilde(k / lambda, t / lambda) of f(lambda k) is Ftilde(k, t) of f
            fK_l = synthesize_kspace(dil, dil.f_plus.grid, 0.3 * lam)
            assert np.abs(fK_l.values - fK.values).max() <= 1e-13 * np.abs(fK.values).max()

    def test_sampled_cone_amplitude_converges(self):
        # the saturating profile has a conical kink on the kz-axis, so the
        # spectral route converges only algebraically with the box size
        cone = saturating_amplitudes(1.0, 0.0, 1.0)
        ref = uncertainty_product(cone).delta_r2
        errs = []
        for n, L in ((64, 16.0), (128, 32.0)):
            kg = Grid3D.centered(n, L).fourier_dual()
            samp = HelicityAmplitudePair(
                SampledAmplitude.from_closure(cone.f_plus, kg), None
            )
            errs.append(abs(uncertainty_product(samp).delta_r2 - ref) / ref)
        assert errs[0] < 0.05
        assert errs[1] < 0.35 * errs[0]

    def test_sampled_amplitude_synthesis_matches_closure(self):
        closures = saturating_amplitudes(0.7, 0.0, 1.0)
        kgrid = Grid3D.centered(16, 10.0).fourier_dual()
        sampled = HelicityAmplitudePair(
            SampledAmplitude.from_closure(closures.f_plus, kgrid), None
        )
        f1 = synthesize_kspace(closures, kgrid, t=0.3)
        f2 = synthesize_kspace(sampled, kgrid, t=0.3)
        assert np.allclose(f1.values, f2.values, atol=1e-14)

    def test_sampled_amplitude_grid_mismatch(self):
        from rsuncert import GridMismatchError, SampledAmplitude

        closures = saturating_amplitudes(1.0, 0.0, 1.0)
        kgrid = Grid3D.centered(16, 10.0).fourier_dual()
        other = Grid3D.centered(16, 12.0).fourier_dual()
        sampled = HelicityAmplitudePair(
            SampledAmplitude.from_closure(closures.f_plus, kgrid), None
        )
        with pytest.raises(GridMismatchError):
            synthesize_kspace(sampled, other)

    def test_sampled_on_axis_rejected(self):
        kgrid = Grid3D.centered(32, 12.0).fourier_dual()
        KX, KY, KZ = kgrid.meshes(sparse=False)
        vals = np.exp(-(KX ** 2 + KY ** 2 + KZ ** 2))  # no k_perp zero
        pair = HelicityAmplitudePair(SampledAmplitude(vals, kgrid), None)
        with pytest.raises(SingularAmplitudeError):
            uncertainty_product(pair)

    def test_singular_amplitude_rejected(self):
        class OnAxis:
            k_scale = 1.0

            def value(self, kx, ky, kz):
                return np.exp(-(kx * kx + ky * ky + kz * kz))

            def grad(self, kx, ky, kz):
                f = self.value(kx, ky, kz)
                return -2 * kx * f, -2 * ky * f, -2 * kz * f

        with pytest.raises(SingularAmplitudeError):
            uncertainty_product(HelicityAmplitudePair(OnAxis(), None))


class TestUncertaintyProduct:
    def test_saturating_analytic_path(self):
        for a in (0.5, 1.0, 2.0):
            rep = uncertainty_product(SaturatingFieldSpec.simplest(-1.0, a).amplitudes())
            assert abs(rep.product - 2.5) < 1e-6
            assert abs(rep.saturation_ratio - 1.0) < 1e-6

    def test_saturating_grid_path(self):
        rep = uncertainty_product(simplest_field_grid(a=1.0))
        assert abs(rep.product - 2.5) < 1e-3
        assert abs(rep.saturation_ratio - 1.0) < 1e-3
        assert rep.warnings == []

    def test_first_excited_mode_product(self):
        # gamma_1 = 5/2 + 2: the n = 1 radial mode is stationary at 4.5
        amps = HelicityAmplitudePair(radial_mode_amplitude(1), None)
        rep = uncertainty_product(amps)
        assert abs(rep.product - 4.5) < 1e-3
        assert abs(rep.delta_r2 - 4.5) < 1e-6
        assert abs(rep.delta_k2 - 4.5) < 1e-6

    def test_random_superpositions_respect_bound(self, rng):
        for _ in range(25):
            rep = uncertainty_product(random_pair(rng))
            assert rep.product >= BOUND_EM - 1e-6

    def test_plancherel_in_reports(self, rng):
        for _ in range(5):
            rep = uncertainty_product(random_pair(rng))
            assert abs(rep.norm_r - rep.norm_k) / rep.norm_r < 1e-10

    def test_scale_covariance(self, rng):
        amps = random_pair(rng, allow_single=False)
        rep = uncertainty_product(amps)
        for lam in (0.5, 2.0):
            dil = amps.dilated(lam)
            rep_l = uncertainty_product(dil)
            assert abs(rep_l.delta_k2 - rep.delta_k2 / lam ** 2) / rep.delta_k2 < 1e-10
            assert abs(rep_l.delta_r2 - rep.delta_r2 * lam ** 2) / rep_l.delta_r2 < 1e-10
            assert abs(rep_l.product - rep.product) / rep.product < 1e-10

    @pytest.mark.parametrize("lam", [0.0, -1.0, np.nan, np.inf])
    @pytest.mark.parametrize("sampled", [False, True], ids=["closure", "sampled"])
    def test_dilation_factor_must_be_finite_positive(self, lam, sampled):
        pair = saturating_amplitudes(1.0, 0.5, 1.0)
        if sampled:
            kgrid = Grid3D.centered(16, 8.0).fourier_dual()
            pair = HelicityAmplitudePair(SampledAmplitude.from_closure(pair.f_plus, kgrid),
                                         SampledAmplitude.from_closure(pair.f_minus, kgrid))
        with pytest.raises(ValueError, match="finite and positive"):
            pair.dilated(lam)

    def test_helicity_swap_symmetry(self, rng):
        amps = random_pair(rng, allow_single=False)
        rep = uncertainty_product(amps)
        rep_s = uncertainty_product(HelicityAmplitudePair(amps.f_minus, amps.f_plus))
        assert abs(rep.delta_r2 - rep_s.delta_r2) / rep.delta_r2 < 1e-12
        assert abs(rep.delta_k2 - rep_s.delta_k2) / rep.delta_k2 < 1e-12

    def test_unsupported_source_rejected(self):
        fieldR = simplest_field_grid(n=16, extent=8.0)
        with pytest.raises(TypeError):
            uncertainty_product((fieldR, fourier_to_kspace(fieldR)))

    def test_truncation_warning(self):
        rep = uncertainty_product(simplest_field_grid(a=1.0, n=16, extent=4.0))
        assert any("truncation" in w for w in rep.warnings)

    def test_json_schema_stable(self):
        rep = uncertainty_product(simplest_field_grid())
        d = rep.to_dict()
        assert list(d.keys()) == [
            "delta_r2", "delta_k2", "product", "bound",
            "saturation_ratio", "norm_r", "norm_k", "warnings",
        ]

    def test_degenerate_zero_field(self):
        grid = Grid3D.centered(16, 8.0)
        field = FieldGrid(np.zeros((16, 16, 16, 3), complex), grid, "position")
        with pytest.raises(DegenerateFieldError):
            uncertainty_product(field)


class TestGridReportSpaces:
    """A FieldGrid report streams from the field's own space to its Fourier
    partner's (kspace._stream_stats), so a field and its FFT partner must
    give the same report from either side."""

    @staticmethod
    def assert_same(got, want):
        for key in ("delta_r2", "delta_k2", "norm_r", "norm_k"):
            g, w = getattr(got, key), getattr(want, key)
            assert abs(g - w) <= 1e-12 * abs(w), key
        assert got.warnings == want.warnings

    def assert_both_sides(self, field, partner):
        self.assert_same(uncertainty_product(field), uncertainty_product(partner))

    @pytest.mark.parametrize("n", [32, 64])
    @pytest.mark.parametrize("C", [1.0, 0.3 + 0.7j])
    def test_simplest_packet(self, n, C):
        fR = simplest_field_grid(C=C, n=n)
        self.assert_both_sides(fR, fourier_to_kspace(fR))
        fK = synthesize_kspace(SaturatingFieldSpec.simplest(-C, 1.0).amplitudes(),
                               Grid3D.centered(n, 16.0).fourier_dual())
        self.assert_both_sides(fK, fourier_to_position(fK))

    @pytest.mark.parametrize("n", [32, 64])
    def test_random_pairs(self, n, rng):
        for _ in range(3):
            amps = random_pair(rng)
            kgrid = Grid3D.centered(n, 28.0 / amps.k_scale).fourier_dual()
            fK = synthesize_kspace(amps, kgrid)
            fR = fourier_to_position(fK)
            self.assert_both_sides(fK, fR)
            self.assert_both_sides(fR, fourier_to_kspace(fR))


class TestHelicitySign:
    """The azimuthal term of the weak form changes sign with the helicity."""

    # f = k_perp (kx + i ky)(1 + kz) e^{-k^2/2}: Im(f* d_phi f) odd in kz
    AMP = PolynomialGaussianAmplitude(
        {(1, 0, 0): 1, (0, 1, 0): 1j, (1, 0, 1): 1, (0, 1, 1): 1j}, 0.5)

    @staticmethod
    def conj(amp):
        return PolynomialGaussianAmplitude(
            {m: np.conj(c) for m, c in amp.terms.items()}, amp.alpha)

    def test_f_minus_matches_grid_path(self):
        amps = HelicityAmplitudePair(None, self.AMP)
        rep = uncertainty_product(amps)
        kgrid = Grid3D.centered(64, 32.0).fourier_dual()
        grid = uncertainty_product(synthesize_kspace(amps, kgrid))
        assert abs(rep.delta_r2 - grid.delta_r2) / grid.delta_r2 < 1e-3
        assert abs(rep.product - grid.product) / grid.product < 1e-3

    def test_parity_symmetry(self, rng):
        # parity maps (f+, f-) to (conj f-, conj f+), pointwise conjugates
        for _ in range(3):
            amps = random_pair(rng, allow_single=False)
            rep = uncertainty_product(amps)
            rep_p = uncertainty_product(HelicityAmplitudePair(
                self.conj(amps.f_minus), self.conj(amps.f_plus)))
            assert abs(rep.delta_r2 - rep_p.delta_r2) / rep.delta_r2 < 1e-12
            assert abs(rep.delta_k2 - rep_p.delta_k2) / rep.delta_k2 < 1e-12


class TestQuadratureConvergence:
    def test_default_rule_matches_fine_spherical_rule(self):
        rng = np.random.default_rng(97531)
        for _ in range(20):
            amps = random_pair(rng, allow_single=False)
            rep = uncertainty_product(amps)
            n, mk, mr = sum(
                _amp_integrals(amp, sign, _SphericalRule(10.5 * amp.k_scale, 96, 48, 32))
                for amp, sign in ((amps.f_plus, 1.0), (amps.f_minus, -1.0))
            )
            assert abs(rep.norm_k - n) / n < 1e-10
            assert abs(rep.delta_k2 - mk / n) / (mk / n) < 1e-10
            assert abs(rep.delta_r2 - mr / n) / (mr / n) < 1e-10
            assert rep.quad_rel_err <= 1e-10

    def test_cylindrical_reference_rule_refines(self):
        rule = CylindricalRule(9.0, n_radial=48, n_phi=16, n_axial=64)
        fine = rule.refined()
        assert (fine.k_max, fine.n_radial, fine.n_phi, fine.n_axial) == (9.0, 72, 24, 96)
        rep = uncertainty_product(saturating_amplitudes(1.0, 0.5, 1.0), rule=rule)
        assert abs(rep.product - 2.5) < 1e-6
        assert 0.0 < rep.quad_rel_err < 1e-6

    def test_grid_report_has_no_quadrature_error(self):
        assert uncertainty_product(simplest_field_grid()).quad_rel_err is None


# k_perp P e^{-alpha k^2}, P of 1-4 monomials of degree <= 3 with
# coefficient moduli in [0.1, 10], in either helicity or both
_monomials = [e for e in itertools.product(range(4), repeat=3) if sum(e) <= 3]
_coefficients = st.builds(cmath.rect, st.floats(0.1, 10.0), st.floats(0.0, 2.0 * np.pi))
_amplitudes = st.builds(
    PolynomialGaussianAmplitude,
    st.dictionaries(st.sampled_from(_monomials), _coefficients, min_size=1, max_size=4),
    st.floats(0.35, 1.8),
)
_pairs = st.one_of(
    st.builds(HelicityAmplitudePair, _amplitudes, st.none()),
    st.builds(HelicityAmplitudePair, st.none(), _amplitudes),
    st.builds(HelicityAmplitudePair, _amplitudes, _amplitudes),
)


@settings(database=None, deadline=None, derandomize=True, max_examples=200)
@given(_pairs)
def test_amplitude_path_matches_closed_form(pair):
    # conftest.polynomial_gaussian_moments: every integral in closed form
    n, dk2, dr2 = polynomial_gaussian_moments(pair)
    rep = uncertainty_product(pair)
    for got, want in ((rep.norm_k, n), (rep.delta_k2, dk2), (rep.delta_r2, dr2),
                      (rep.product, np.sqrt(dr2 * dk2))):
        assert abs(got - want) <= 1e-12 * abs(want), (got, want)


class TestMasslessBound:
    def test_photon(self):
        assert massless_bound(1.0) == 2.5

    def test_scalar(self):
        assert massless_bound(0.0) == 1.5

    def test_h3(self):
        assert massless_bound(3.0) == 3.5

    def test_matches_em_bound(self):
        assert massless_bound(1.0) == BOUND_EM

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            massless_bound(-0.5)
