"""Variance engine: both evaluation paths, the uncertainty product, the
massless bound, and the bound/covariance property suites."""

import cmath
from fractions import Fraction
import itertools
import math
import re

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
    SaturatingFieldSpec,
    SingularAmplitudeError,
    fourier_to_position,
    massless_bound,
    saturating_amplitudes,
    simplest_field,
    synthesize_kspace,
    uncertainty_product,
    write_rsf,
)
from rsuncert.kspace import _Dilated, _add_density, _nonzero_planes, _transform_plan
from rsuncert.moments import (
    _amp_integrals,
    _closed_form_integrals,
    _closed_form_matrices,
    _SphericalRule,
)
from rsuncert.specfun import laguerre_general
from conftest import (
    closed_form_reference,
    fourier_to_kspace,
    node_route_pair,
    phase_evolved_pair,
    polynomial_gaussian_moments,
    random_pair,
    sampled_kspace_field,
    second_moment_oracle,
    spy_densities,
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
    """f = k_perp^2 e^{-k^2/2}: smooth across the kz-axis."""

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
        # sampled data is reported as a FieldGrid built with the frame; its
        # Dk^2 is a Riemann sum of a Gaussian, exact to rounding here.  Its
        # Dr^2 is not compared: Ftilde carries the frame's cone at k = 0,
        # which the amplitude alone does not
        closure = HelicityAmplitudePair(SmoothAmplitude(), None)
        kgrid = Grid3D.centered(64, 16.0).fourier_dual()
        values = SmoothAmplitude().value(*kgrid.meshes())
        ref = uncertainty_product(closure)
        got = uncertainty_product(sampled_kspace_field(values, None, kgrid))
        assert abs(got.delta_k2 - ref.delta_k2) / ref.delta_k2 < 1e-12
        assert got.product >= 2.5 - 1e-6

    def test_dilated_sampled_amplitude(self):
        # f(lambda k) of a sampled f is the same values on the grid whose
        # spacings and origins are divided by lambda (e(lambda k) = e(k))
        kgrid = Grid3D.centered(64, 16.0).fourier_dual()
        KX, KY, KZ = kgrid.meshes()
        # phase-evolved to t = 0.3
        values = SmoothAmplitude().value(KX, KY, KZ) * np.exp(
            -0.3j * np.sqrt(KX * KX + KY * KY + KZ * KZ))
        rep = uncertainty_product(sampled_kspace_field(values, None, kgrid))
        for lam in (0.8, 1.7):
            grid_l = Grid3D(kgrid.counts, tuple(d / lam for d in kgrid.spacings),
                            tuple(o / lam for o in kgrid.origins))
            fK_l = sampled_kspace_field(values, None, grid_l)
            rep_l = uncertainty_product(fK_l)
            assert abs(rep_l.delta_k2 - rep.delta_k2 / lam ** 2) / rep_l.delta_k2 < 1e-12
            assert abs(rep_l.delta_r2 - rep.delta_r2 * lam ** 2) / rep_l.delta_r2 < 1e-12
            assert abs(rep_l.product - rep.product) / rep.product < 1e-12
            # Ftilde(k / lambda, t / lambda) of f(lambda k) is Ftilde(k, t) of f
            dil = HelicityAmplitudePair(SmoothAmplitude()).dilated(lam)
            want = synthesize_kspace(dil.evolved(0.3 * lam), grid_l).values
            assert np.abs(fK_l.values - want).max() <= 1e-13 * np.abs(want).max()

    def test_sampled_cone_amplitude_converges(self):
        # the saturating profile has a conical kink on the kz-axis, so the
        # sampled field's Riemann sums converge only algebraically with the
        # box size
        cone = saturating_amplitudes(1.0, 0.0, 1.0)
        ref = uncertainty_product(cone).delta_r2
        errs = []
        for n, L in ((64, 16.0), (128, 32.0)):
            kg = Grid3D.centered(n, L).fourier_dual()
            field = sampled_kspace_field(cone.f_plus.value(*kg.meshes()), None, kg)
            errs.append(abs(uncertainty_product(field).delta_r2 - ref) / ref)
        assert errs[0] < 0.05
        assert errs[1] < 0.35 * errs[0]

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

    def test_radial_amplitudes_skip_the_axis_probe(self):
        # f = k_perp h(k^2) vanishes on the kz-axis by construction, so a
        # report evaluates each radial amplitude on its two rules only
        pair = saturating_amplitudes(1.0, 0.5, 1.0)
        calls = {}
        for name in ("f_plus", "f_minus"):
            def value(*k, _value=getattr(pair, name).value, _name=name):
                calls[_name] = calls.get(_name, 0) + 1
                return _value(*k)
            getattr(pair, name).value = value
        assert abs(uncertainty_product(pair).product - 2.5) < 1e-12
        assert calls == {"f_plus": 2, "f_minus": 2}


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

    def test_dilated_polynomial_pair_stays_polynomial(self, rng):
        # f(lambda k) of k_perp P(k) e^{-alpha k^2} has coefficients
        # c_e lambda^(|e| + 1) and exponent alpha lambda^2: the same report as
        # the wrapped amplitudes on an explicit rule
        for _ in range(4):
            amps = random_pair(rng, allow_single=False)
            for lam in (0.5, 2.0):
                dil = amps.dilated(lam)
                assert all(isinstance(a, PolynomialGaussianAmplitude)
                           for a in (dil.f_plus, dil.f_minus))
                wrapped = HelicityAmplitudePair(_Dilated(amps.f_plus, lam),
                                                _Dilated(amps.f_minus, lam))
                rule = _SphericalRule(9.0 * max(a.k_scale for a in (dil.f_plus, dil.f_minus)))
                got, want = uncertainty_product(dil), uncertainty_product(wrapped, rule=rule)
                for key in ("delta_r2", "delta_k2", "norm_k"):
                    assert abs(getattr(got, key) / getattr(want, key) - 1) < 1e-12, key

    def test_dilated_radial_pair_stays_radial(self):
        # f(lambda k) of k_perp h(k^2) is k_perp lambda h(lambda^2 k^2): the
        # same report as the wrapped amplitudes on an explicit rule
        sat = saturating_amplitudes(1.0, 0.5j, 1.3)
        for lam in (0.5, 1.7):
            dil = sat.evolved(0.4).dilated(lam)
            assert all(isinstance(a, RadialProfileAmplitude) for a in (dil.f_plus, dil.f_minus))
            wrapped = HelicityAmplitudePair(_Dilated(sat.f_plus, lam), _Dilated(sat.f_minus, lam))
            wrapped.t = dil.t
            got = uncertainty_product(dil)
            want = uncertainty_product(wrapped, rule=_SphericalRule(9.0 * dil.k_scale))
            for key in ("delta_r2", "delta_k2", "norm_k"):
                assert abs(getattr(got, key) / getattr(want, key) - 1) < 1e-12, key

    @pytest.mark.parametrize("op, value", [
        ("dilated", 0.0), ("dilated", -1.0), ("dilated", np.nan), ("dilated", np.inf),
        ("evolved", np.nan), ("evolved", np.inf),
    ], ids=["0.0", "-1.0", "nan", "inf", "evolved-nan", "evolved-inf"])
    @pytest.mark.parametrize("kind", ["closure", "polynomial"])
    def test_dilation_factor_must_be_finite_positive(self, op, value, kind):
        # the dilation factor, and the time of evolved, are refused where
        # the pair is built, naming the value
        pair = (saturating_amplitudes if kind == "closure" else node_route_pair)(1.0, 0.5, 1.0)
        with pytest.raises(ValueError, match=rf"{op}: .* must be finite.*, got {value}"):
            getattr(pair, op)(value)

    @pytest.mark.parametrize("op", ["evolved", "dilated"])
    @pytest.mark.parametrize("kind", ["closure", "polynomial"])
    def test_pair_time_must_stay_finite(self, op, kind):
        # two finite steps whose time overflows are refused where the pair
        # is built, naming the operation, its value and the pair's time
        pair = (saturating_amplitudes if kind == "closure" else node_route_pair)(1.0, 0.5, 1.0)
        first, value = (1e308, 1e308) if op == "evolved" else (1e300, 1e10)
        pair = pair.evolved(first)
        tail = re.escape(f"got inf for {op}({value!r}) of a pair at t = {first!r}")
        with pytest.raises(ValueError, match=rf"{op}: .* must be finite, {tail}"):
            getattr(pair, op)(value)

    @pytest.mark.parametrize("kind", ["closure", "polynomial"])
    def test_report_of_an_overflowing_time_is_refused(self, kind):
        # t^2 N overflows: no NaN or infinite report, and no RuntimeWarning
        # (an error under this suite's filter) on the way
        pair = (saturating_amplitudes if kind == "closure" else node_route_pair)(1.0, 0.5, 1.0)
        assert np.isfinite(uncertainty_product(pair.evolved(1e150)).product)
        with pytest.raises(ValueError, match=r"pair at t = 1e\+200 "):
            uncertainty_product(pair.evolved(1e200))

    @pytest.mark.parametrize("pair", [
        lambda: saturating_amplitudes(1e300, 1e300, 1.0),
        lambda: HelicityAmplitudePair(PolynomialGaussianAmplitude({(0, 0, 0): 1e200}, 1.0), None),
    ], ids=["saturating-1e300", "polynomial-1e200"])
    def test_overflowing_norm_is_refused(self, pair):
        # N = inf is not a zero norm: the message names N and the cause
        with pytest.raises(ValueError, match=r"norm N = inf is not finite; "
                                             r"the amplitudes' scale overflows"):
            uncertainty_product(pair())

    def test_underflowing_norm_is_zero(self):
        # N underflows to 0: still a degenerate pair
        pair = HelicityAmplitudePair(PolynomialGaussianAmplitude({(0, 0, 0): 1e-200}, 1.0), None)
        with pytest.raises(DegenerateFieldError, match="zero norm"):
            uncertainty_product(pair)

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

    def test_rule_that_does_not_apply_rejected(self, tmp_path):
        # a rule is a pair's quadrature rule or its wavevector grid: given
        # with a field or a path it would be ignored, and a grid with a
        # field would read as a grid request, so both are refused
        fieldR = simplest_field_grid(n=16, extent=8.0)
        path = tmp_path / "f.rsf"
        write_rsf(path, fieldR)
        for source in (fieldR, path, str(path)):
            for rule in (fieldR.grid, fieldR.grid.fourier_dual(), _SphericalRule(9.0)):
                with pytest.raises(TypeError, match="rule"):
                    uncertainty_product(source, rule)

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

    @pytest.mark.parametrize("space", ["position", "wavevector"])
    def test_one_read_density_is_the_component_sum(self, monkeypatch, rng, space):
        # the own-space density of one read of the values, x-slab by x-slab
        # (kspace._add_node_density), is the three components' densities
        # added in order, node by node to the bit, on non-cubic counts
        grid = Grid3D((6, 7, 5), (0.5, 0.25, 0.2), (-1.0, 0.0, 2.0))
        vals = rng.normal(size=(6, 7, 5, 3)) + 1j * rng.normal(size=(6, 7, 5, 3))
        want = np.zeros(grid.counts)
        for c in range(3):
            _add_density(want, vals[..., c])
        got = spy_densities(monkeypatch)
        uncertainty_product(FieldGrid(vals, grid, space))
        # position space is reduced first
        own = got[0 if space == "position" else 1]
        assert len(got) == 2 and own.flags.c_contiguous and np.array_equal(own, want)

    @pytest.mark.parametrize("seed", range(20))
    def test_one_density_per_field(self, monkeypatch, seed):
        # FieldGrid.density is the own-space density the report takes, to
        # the bit, so the field's boundary ratio is the report's
        rng = np.random.default_rng(seed)
        grid = Grid3D.centered(32, 8.0)
        field = FieldGrid(rng.normal(size=grid.counts + (3,))
                          + 1j * rng.normal(size=grid.counts + (3,)), grid, "position")
        got = spy_densities(monkeypatch)
        rep = uncertainty_product(field)
        assert len(got) == 2 and np.array_equal(field.density(), got[0])
        assert field.boundary_density_ratio() == rep.boundary_ratio_r

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

    def test_field_left_untouched(self):
        # the reducer reads views of the caller's field and transforms into
        # its own buffer: the field is unchanged in either space
        fK = synthesize_kspace(saturating_amplitudes(1.0, 0.5j, 1.0),
                               Grid3D.centered(32, 16.0).fourier_dual())
        for field in (fK, fourier_to_position(fK)):
            before = field.values.copy()
            uncertainty_product(field)
            assert np.array_equal(field.values, before)



class TestPlanePairs:
    """A report does not change under a global phase, F -> e^{i pi/3} F,
    after which every nonzero component has both planes nonzero and is
    transformed whole, one FFT per component (kspace._transform_plan).  So
    the rotated field's report is the oracle for the reports that skip
    zero components and transform two real planes in one FFT."""

    GRIDS = {"off-centre": Grid3D((31, 48, 40), (0.35, 0.3, 0.32), (-5.6, -7.3, -6.1)),
             "centred": Grid3D.centered(32, 12.0)}

    @staticmethod
    def values(kind, grid, rng):
        if kind == "default-packet":
            pts = np.stack(np.meshgrid(*grid.axes(), indexing="ij"), axis=-1)
            vals = simplest_field(pts, 1.0, 1.0)
            assert not vals[..., 2].any() and not vals[..., :2].imag.any()
            return vals
        x, y, z = grid.meshes()
        env = np.exp(-((x - 0.3) ** 2 + (y + 0.2) ** 2 + (z - 0.1) ** 2) / 2.0)
        shape = grid.counts + (3,)
        re, im = (rng.normal(size=shape) * env[..., None] for _ in range(2))
        units = {"real": (1, 1, 1), "imaginary": (1j, 1j, 1j),
                 "real-imaginary-zero": (1, 1j, 0), "real-pair-complex": (1, 1, None),
                 "single-real": (1, 0, 0)}[kind]
        vals = np.empty(shape, complex)
        for c, unit in enumerate(units):
            vals[..., c] = re[..., c] + 1j * im[..., c] if unit is None else unit * re[..., c]
        return vals

    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("space", ["position", "wavevector"])
    @pytest.mark.parametrize("kind", ["real", "imaginary", "real-imaginary-zero",
                                      "real-pair-complex", "single-real", "default-packet"])
    def test_global_phase_oracle(self, rng, grid, space, kind):
        grid = self.GRIDS[grid]
        vals = self.values(kind, grid, rng)
        rotated = FieldGrid(vals * cmath.exp(1j * math.pi / 3), grid, space)
        assert _transform_plan(_nonzero_planes(rotated.values))[1] == ()
        pairs = _transform_plan(_nonzero_planes(vals))[1]
        assert len(pairs) == (0 if kind == "single-real" else 1)
        got = uncertainty_product(FieldGrid(vals, grid, space))
        want = uncertainty_product(rotated)
        for key in ("delta_r2", "delta_k2", "norm_r", "norm_k"):
            g, w = getattr(got, key), getattr(want, key)
            assert abs(g - w) <= 1e-13 * abs(w), key
        for key in ("boundary_ratio_r", "boundary_ratio_k"):
            assert abs(getattr(got, key) - getattr(want, key)) <= 1e-14, key


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

    @pytest.mark.parametrize("n", range(4))
    def test_radial_rule_is_exact_in_angle(self, n):
        # a radial profile's integrands are polynomials of degree <= 2 in
        # cos(theta), constant in phi: its 4 x 1 angular rule gives the
        # full 20 x 16 rule's report, at any time
        pair = HelicityAmplitudePair(radial_mode_amplitude(n), radial_mode_amplitude(n, C=0.5j))
        for t in (0.0, -1.3):
            got = uncertainty_product(pair.evolved(t))
            want = uncertainty_product(pair.evolved(t), rule=_SphericalRule(9.0))
            for key in ("delta_r2", "delta_k2", "norm_k", "norm_r"):
                assert abs(getattr(got, key) / getattr(want, key) - 1) < 1e-13, key

    def test_grid_report_has_no_quadrature_error(self):
        assert uncertainty_product(simplest_field_grid()).quad_rel_err is None


# k_perp P e^{-alpha k^2}, P of 1-4 monomials of degree <= 3 with
# coefficient moduli in [0.1, 10], in either helicity or both
_monomials = [e for e in itertools.product(range(4), repeat=3) if sum(e) <= 3]


def _random_pairs(seed, count):
    """count pairs drawn from numpy's generator seeded with seed: each
    helicity mix a third of the time, each amplitude 1-4 distinct monomials
    with coefficients of modulus U(0.1, 10) and phase U(0, 2 pi), and
    alpha U(0.35, 1.8).  The draws depend on the seed alone, so a test sees
    the same pairs run alone or in any suite, whatever the package's
    literals."""
    rng = np.random.default_rng(seed)

    def amp():
        picks = rng.choice(len(_monomials), rng.integers(1, 5), replace=False)
        terms = {_monomials[p]: cmath.rect(rng.uniform(0.1, 10.0), rng.uniform(0.0, 2.0 * np.pi))
                 for p in picks}
        return PolynomialGaussianAmplitude(terms, rng.uniform(0.35, 1.8))

    kinds = ((amp, lambda: None), (lambda: None, amp), (amp, amp))
    return [HelicityAmplitudePair(*(make() for make in kinds[rng.integers(3)]))
            for _ in range(count)]


# hard cases kept whatever the draws: f+ = 0.109375 k_perp e^{-0.35 k^2}
# and f- = k_perp kx ky^2 e^{-1.5 k^2}, k_scales 1.195 and 0.577, which a
# reference rule of 32 radial nodes misses delta_r2 by 1.0e-12 (at 48 by
# 1.3e-15)
_HARD_PAIRS = [
    HelicityAmplitudePair(PolynomialGaussianAmplitude({(0, 0, 0): 0.109375}, 0.35),
                          PolynomialGaussianAmplitude({(1, 2, 0): 1.0}, 1.5)),
]


@pytest.mark.parametrize("engine", ["default", "rule"])
def test_amplitude_path_matches_closed_form(engine):
    # conftest.polynomial_gaussian_moments: every integral in closed form,
    # against the default engine (moments' own closed form) and against the
    # spherical-rule pair, whose one explicit rule must reach past the
    # slower-decaying amplitude (the larger k_scale) and resolve the faster
    # one: its 32 radial nodes grow by the ratio of the scales.  200 seeded
    # draws and the hard cases
    for i, pair in enumerate(_HARD_PAIRS + _random_pairs(2718, 200)):
        n, dk2, dr2 = polynomial_gaussian_moments(pair)
        scales = [a.k_scale for a in (pair.f_plus, pair.f_minus) if a is not None]
        n_k = int(np.ceil(32 * max(scales) / min(scales)))
        rule = None if engine == "default" else _SphericalRule(9.0 * max(scales), n_k)
        rep = uncertainty_product(pair, rule=rule)
        for got, want in ((rep.norm_k, n), (rep.delta_k2, dk2), (rep.delta_r2, dr2),
                          (rep.product, np.sqrt(dr2 * dk2))):
            assert abs(got - want) <= 1e-12 * abs(want), (i, got, want)


def expanded_radial_mode(n):
    """radial_mode_amplitude(n) (a = 1) as a PolynomialGaussianAmplitude:
    k_perp L_n^{3/2}(k^2) e^{-k^2/2}, with L_n^{3/2}(q) = sum_j
    binom(n + 3/2, n - j) (-q)^j / j! and q^j = (kx^2 + ky^2 + kz^2)^j
    expanded into monomials, each coefficient exact and rounded once."""
    terms = {}
    for j in range(n + 1):
        c = Fraction((-1) ** j, math.factorial(j))
        for i in range(n - j):
            c *= Fraction(2 * n + 3 - 2 * i, 2) / (i + 1)
        for i, l in itertools.product(range(j + 1), repeat=2):
            if i + l <= j:
                e = (2 * i, 2 * l, 2 * (j - i - l))
                multinomial = math.factorial(j) // (
                    math.factorial(i) * math.factorial(l) * math.factorial(j - i - l))
                terms[e] = terms.get(e, 0) + c * multinomial
    return PolynomialGaussianAmplitude({e: float(c) for e, c in terms.items()}, 0.5)


class TestClosedFormEngine:
    """With no rule given, polynomial amplitudes are integrated in closed
    form (moments._closed_form_integrals); quad_rel_err is then a float
    rounding bound, and norm_r is the exact norm."""

    @pytest.mark.parametrize("n", range(4))
    def test_radial_modes(self, n):
        # gamma_n = 5/2 + 2n exactly; the expanded coefficients cancel more
        # with n, and the rounding bound must cover the error that leaves
        want = 2.5 + 2 * n
        rep = uncertainty_product(HelicityAmplitudePair(expanded_radial_mode(n), None))
        assert abs(rep.product - want) <= 1e-11
        measured = max(abs(v / want - 1.0) for v in (rep.product, rep.delta_r2, rep.delta_k2))
        assert measured <= rep.quad_rel_err
        assert rep.norm_r == rep.norm_k

    @pytest.mark.parametrize("poly_mode, radial_mode, larger", [
        (3, 0, "exact"),   # cancellation in the expanded L_3
        (0, 3, "ruled"),   # the n = 3 mode on the spherical rules
    ])
    def test_mixed_pair_error_is_the_larger_part(self, poly_mode, radial_mode, larger):
        poly, radial = expanded_radial_mode(poly_mode), radial_mode_amplitude(radial_mode)
        parts = {"exact": uncertainty_product(HelicityAmplitudePair(poly, None)).quad_rel_err,
                 "ruled": uncertainty_product(HelicityAmplitudePair(None, radial)).quad_rel_err}
        assert max(parts, key=parts.get) == larger
        rep = uncertainty_product(HelicityAmplitudePair(poly, radial))
        assert rep.quad_rel_err == max(parts.values())

    @pytest.mark.parametrize("terms", [{}, {(0, 0, 0): 0.0}], ids=["no-terms", "zero"])
    def test_zero_amplitude_adds_no_error(self, terms):
        # a zero amplitude has zero sums and a zero error: the report's
        # estimate is its partner's, finite
        radial = radial_mode_amplitude(1)
        alone = uncertainty_product(HelicityAmplitudePair(radial, None)).quad_rel_err
        rep = uncertainty_product(HelicityAmplitudePair(radial, PolynomialGaussianAmplitude(terms, 0.5)))
        assert rep.quad_rel_err == alone

    def test_matches_per_shift_reference_bit_for_bit(self):
        # the one-gather kernel against conftest.closed_form_reference, one
        # gather per shifted moment: the same matrices and forms, to the
        # bit, over P of degree <= 3 with 1-6 terms, both signs, three
        # times and dilations (a dilated polynomial amplitude stays one)
        rng = np.random.default_rng(31)
        monomials = [e for e in itertools.product(range(4), repeat=3) if sum(e) <= 3]
        for i in range(108):
            picks = rng.choice(len(monomials), size=rng.integers(1, 7), replace=False)
            terms = {monomials[j]: complex(*rng.normal(size=2)) for j in picks}
            amp = PolynomialGaussianAmplitude(terms, rng.uniform(0.35, 1.8))
            lam = (1.0, 0.5, 2.0)[i % 3]
            if lam != 1.0:
                amp = HelicityAmplitudePair(amp, None).dilated(lam).f_plus
            sign = (1.0, -1.0)[(i // 3) % 2]
            t = (0.0, 0.7, -1.3)[(i // 6) % 3]
            want_matrices, want = closed_form_reference(amp, sign, t)
            got = _closed_form_matrices(list(amp.terms), amp.alpha, sign, t)
            for g, w in zip(got, want_matrices):
                assert np.array_equal(g, w), (i, terms)
            assert np.array_equal(_closed_form_integrals(amp, sign, t), want), (i, terms)

    def test_explicit_rule_integrates_polynomials(self):
        # rule= still selects the spherical-rule pair: its error is the
        # difference between the two rules, and norm_r the coarser norm
        pair = HelicityAmplitudePair(expanded_radial_mode(3), None)
        exact = uncertainty_product(pair)
        ruled = uncertainty_product(pair, rule=_SphericalRule(9.0))
        assert ruled.norm_r != ruled.norm_k
        assert 1e-12 < ruled.quad_rel_err < 1e-6
        assert abs(ruled.product / exact.product - 1.0) < 1e-9


class TestEvolvedPairs:
    """A pair's time t is integrated through the phase identity of the
    moments docstring, in closed form for polynomial pairs and on the
    spherical rules for closures; the reference is the phase multiplied
    into value and grad at every node (conftest.PhaseEvolved)."""

    @staticmethod
    def max_rel_err(rep, n, dk2, dr2):
        return max(abs(got / want - 1.0) for got, want in
                   ((rep.norm_k, n), (rep.delta_k2, dk2), (rep.delta_r2, dr2)))

    @pytest.mark.parametrize("t", [-1.3, 0.3, 2.5])
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_polynomial_pairs_match_reference_closure(self, t, lam):
        # p.evolved(t).dilated(lam) is p.dilated(lam) at time lam t.  The
        # rounding bound is checked against the tests' closed form: the
        # fine rule's own rounding reaches 1e-14 on some of these pairs
        rng = np.random.default_rng([round(10 * t) + 20, round(10 * lam)])
        for _ in range(4):
            pair = random_pair(rng)
            rep = uncertainty_product(pair.evolved(t).dilated(lam))
            ref = phase_evolved_pair(pair.dilated(lam), lam * t)
            n, mk, mr = sum(
                _amp_integrals(amp, sign, _SphericalRule(10.5 * amp.k_scale, 96, 48, 32))
                for amp, sign in ((ref.f_plus, 1.0), (ref.f_minus, -1.0)) if amp is not None)
            assert self.max_rel_err(rep, n, mk / n, mr / n) <= 1e-12
            exact = self.max_rel_err(rep, *polynomial_gaussian_moments(pair.dilated(lam), lam * t))
            assert exact <= 1e-12
            assert rep.quad_rel_err >= exact

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_saturating_spreading_law(self, a):
        # Dr^2(t) = a^2 5/2 + t^2 exactly, on the spherical rules
        amps = SaturatingFieldSpec.simplest(1.0, a).amplitudes()
        for t in (-1.3, 0.4, 3.0):
            got = uncertainty_product(amps.evolved(t)).delta_r2
            want = 2.5 * a * a + t * t
            assert abs(got / want - 1.0) <= 1e-14, (t, got, want)

    @pytest.mark.parametrize("kind", ["closure", "polynomial"])
    def test_dilation_scales_time(self, kind, rng):
        pair = saturating_amplitudes(1.0, 0.5j, 1.3) if kind == "closure" else random_pair(rng)
        for t, lam in ((0.7, 0.5), (-1.3, 2.0)):
            a, b = pair.evolved(t).dilated(lam), pair.dilated(lam).evolved(lam * t)
            assert a.t == b.t == lam * t
            ra, rb = uncertainty_product(a), uncertainty_product(b)
            assert ra.to_dict() == rb.to_dict() and ra.quad_rel_err == rb.quad_rel_err


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
