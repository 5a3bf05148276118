"""Closed-form fields: scalar generator, derivative-built RS vector,
photon wave functions, rotations and boosts."""

import numpy as np
import pytest

from rsuncert import (
    FieldGrid,
    Grid3D,
    SaturatingFieldSpec,
    boost,
    fourier_to_kspace,
    light_cone_vars,
    photon_wavefunctions,
    rotate,
    saturating_field_t0,
    saturating_rs_field,
    scalar_generator,
    simplest_field,
)
from rsuncert.specfun import dawson
from conftest import mixed_partial_4th, second_partial_4th

# frozen from the Dawson series oracle: D(1/sqrt(2))
D_INV_SQRT2 = 0.51249576322183982848

SQ2PI = np.sqrt(2.0 * np.pi)


def random_points(rng, n, lo=0.15, hi=4.0):
    p = rng.normal(size=(n, 3))
    p *= (rng.uniform(lo, hi, size=(n, 1)) / np.linalg.norm(p, axis=1, keepdims=True))
    return p


class TestSimplestField:
    def test_vanishes_on_z_axis(self):
        pts = np.array([[0.0, 0.0, -2.0], [0.0, 0.0, 0.7]])
        assert np.all(simplest_field(pts, 1.0, 1.0) == 0.0)

    def test_direct_substitution(self):
        val = simplest_field(np.array([1.0, 0.0, 0.0]), 1.0, 1.0)
        want = np.array([0.0, -np.exp(-0.5), 0.0])
        assert np.allclose(val, want, atol=1e-16)

    def test_fft_counterpart(self):
        # numerically FFT'd k-space field of the packet is
        # -i C a^5 e^{-a^2k^2/2} (ky, -kx, 0): modulus matches the printed
        # i C a^5 form, overall phase fixed by the synthesis convention
        C, a = 1.0, 1.0
        grid = Grid3D.centered(64, 16.0)
        pts = np.stack(np.meshgrid(*grid.axes(), indexing="ij"), axis=-1)
        fieldK = fourier_to_kspace(FieldGrid(simplest_field(pts, C, a), grid, "position"))
        KX, KY, KZ = fieldK.grid.meshes(sparse=False)
        env = 1j * C * a ** 5 * np.exp(-a * a * (KX ** 2 + KY ** 2 + KZ ** 2) / 2)
        printed = np.stack([env * KY, -env * KX, np.zeros_like(env)], axis=-1)
        got = fieldK.values
        den = np.linalg.norm(printed)
        assert np.linalg.norm(got - (-printed)) / den < 1e-6
        assert np.linalg.norm(np.abs(got) - np.abs(printed)) / den < 1e-6

    def test_bad_scale(self):
        with pytest.raises(ValueError):
            simplest_field(np.zeros(3), 1.0, 0.0)


class TestScalarGenerator:
    def test_origin_limit(self):
        for a in (1.0, 2.5):
            spec = SaturatingFieldSpec(a=a)
            want = 1.0 / (np.sqrt(2.0) * a * a)
            assert abs(scalar_generator(0.0, 0.0, spec) - want) < 1e-14
            assert abs(scalar_generator(1e-7 * a, 0.0, spec) - want) < 1e-10

    def test_real_at_t0(self, rng):
        spec = SaturatingFieldSpec(a=1.3)
        r = rng.uniform(0.01, 6.0, size=40)
        for hel in (+1, -1):
            vals = scalar_generator(r, 0.0, spec, helicity=hel)
            assert np.max(np.abs(vals.imag)) == 0.0

    def test_value_r1_t0(self):
        # Fgen(1, 0) = (1/2)[D(1/sqrt2) + D(1/sqrt2)] = D(1/sqrt2)
        spec = SaturatingFieldSpec(a=1.0)
        got = scalar_generator(1.0, 0.0, spec)
        assert abs(got - D_INV_SQRT2) < 1e-14
        assert abs(got.real - dawson(1.0 / np.sqrt(2.0))) < 1e-14

    def test_helicity_sign_convention(self):
        # Fgen_+ carries -i sqrt(pi)/2 (e^{-l+^2}-e^{-l-^2}); check both signs
        spec = SaturatingFieldSpec(a=1.0)
        r, t = 1.1, 0.6
        lp, lm = light_cone_vars(r, t, spec.a)
        G = dawson(lp) + dawson(lm)
        H = np.exp(-lp ** 2) - np.exp(-lm ** 2)
        want_p = (G - 1j * np.sqrt(np.pi) / 2 * H) / (2 * spec.a * r)
        want_m = (G + 1j * np.sqrt(np.pi) / 2 * H) / (2 * spec.a * r)
        assert abs(scalar_generator(r, t, spec, +1) - want_p) < 1e-15
        assert abs(scalar_generator(r, t, spec, -1) - want_m) < 1e-15

    def test_wave_equation(self, rng):
        # (dt^2 - Lap) Fgen = 0; radial Laplacian by finite differences
        spec = SaturatingFieldSpec(a=1.0)
        h = 1e-3 * spec.a
        for _ in range(12):
            r = float(rng.uniform(0.4, 3.0))
            t = float(rng.uniform(-1.0, 1.0))
            f = lambda rr, tt: scalar_generator(rr, tt, spec, +1)
            dtt = (f(r, t + h) - 2 * f(r, t) + f(r, t - h)) / h ** 2
            drr = (f(r + h, t) - 2 * f(r, t) + f(r - h, t)) / h ** 2
            dr = (f(r + h, t) - f(r - h, t)) / (2 * h)
            lap = drr + 2.0 / r * dr
            scale = max(abs(dtt), abs(lap), 1.0)
            assert abs(dtt - lap) / scale < 1e-5

    def test_bad_helicity(self):
        with pytest.raises(ValueError):
            scalar_generator(1.0, 0.0, SaturatingFieldSpec(a=1.0), helicity=0)


class TestSaturatingRsField:
    @pytest.mark.parametrize("kwargs", [
        dict(a=np.inf), dict(a=np.nan), dict(a=0.0),
        dict(a=1.0, c_plus=complex(np.nan, 0.0)), dict(a=1.0, c_minus=complex(0.0, np.inf)),
    ])
    def test_spec_rejects_nonfinite_or_nonpositive(self, kwargs):
        with pytest.raises(ValueError, match="SaturatingFieldSpec"):
            SaturatingFieldSpec(**kwargs)

    def test_reduces_to_simplest_packet(self, rng):
        for C, a in ((1.0, 1.0), (0.4 - 1.1j, 1.7)):
            spec = SaturatingFieldSpec.simplest(C, a)
            pts = random_points(rng, 24, lo=0.0005, hi=5.0)
            got = saturating_rs_field(pts, 0.0, spec)
            want = simplest_field(pts, C, a)
            assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, abs(C))

    def test_transverse_components_vanish_on_axis(self):
        spec = SaturatingFieldSpec(a=1.0, c_plus=0.7, c_minus=0.2j)
        pts = np.array([[0.0, 0.0, 1.4], [0.0, 0.0, -0.3]])
        for t in (0.0, 0.8):
            F = saturating_rs_field(pts, t, spec)
            assert np.all(F[:, 0] == 0.0)
            assert np.all(F[:, 1] == 0.0)

    def test_matches_explicit_t0_components(self, rng):
        # C+ = 0, C- = sqrt(2 pi) reproduces the explicit closed-form triple
        for a in (1.0, 1.3):
            spec = SaturatingFieldSpec(a=a, c_plus=0.0, c_minus=SQ2PI)
            pts = random_points(rng, 20, lo=0.15 * a, hi=4.0 * a)
            got = saturating_rs_field(pts, 0.0, spec)
            want = saturating_field_t0(pts, a)
            scale = np.abs(want).max()
            assert np.max(np.abs(got - want)) < 1e-12 * scale

    def test_point_111(self):
        # r = (1,1,1), a = 1, t = 0 against the independent explicit formula
        pts = np.array([1.0, 1.0, 1.0])
        spec = SaturatingFieldSpec(a=1.0, c_plus=0.0, c_minus=SQ2PI)
        got = saturating_rs_field(pts, 0.0, spec)
        want = saturating_field_t0(pts, 1.0)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-14)
        # spot-check one component against a by-hand evaluation of the
        # formula: x = y = z = 1, r^2 = 3, so 3a^2 + r^2 = 6 and
        # 2a^4 + (a^2 + r^2)^2 = 18
        r = np.sqrt(3.0)
        Dl = dawson(r / np.sqrt(2.0))
        Q = np.sqrt(2.0) * r * 6.0 - 2.0 * 18.0 * Dl
        fx_hand = (np.sqrt(np.pi) * r ** 5 * np.exp(-1.5) - Q) / r ** 5
        assert abs(got[0] - fx_hand) < 1e-12

    def test_derivative_matrix_fd_oracle(self, rng):
        # 4th-order finite-difference application of the derivative matrix
        # to the combined scalar matches the closed-form components.
        cp, cm = 0.6 + 0.3j, -0.8 + 0.1j
        a = 1.0
        spec = SaturatingFieldSpec(a=a, c_plus=cp, c_minus=cm)
        pref = np.sqrt(2.0 / np.pi)

        def G(x, y, z, t):
            r = np.sqrt(x * x + y * y + z * z)
            # library scalar: C+ T+ + conj(C-) T-, with T+- equal to
            # sqrt(2/pi) x the printed generator with swapped helicity labels
            tp = pref * scalar_generator(r, t, spec, helicity=-1)
            tm = pref * scalar_generator(r, t, spec, helicity=+1)
            return cp * tp + np.conj(cm) * tm

        h = 0.02
        for _ in range(20):
            x, y, z = (float(v) for v in random_points(rng, 1, lo=0.6, hi=2.5)[0])
            t = float(rng.uniform(-0.8, 0.8))
            p = (x, y, z, t)
            dxdz = mixed_partial_4th(G, p, 0, 2, h)
            dydz = mixed_partial_4th(G, p, 1, 2, h)
            dydt = mixed_partial_4th(G, p, 1, 3, h)
            dxdt = mixed_partial_4th(G, p, 0, 3, h)
            dxx = second_partial_4th(G, p, 0, h)
            dyy = second_partial_4th(G, p, 1, h)
            want = np.array([
                dxdz + 1j * dydt,
                dydz - 1j * dxdt,
                -dxx - dyy,
            ])
            got = saturating_rs_field(np.array([x, y, z]), t, spec)
            scale = max(np.abs(want).max(), 1e-6)
            assert np.max(np.abs(got - want)) / scale < 1e-6

    def test_divergence_free_t0(self, rng):
        spec = SaturatingFieldSpec(a=1.0, c_plus=1.0, c_minus=0.5)

        def F(x, y, z):
            return saturating_rs_field(np.array([x, y, z]), 0.0, spec)

        h = 1e-3
        for _ in range(10):
            x, y, z = (float(v) for v in random_points(rng, 1, lo=0.5, hi=2.0)[0])
            div = (
                (F(x + h, y, z)[0] - F(x - h, y, z)[0])
                + (F(x, y + h, z)[1] - F(x, y - h, z)[1])
                + (F(x, y, z + h)[2] - F(x, y, z - h)[2])
            ) / (2 * h)
            scale = np.abs(F(x, y, z)).max()
            assert abs(div) / scale < 1e-6

    def test_series_closed_form_agree_on_switch_shell(self, rng, monkeypatch):
        # smoothness at r = 0: the two evaluation branches agree at the same
        # points (branch forced via the switch radius).  At t = 0 the shell
        # r = 1e-3 a meets the 1e-9 target; at the production switch radius
        # both branches agree everywhere in t.
        import rsuncert.analytic_fields as af

        spec = SaturatingFieldSpec(a=1.0, c_plus=0.9, c_minus=-0.4 + 0.2j)
        u = rng.normal(size=(30, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        production_switch = af.R_SWITCH

        def both_branches(pts, t):
            monkeypatch.setattr(af, "R_SWITCH", 10.0)
            f_series = saturating_rs_field(pts, t, spec)
            monkeypatch.setattr(af, "R_SWITCH", 1e-9)
            f_closed = saturating_rs_field(pts, t, spec)
            return f_series, f_closed

        f_series, f_closed = both_branches(u * 1e-3, 0.0)
        scale = np.abs(f_closed).max()
        assert np.max(np.abs(f_series - f_closed)) / scale < 1e-9

        for t in (0.0, 0.5):
            f_series, f_closed = both_branches(u * production_switch, t)
            scale = np.abs(f_closed).max()
            assert np.max(np.abs(f_series - f_closed)) / scale < 1e-9


class TestGridEvaluation:
    """A centred Grid3D in place of points: one radius table, gathered."""

    MIXES = {
        "simplest": SaturatingFieldSpec.simplest(C=1.0, a=1.0),
        "mixed": SaturatingFieldSpec(a=1.0, c_plus=0.9, c_minus=-0.4 + 0.2j),
    }

    @pytest.mark.parametrize("n, extent", [(16, 8.0), (32, 12.0), (64, 16.0), (64, 3.0)])
    @pytest.mark.parametrize("t", [0.0, 0.4, -0.8])
    def test_matches_points(self, n, extent, t):
        # the 64^3 box of edge 3a puts its innermost nodes (r = 0.041a)
        # inside the series branch
        import rsuncert.analytic_fields as af

        grid = Grid3D.centered(n, extent)
        if extent == 3.0:
            assert np.sqrt(3.0) * grid.spacings[0] / 2 < af.R_SWITCH
        pts = np.stack(np.meshgrid(*grid.axes(), indexing="ij"), axis=-1)

        def close(got, want):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

        for spec in self.MIXES.values():
            close(saturating_rs_field(grid, t, spec), saturating_rs_field(pts, t, spec))
        spec = SaturatingFieldSpec(a=1.0, c_plus=0.7 - 0.3j)
        for got, want in zip(photon_wavefunctions(grid, t, spec),
                             photon_wavefunctions(pts, t, spec)):
            close(got, want)

    @pytest.mark.parametrize("grid", [
        Grid3D((16, 16, 16), (0.5, 0.5, 0.5), (0.0, 0.0, 0.0)),       # not centred
        Grid3D((16, 16, 32), (0.5, 0.5, 0.25), (-3.75, -3.75, -3.875)),  # not a cube
        Grid3D((16, 16, 16), (0.5, 0.5, 0.6), (-3.75, -3.75, -4.5)),   # unequal spacings
        Grid3D.centered(15, 7.5),                                     # node at r = 0
    ])
    def test_other_grids_rejected(self, grid):
        spec = SaturatingFieldSpec(a=1.0, c_plus=1.0)
        with pytest.raises(ValueError, match="centred cube"):
            saturating_rs_field(grid, 0.0, spec)
        with pytest.raises(ValueError, match="centred cube"):
            photon_wavefunctions(grid, 0.0, spec)


class TestPhotonWavefunctions:
    @pytest.mark.parametrize("C", [1.0, 0.7 - 0.4j])
    @pytest.mark.parametrize("t", [0.0, 0.3, -1.2])
    def test_minus_is_flipped_rows_on_mirrored_scalar(self, rng, C, t):
        # F- from its definition: the (-i dy dt, +i dx dt) rows acting on
        # the scalar with B = -i sqrt(pi)/2 C, against the conjugation
        # route F-(C) = conj(F+(conj C)), at points and on a centred grid
        from rsuncert.analytic_fields import _scalar_blocks

        a = 1.3
        spec = SaturatingFieldSpec(a=a, c_plus=C)
        grid = Grid3D.centered(16, 9.0)
        for pts, where in ((random_points(rng, 400, lo=0.001, hi=5.0), None),
                           (np.stack(grid.meshes(sparse=False), axis=-1), grid)):
            x, y, z = pts[..., 0], pts[..., 1], pts[..., 2]
            w2, grt, gr = _scalar_blocks(np.sqrt((pts ** 2).sum(axis=-1)), t, a,
                                         C, -1j * np.sqrt(np.pi) / 2.0 * C)
            want = np.stack([x * z * w2 - 1j * y * grt, y * z * w2 + 1j * x * grt,
                             -(x * x + y * y) * w2 - 2.0 * gr], axis=-1)
            _, got = photon_wavefunctions(pts if where is None else where, t, spec)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.abs(want).max()

    def test_equal_at_t0(self, rng):
        spec = SaturatingFieldSpec(a=1.0, c_plus=1.0)
        pts = random_points(rng, 50, lo=0.001, hi=4.0)
        fp, fm = photon_wavefunctions(pts, 0.0, spec)
        assert np.max(np.abs(fp - fm)) < 1e-12 * np.abs(fp).max()

    def test_plus_equals_cminus_zero_field(self, rng):
        spec = SaturatingFieldSpec(a=1.2, c_plus=0.8 - 0.1j, c_minus=0.0)
        pts = random_points(rng, 20)
        for t in (0.0, 0.7):
            fp, _ = photon_wavefunctions(pts, t, spec)
            want = saturating_rs_field(pts, t, spec)
            assert np.max(np.abs(fp - want)) == 0.0

    def test_conjugate_pair_for_real_normalization(self, rng):
        spec = SaturatingFieldSpec(a=1.0, c_plus=1.0)
        pts = random_points(rng, 10)
        fp, fm = photon_wavefunctions(pts, 0.45, spec)
        assert np.max(np.abs(fm - np.conj(fp))) < 1e-13 * np.abs(fp).max()

    def test_t0_moments_saturate(self):
        # the t = 0 wave function fed to the moment engine gives
        # Dr^2 = 5 a^2/2 (exact on the amplitude path; the grid path is
        # limited by the 1/r^4 tails of the single-helicity packet)
        from rsuncert import uncertainty_product

        for a in (1.0, 1.5):
            spec = SaturatingFieldSpec(a=a, c_plus=1.0)
            rep = uncertainty_product(spec.amplitudes())
            assert abs(rep.delta_r2 - 2.5 * a * a) < 1e-6 * a * a
            assert abs(rep.delta_k2 - 2.5 / (a * a)) < 1e-6 / (a * a)
        a = 1.0
        spec = SaturatingFieldSpec(a=a, c_plus=1.0)
        grid = Grid3D.centered(64, 24.0 * a)
        pts = np.stack(np.meshgrid(*grid.axes(), indexing="ij"), axis=-1)
        fp, _ = photon_wavefunctions(pts, 0.0, spec)
        dr2 = uncertainty_product(FieldGrid(fp, grid, "position")).delta_r2
        assert abs(dr2 - 2.5 * a * a) < 2e-3 * a * a


class TestRotateBoost:
    def test_identity_rotation(self, rng):
        F = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
        out = rotate(F, np.array([0.0, 0.0, 1.0]), 0.0)
        assert np.allclose(out, F, atol=1e-15)

    def test_quarter_turn_about_z(self):
        out = rotate(np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]), np.pi / 2)
        assert np.allclose(out, [0.0, 1.0, 0.0], atol=1e-15)

    def test_norm_preserved(self, rng):
        F = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        out = rotate(F, n, 1.234)
        assert np.allclose(
            np.einsum("ij,ij->i", out.conj(), out).real,
            np.einsum("ij,ij->i", F.conj(), F).real,
            rtol=1e-13,
        )

    def test_linearity(self, rng):
        F1 = rng.normal(size=3) + 1j * rng.normal(size=3)
        F2 = rng.normal(size=3) + 1j * rng.normal(size=3)
        n = np.array([0.0, 1.0, 0.0])
        lhs = rotate(2.0 * F1 + 3j * F2, n, 0.7)
        rhs = 2.0 * rotate(F1, n, 0.7) + 3j * rotate(F2, n, 0.7)
        assert np.allclose(lhs, rhs, atol=1e-14)

    def test_non_unit_axis_rejected(self):
        with pytest.raises(ValueError):
            rotate(np.ones(3), np.array([0.0, 0.0, 2.0]), 0.3)
        with pytest.raises(ValueError):
            boost(np.ones(3), +1, np.array([1.0, 1.0, 0.0]), 0.3)

    def test_identity_boost(self, rng):
        F = rng.normal(size=3) + 1j * rng.normal(size=3)
        out = boost(F, +1, np.array([1.0, 0.0, 0.0]), 0.0)
        assert np.allclose(out, F, atol=1e-15)

    def test_boost_inverse(self, rng):
        F = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        for hel in (+1, -1):
            out = boost(boost(F, hel, n, 0.8), hel, n, -0.8)
            assert np.max(np.abs(out - F)) < 1e-12

    def test_boost_does_not_preserve_density(self, rng):
        F = np.array([0.3 + 0.1j, -0.7, 0.2j])
        n = np.array([0.0, 0.0, 1.0])
        out = boost(F, +1, n, 0.9)
        before = np.vdot(F, F).real
        after = np.vdot(out, out).real
        assert abs(after - before) > 1e-3 * before

    def test_bad_helicity(self):
        with pytest.raises(ValueError):
            boost(np.ones(3), 0, np.array([0.0, 0.0, 1.0]), 0.1)


class TestSpecValidation:
    def test_light_cone_vars_t0(self):
        lp, lm = light_cone_vars(1.0, 0.0, 2.0)
        assert lp == lm == 1.0 / (np.sqrt(2.0) * 2.0)

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            SaturatingFieldSpec(a=-1.0)
        with pytest.raises(ValueError):
            SaturatingFieldSpec(a=1.0, c_plus=0.0, c_minus=0.0)
