"""Polarization frame, synthesis, Fourier bridge and norms."""

import numpy as np
import pytest

from rsuncert import (
    AxisSingularityError,
    DegenerateFieldError,
    FieldGrid,
    Grid3D,
    HelicityAmplitudePair,
    fourier_to_kspace,
    fourier_to_position,
    norm,
    polarization,
    saturating_amplitudes,
    simplest_field,
    simplest_field_amplitudes,
    synthesize_kspace,
)
from conftest import second_moment_oracle


def random_offaxis_k(rng, n):
    k = rng.normal(size=(n, 3)) * rng.uniform(0.2, 3.0, size=(n, 1))
    kp = np.hypot(k[:, 0], k[:, 1])
    keep = kp > 1e-3 * np.linalg.norm(k, axis=1)
    return k[keep]


class TestPolarization:
    def test_hand_value_x(self):
        ex, ey, ez = polarization(1.0, 0.0, 0.0)
        want = np.array([0.0, -1j, 1.0]) / np.sqrt(2)
        assert np.allclose([ex, ey, ez], want, atol=1e-15)

    def test_hand_value_y(self):
        ex, ey, ez = polarization(0.0, 1.0, 0.0)
        want = np.array([1j, 0.0, 1.0]) / np.sqrt(2)
        assert np.allclose([ex, ey, ez], want, atol=1e-15)

    def test_conjugation_symmetry(self):
        e1 = np.array(polarization(-1.0, 0.0, 0.0))
        e2 = np.array(polarization(1.0, 0.0, 0.0))
        assert np.allclose(e1, np.conj(e2), atol=1e-15)

    def test_invariants_random(self, rng):
        k = random_offaxis_k(rng, 1200)[:1000]
        kx, ky, kz = k.T
        e = np.stack(polarization(kx, ky, kz), axis=-1)
        kn = np.linalg.norm(k, axis=1)
        # unit norm
        assert np.max(np.abs(np.einsum("ij,ij->i", e.conj(), e).real - 1)) < 1e-14
        # transversality e.k = 0
        assert np.max(np.abs(np.einsum("ij,ij->i", e, k))) < 1e-14 * kn.max()
        # helicity eigenrelation i k x e = k e
        lhs = 1j * np.cross(k, e)
        rhs = kn[:, None] * e
        assert np.max(np.linalg.norm(lhs - rhs, axis=1)) < 1e-13 * kn.max()
        # null bilinear e.e = 0 (what keeps +/- channels from mixing)
        assert np.max(np.abs(np.einsum("ij,ij->i", e, e))) < 1e-14

    def test_on_axis_rejected(self):
        with pytest.raises(AxisSingularityError):
            polarization(0.0, 0.0, 1.0)
        with pytest.raises(AxisSingularityError):
            polarization(1e-15, 0.0, 2.0)


class TestSynthesis:
    def test_plus_only_reduces_to_e_f(self, rng):
        grid = Grid3D.centered(16, 12.0).fourier_dual()
        amps = saturating_amplitudes(1.3 - 0.4j, 0.0, 1.0)
        field = synthesize_kspace(amps, grid, t=0.0)
        KX, KY, KZ = grid.meshes()
        ex, ey, ez = polarization(KX, KY, KZ)
        f = amps.f_plus.value(KX, KY, KZ)
        want = np.stack(np.broadcast_arrays(ex * f, ey * f, ez * f), axis=-1)
        assert np.allclose(field.values, want, atol=1e-15)

    def test_simplest_pair_matches_printed_transform(self):
        # C+ = C a^5/sqrt2, C- = -conj(C) a^5/sqrt2 gives
        # Ftilde = i C a^5 e^{-a^2k^2/2} (ky, -kx, 0)
        C, a = 0.8 + 0.5j, 1.2
        grid = Grid3D.centered(16, 10.0).fourier_dual()
        field = synthesize_kspace(simplest_field_amplitudes(C, a), grid, t=0.0)
        KX, KY, KZ = grid.meshes(sparse=False)
        env = 1j * C * a ** 5 * np.exp(-a * a * (KX ** 2 + KY ** 2 + KZ ** 2) / 2)
        want = np.stack([env * KY, -env * KX, np.zeros_like(env)], axis=-1)
        assert np.max(np.abs(field.values - want)) < 1e-13 * np.abs(want).max()

    def test_pointwise_hand_evaluation(self, rng):
        grid = Grid3D.centered(16, 9.0).fourier_dual()
        cp, cm = 0.7 + 0.2j, -0.3 + 0.9j
        a = 0.9
        t = 0.37
        field = synthesize_kspace(saturating_amplitudes(cp, cm, a), grid, t=t)
        xs, ys, zs = grid.axes()
        for _ in range(5):
            i, j, l = rng.integers(0, 16, size=3)
            kx, ky, kz = xs[i], ys[j], zs[l]
            kp = np.hypot(kx, ky)
            k = np.sqrt(kx * kx + ky * ky + kz * kz)
            e = np.array(polarization(kx, ky, kz))
            fp = cp * kp * np.exp(-a * a * k * k / 2)
            fm_conj_negk = np.conj(cm * kp * np.exp(-a * a * k * k / 2))
            want = e * fp * np.exp(-1j * k * t) + np.conj(e) * fm_conj_negk * np.exp(1j * k * t)
            assert np.allclose(field.values[i, j, l], want, atol=1e-15)

    def test_nonfinite_time_rejected(self):
        grid = Grid3D.centered(16, 9.0).fourier_dual()
        with pytest.raises(ValueError):
            synthesize_kspace(saturating_amplitudes(1.0, 0.0, 1.0), grid, t=np.nan)

    def test_on_axis_grid_propagates_singularity(self):
        # a custom grid with nodes at kx = ky = 0 hits the frame singularity
        bad = Grid3D((4, 4, 4), (0.5, 0.5, 0.5), (0.0, 0.0, 0.1))
        with pytest.raises(AxisSingularityError):
            synthesize_kspace(saturating_amplitudes(1.0, 0.0, 1.0), bad)

    def test_positive_frequency_field_is_helicity_eigenstate(self):
        # i k x Ftilde = k Ftilde for an f+-only field: equivalently the
        # synthesized field satisfies the spectral RS Maxwell equation.
        grid = Grid3D.centered(24, 14.0).fourier_dual()
        field = synthesize_kspace(saturating_amplitudes(1.0, 0.0, 1.1), grid)
        KX, KY, KZ = grid.meshes(sparse=False)
        kvec = np.stack([KX, KY, KZ], axis=-1)
        kn = np.linalg.norm(kvec, axis=-1)
        lhs = 1j * np.cross(kvec, field.values)
        rhs = kn[..., None] * field.values
        scale = np.abs(rhs).max()
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * scale


class TestFourierBridge:
    def test_round_trip_identity(self, rng):
        grid = Grid3D.centered(32, 11.0)
        vals = rng.normal(size=(32, 32, 32, 3)) + 1j * rng.normal(size=(32, 32, 32, 3))
        field = FieldGrid(vals, grid, "position")
        back = fourier_to_position(fourier_to_kspace(field))
        err = np.linalg.norm(back.values - vals) / np.linalg.norm(vals)
        assert err < 1e-12

    def test_simplest_field_transform_pair(self):
        # position packet C e^{-r^2/2a^2}(y,-x,0) <-> -i C a^5 e^{-a^2k^2/2}(ky,-kx,0)
        C, a = 1.0, 1.0
        grid = Grid3D.centered(64, 16.0)
        pts = np.stack(np.meshgrid(*grid.axes(), indexing="ij"), axis=-1)
        fieldR = FieldGrid(simplest_field(pts, C, a), grid, "position")
        fieldK = fourier_to_kspace(fieldR)
        KX, KY, KZ = fieldK.grid.meshes(sparse=False)
        env = -1j * C * a ** 5 * np.exp(-a * a * (KX ** 2 + KY ** 2 + KZ ** 2) / 2)
        want = np.stack([env * KY, -env * KX, np.zeros_like(env)], axis=-1)
        num = np.linalg.norm(fieldK.values - want)
        den = np.linalg.norm(want)
        assert num / den < 1e-10
        # proportional to the (ky,-kx,0) Gaussian profile, as stated
        mod_err = np.linalg.norm(np.abs(fieldK.values) - np.abs(want)) / den
        assert mod_err < 1e-10

    def test_simplest_amplitudes_invert_to_packet(self):
        # Gaussian-enveloped simplest-field amplitudes transform to a
        # position field proportional to e^{-r^2/2a^2}(y,-x,0): exactly
        # -C times the packet under this synthesis convention
        C, a = 0.6 - 0.8j, 1.0
        kgrid = Grid3D.centered(64, 16.0).fourier_dual()
        fieldR = fourier_to_position(
            synthesize_kspace(simplest_field_amplitudes(C, a), kgrid, 0.0)
        )
        pts = np.stack(np.meshgrid(*fieldR.grid.axes(), indexing="ij"), axis=-1)
        want = simplest_field(pts, -C, a)
        err = np.linalg.norm(fieldR.values - want) / np.linalg.norm(want)
        assert err < 1e-10

    def test_plancherel_fft_pair(self):
        grid = Grid3D.centered(32, 14.0)
        pts = np.stack(np.meshgrid(*grid.axes(), indexing="ij"), axis=-1)
        fieldR = FieldGrid(simplest_field(pts, 1.0, 1.0), grid, "position")
        fieldK = fourier_to_kspace(fieldR)
        nr = norm(fieldR)
        nk = norm(fieldK)
        assert abs(nr - nk) / nr < 1e-10

    def test_plancherel_independent_sampling(self):
        # both representations sampled analytically (no FFT in the loop)
        C, a = 1.0, 1.0
        grid = Grid3D.centered(64, 16.0)
        pts = np.stack(np.meshgrid(*grid.axes(), indexing="ij"), axis=-1)
        fieldR = FieldGrid(simplest_field(pts, C, a), grid, "position")
        kgrid = grid.fourier_dual()
        fieldK = synthesize_kspace(simplest_field_amplitudes(-C, a), kgrid, 0.0)
        nr = norm(fieldR)
        nk = norm(fieldK)
        assert abs(nr - nk) / nr < 1e-6
        # analytic value |C|^2 pi^{3/2} a^5
        assert abs(nr - np.pi ** 1.5 * a ** 5) / nr < 1e-8

    def test_grid_mismatch_rejected(self):
        grid = Grid3D.centered(16, 8.0)
        vals = np.zeros((16, 16, 16, 3), dtype=complex)
        vals[2, 3, 4, 0] = 1.0
        field = FieldGrid(vals, grid, "position")
        from rsuncert import GridMismatchError

        with pytest.raises(GridMismatchError):
            fourier_to_position(field)  # wrong space tag


class TestNorm:
    def test_saturating_norm_analytic_and_oracle(self):
        # f+ = kperp e^{-k^2/2}, f- = 0, a = 1: N = pi^{3/2}
        amps = saturating_amplitudes(1.0, 0.0, 1.0)
        n = norm(amps)
        assert abs(n - np.pi ** 1.5) < 1e-10
        # independent adaptive oracle on the k-space density
        dens = lambda kp, kz: kp ** 2 * np.exp(-(kp ** 2 + kz ** 2))
        _, n_oracle = second_moment_oracle(dens, 9.0)
        assert abs(n - n_oracle) / n_oracle < 1e-8

    def test_doubling_amplitude_quadruples_norm(self):
        n1 = norm(saturating_amplitudes(1.0, 0.0, 1.0))
        n2 = norm(saturating_amplitudes(2.0, 0.0, 1.0))
        assert abs(n2 - 4.0 * n1) / n2 < 1e-13

    def test_zero_field_degenerate(self):
        grid = Grid3D.centered(16, 8.0)
        field = FieldGrid(np.zeros((16, 16, 16, 3), dtype=complex), grid, "position")
        with pytest.raises(DegenerateFieldError):
            norm(field)

    def test_zero_amplitude_pair_degenerate(self):
        class Zero:
            k_scale = 1.0

            def value(self, kx, ky, kz):
                return np.zeros(np.broadcast(kx, ky, kz).shape, dtype=complex)

            def grad(self, kx, ky, kz):
                z = self.value(kx, ky, kz)
                return z, z, z

        with pytest.raises(DegenerateFieldError):
            norm(HelicityAmplitudePair(Zero(), None))

    def test_both_none_rejected(self):
        with pytest.raises(DegenerateFieldError):
            HelicityAmplitudePair(None, None)


class TestGrid3D:
    def test_fourier_dual_relation(self):
        g = Grid3D.centered(32, 13.0)
        d = g.fourier_dual()
        for n, dr, dk in zip(g.counts, g.spacings, d.spacings):
            assert abs(dk - 2 * np.pi / (n * dr)) < 1e-15
        assert g.is_fourier_pair(d)

    def test_half_offset_avoids_axis_and_origin(self):
        g = Grid3D.centered(16, 8.0)
        for ax in g.axes():
            assert np.all(np.abs(ax) > 1e-12)

    def test_bad_grid_rejected(self):
        with pytest.raises(ValueError):
            Grid3D((1, 4, 4), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            Grid3D((4, 4, 4), (0.0, 1.0, 1.0), (0.0, 0.0, 0.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_spacing_or_origin_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Grid3D((4, 4, 4), (1.0, bad, 1.0), (0.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="finite"):
            Grid3D((4, 4, 4), (1.0, 1.0, 1.0), (0.0, 0.0, bad))
