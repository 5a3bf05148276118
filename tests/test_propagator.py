"""Spectral time evolution, unitarity and the quadratic spreading law."""

import tracemalloc

import numpy as np
import pytest

from rsuncert import (
    Grid3D,
    SaturatingFieldSpec,
    Trajectory,
    fourier_to_position,
    saturating_amplitudes,
    saturating_rs_field,
    spreading_trajectory,
    synthesize_kspace,
    uncertainty_product,
)
from rsuncert.cli import main
from rsuncert.kspace import _NodeParts, _RadialParts, _synthesis_parts
from conftest import node_route_pair


SPEC = SaturatingFieldSpec.simplest(C=1.0, a=1.0)
KGRID = Grid3D.centered(64, 16.0).fourier_dual()


def position_field(amps, grid, t):
    """The position field of amps.evolved(t), synthesized in k-space and
    transformed back."""
    return fourier_to_position(synthesize_kspace(amps.evolved(t), grid))


def amplitude_trajectory(amps, times):
    """The trajectory of the amplitude-path reports of the evolved pairs:
    quadrature-accurate, so its parabola is exact to quadrature noise."""
    reps = [uncertainty_product(amps.evolved(t)) for t in times]
    return Trajectory(times, np.array([r.delta_r2 for r in reps]),
                      np.array([r.norm_k for r in reps]), np.zeros(len(times)))


class TestEvolve:
    def test_t0_matches_direct_synthesis(self):
        # evolved(0) leaves the field as it was, to the bit
        amps = SPEC.amplitudes()
        direct = fourier_to_position(synthesize_kspace(amps, KGRID))
        assert np.array_equal(position_field(amps, KGRID, 0.0).values, direct.values)

    def test_matches_analytic_field_at_random_nodes(self, rng):
        amps = SPEC.amplitudes()
        for t in (0.0, 0.4, -0.9):
            fieldR = position_field(amps, KGRID, t)
            pts = np.stack(np.meshgrid(*fieldR.grid.axes(), indexing="ij"), axis=-1)
            want = saturating_rs_field(pts, t, SPEC)
            scale = np.abs(want).max()
            idx = rng.integers(8, 56, size=(30, 3))
            for i, j, l in idx:
                err = np.abs(fieldR.values[i, j, l] - want[i, j, l]).max()
                assert err < 1e-4 * scale

    def test_norm_conserved(self):
        amps = SPEC.amplitudes()
        n0 = uncertainty_product(synthesize_kspace(amps, KGRID)).norm_k
        for t in (1.0, 5.0, 10.0):
            nt = uncertainty_product(synthesize_kspace(amps.evolved(t), KGRID)).norm_k
            assert abs(nt - n0) / n0 < 1e-10

    def test_spectral_maxwell_equation(self):
        # (F(t+d) - F(t-d)) / 2d  vs  c curl F(t), curl evaluated as ik x
        amps = SPEC.amplitudes()
        t0, d = 0.3, 1e-4
        fp = position_field(amps, KGRID, t0 + d)
        fm = position_field(amps, KGRID, t0 - d)
        dF = (fp.values - fm.values) / (2 * d)
        ft = synthesize_kspace(amps.evolved(t0), KGRID)
        KX, KY, KZ = ft.grid.meshes(sparse=False)
        kvec = np.stack([KX, KY, KZ], axis=-1)
        curl_k = 1j * np.cross(kvec, ft.values)
        curl_r = fourier_to_position(
            type(ft)(curl_k, ft.grid, "wavevector")
        ).values
        lhs = 1j * dF
        scale = np.abs(curl_r).max()
        assert np.max(np.abs(lhs - curl_r)) < 1e-6 * scale


class TestSpreadingTrajectory:
    times = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])

    def test_grid_fit_acceleration(self):
        traj = spreading_trajectory(SPEC.amplitudes(), self.times, grid=KGRID)
        _, beta, gamma, _ = traj.quadratic_fit()
        assert abs(2.0 * gamma - 2.0) < 0.02
        assert abs(beta) < 1e-6

    def test_grid_minimum_at_t0(self):
        traj = spreading_trajectory(SPEC.amplitudes(), self.times, grid=KGRID)
        i0 = int(np.argmin(np.abs(traj.times)))
        assert np.all(traj.second_moments >= traj.second_moments[i0] - 1e-12)

    def test_analytic_exact_parabola(self):
        times = np.linspace(-1.2, 1.2, 9)
        traj = amplitude_trajectory(SPEC.amplitudes(), times)
        alpha, beta, gamma, resid = traj.quadratic_fit()
        assert resid < 1e-6
        assert abs(2.0 * gamma - 2.0) < 1e-9
        assert abs(beta) < 1e-9
        assert abs(alpha - 2.5) < 1e-9  # <r^2>(0) = Dr^2 = 5 a^2/2

    def test_analytic_unitarity(self):
        times = np.linspace(-1.0, 1.0, 5)
        traj = amplitude_trajectory(SPEC.amplitudes(), times)
        assert np.max(np.abs(traj.norms - traj.norm)) / traj.norm < 1e-10

    def test_time_reversal_symmetry(self):
        traj = spreading_trajectory(SPEC.amplitudes(), self.times, grid=KGRID)
        m = traj.second_moments
        assert abs(m[0] - m[-1]) / m[0] < 1e-9
        assert abs(m[1] - m[-2]) / m[1] < 1e-9

    def test_truncation_flag_and_cut_times(self):
        # a cut-off box raises nothing: the trajectory carries each time's
        # boundary ratio, and the CLI turns a cut into exit 5
        # (test_cli.py::TestSpread::test_truncation_exit5)
        small = Grid3D.centered(16, 6.0).fourier_dual()
        times = np.array([-3.0, -1.5, 0.0, 1.5, 3.0])
        traj = spreading_trajectory(SPEC.amplitudes(), times, grid=small)
        assert traj.truncated
        # at extent 12 the box cuts the packet off at t = 3 and 6 only
        grid = Grid3D.centered(16, 12.0).fourier_dual()
        times = np.array([0.0, 0.5, 1.0, 3.0, 6.0])
        traj = spreading_trajectory(SPEC.amplitudes(), times, grid)
        want = [position_field(SPEC.amplitudes(), grid, t).boundary_density_ratio() for t in times]
        np.testing.assert_allclose(traj.ratios, want, rtol=1e-6, atol=0)
        assert traj.cut.tolist() == [False, False, False, True, True]
        assert traj.to_dict()["truncated"] is True

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            spreading_trajectory(SPEC.amplitudes(), [0.0, 1.0], grid=KGRID)

    def test_built_from_lists(self):
        # a Trajectory of plain lists fits and serializes like one of arrays
        lists = ([-1.0, -0.5, 0.0, 0.5, 1.0], [3.5, 2.75, 2.5, 2.75, 3.5], [1.0] * 5, [0.0] * 5)
        traj = Trajectory(*lists)
        assert traj.to_json() == Trajectory(*map(np.array, lists)).to_json()
        assert traj.to_dict()["fit"]["acceleration"] == pytest.approx(2.0, abs=1e-12)

    def test_serialization(self):
        traj = spreading_trajectory(SPEC.amplitudes(), self.times, grid=KGRID)
        d = traj.to_dict()
        assert set(d) == {"times", "second_moments", "norm", "norms", "fit", "truncated"}
        csv = traj.to_csv()
        lines = csv.strip().splitlines()
        assert lines[0] == "t,second_moment,norm"
        assert len(lines) == 1 + len(self.times)


class TestGridPathEquivalence:
    """The grid trajectory (the synthesis parts of the pair at each time,
    one density pass each, no position FieldGrid) against a per-time
    reference.

    The trajectory takes the radial route and its octant densities; the
    reference evolves the same field through the node route (polynomial
    amplitudes) and the FFT, so the two share only the time tables
    W and V."""

    pair = saturating_amplitudes(1.0, 0.3j, 1.0)  # both helicities
    node_pair = node_route_pair(1.0, 0.3j, 1.0)
    grid = Grid3D.centered(32, 16.0).fourier_dual()
    times = np.array([-1.5, -0.4, 0.3, 0.9, 2.0])

    def test_routes(self):
        assert isinstance(_synthesis_parts(self.pair, self.grid), _RadialParts)
        assert isinstance(_synthesis_parts(self.node_pair, self.grid), _NodeParts)

    @staticmethod
    def einsum_density(field):
        return np.einsum("...c,...c->...", field.values.conj(), field.values).real

    def test_matches_per_time_reference(self):
        traj = spreading_trajectory(self.pair, self.times, grid=self.grid)
        moments, norms, truncated = [], [], False
        for t in self.times:
            fieldR = position_field(self.node_pair, self.grid, t)
            d = self.einsum_density(fieldR)
            x, y, z = np.meshgrid(*fieldR.grid.axes(), indexing="ij", sparse=True)
            dv = fieldR.grid.cell_volume
            n = d.sum() * dv
            moments.append(((x * x + y * y + z * z) * d).sum() * dv / n)
            norms.append(n)
            faces = [d[0], d[-1], d[:, 0], d[:, -1], d[:, :, 0], d[:, :, -1]]
            truncated |= max(f.max() for f in faces) / d.max() > 1e-8
        np.testing.assert_allclose(traj.second_moments, moments, rtol=1e-12, atol=0)
        np.testing.assert_allclose(traj.norms, norms, rtol=1e-12, atol=0)
        assert traj.truncated == truncated

    def test_density_is_einsum_density(self):
        fieldR = position_field(self.pair, self.grid, 0.7)
        np.testing.assert_allclose(fieldR.density(), self.einsum_density(fieldR),
                                   rtol=1e-15, atol=0)


class TestBoundedMemory:
    """Streamed grid paths hold one complex component buffer and one real
    density at a time: the traced peak of a FieldGrid report, and of the
    node route's densities and trajectories, stays below one component +
    one density + 20 % at 64^3.  The node route keeps no table of the
    whole grid: it forms f+/k_perp, conj f-(-k)/k_perp and |k| one x-slab
    at a time.

    The radial route holds no component and no density of the whole cube:
    its working set is two complex octant terms plus one real octant
    density D+ per space it reports (D- = D+^T is never formed)."""

    grid = Grid3D.centered(64, 20.0).fourier_dual()
    pair = saturating_amplitudes(1.0, 0.5j, 1.0)
    limit = 1.2 * (16 + 8) * 64 ** 3  # bytes
    times = [-1.0, -0.5, 0.0, 0.5, 1.0]
    octant_terms = 2 * 16 * 32 ** 3
    octant_density = 8 * 32 ** 3  # D+ of one space

    @staticmethod
    def traced_peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # the octant bounds below are 4-5x tighter than `limit`, so the radial
    # route's runs are checked against them alone
    def test_radial_trajectory_octant_bound(self):
        peak = self.traced_peak(lambda: spreading_trajectory(self.pair, self.times, grid=self.grid))
        assert peak < 1.2 * (self.octant_terms + self.octant_density)

    def test_radial_grid_report_octant_bound(self, tmp_path):
        out = tmp_path / "report.json"
        argv = ["verify-bound", "--method", "grid", "--grid", "64", "--out", str(out)]
        peak = self.traced_peak(lambda: main(argv))
        assert peak < 1.2 * (self.octant_terms + 2 * self.octant_density)
        assert out.exists()

    @pytest.mark.parametrize("t", [0.0, 0.3])
    def test_node_route_synthesis(self, t):
        # the FieldGrid (48 bytes a node) plus slab buffers: no per-node
        # table, polarization frame, full-size phase or full-size W, T
        pair = node_route_pair(1.0, 0.5j, 1.0)
        assert isinstance(_synthesis_parts(pair, self.grid), _NodeParts)
        peak = self.traced_peak(lambda: synthesize_kspace(pair.evolved(t), self.grid))
        assert peak <= 56 * 64 ** 3

    @pytest.mark.parametrize("c_minus", [0.0, 0.5j])
    def test_node_route_densities(self, c_minus):
        pair = node_route_pair(1.0, c_minus, 1.0)
        peak = self.traced_peak(lambda: _synthesis_parts(pair.evolved(0.3), self.grid).densities())
        assert peak < self.limit

    @pytest.mark.parametrize("c_minus", [0.0, 0.5j])
    def test_node_route_trajectory(self, c_minus):
        pair = node_route_pair(1.0, c_minus, 1.0)
        assert isinstance(_synthesis_parts(pair, self.grid), _NodeParts)
        peak = self.traced_peak(lambda: spreading_trajectory(pair, self.times, grid=self.grid))
        assert peak < self.limit

    def test_field_grid_report(self):
        # the field itself is the caller's; the report adds one buffer and
        # one density at a time, not the partner field
        field = synthesize_kspace(self.pair, self.grid)
        assert self.traced_peak(lambda: uncertainty_product(field)) < self.limit
