"""Radial eigenproblem: spectrum 5/2 + 2n, eigenfunctions, Rayleigh quotient."""

import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from rsuncert import (
    RadialProblem,
    ResolutionError,
    analytic_eigenfunction,
    rayleigh_quotient,
    solve_radial,
)
from rsuncert.cli import _emit
from rsuncert import eigensolver
from rsuncert.eigensolver import N_POINTS_MAX, _simpson

from conftest import radial_operator_apply


@pytest.fixture(scope="module")
def spectrum():
    return solve_radial(RadialProblem(kappa_max=10.0, n_points=2000), n_states=3)


class TestSpectrum:
    def test_lowest_three(self, spectrum):
        assert np.allclose(spectrum.eigenvalues, [2.5, 4.5, 6.5], atol=1e-3)

    def test_spacing(self, spectrum):
        gaps = np.diff(spectrum.eigenvalues)
        assert np.all(np.abs(gaps - 2.0) < 2e-3)

    def test_eigenvalues_increasing(self, spectrum):
        assert np.all(np.diff(spectrum.eigenvalues) > 0)

    def test_richardson_extrapolation(self):
        v1 = solve_radial(RadialProblem(10.0, 2000), 1).eigenvalues[0]
        v2 = solve_radial(RadialProblem(10.0, 4000), 1).eigenvalues[0]
        rich = (4.0 * v2 - v1) / 3.0
        assert abs(rich - 2.5) < 1e-6

    def test_quadratic_convergence(self):
        # halving the spacing shrinks the gamma_0 error by ~4x
        e1 = abs(solve_radial(RadialProblem(10.0, 1000), 1).eigenvalues[0] - 2.5)
        e2 = abs(solve_radial(RadialProblem(10.0, 2000), 1).eigenvalues[0] - 2.5)
        assert 3.0 < e1 / e2 < 5.0

    def test_ground_eigenfunction_matches_analytic(self, spectrum):
        kap = spectrum.kappa
        g0 = analytic_eigenfunction(0, kap)
        g0 = g0 / np.sqrt(np.trapezoid(kap ** 2 * g0 ** 2, kap))
        num = spectrum.eigenfunctions[0]
        if np.dot(num, g0) < 0:
            num = -num
        l2 = np.sqrt(np.trapezoid(kap ** 2 * (num - g0) ** 2, kap))
        assert l2 < 1e-3

    def test_first_excited_matches_analytic(self, spectrum):
        kap = spectrum.kappa
        g1 = analytic_eigenfunction(1, kap)
        g1 = g1 / np.sqrt(np.trapezoid(kap ** 2 * g1 ** 2, kap))
        num = spectrum.eigenfunctions[1]
        if np.dot(num, g1) < 0:
            num = -num
        l2 = np.sqrt(np.trapezoid(kap ** 2 * (num - g1) ** 2, kap))
        assert l2 < 1e-3

    def test_orthogonality(self, spectrum):
        kap = spectrum.kappa
        for m in range(3):
            for n in range(m + 1, 3):
                ip = np.trapezoid(
                    kap ** 2 * spectrum.eigenfunctions[m] * spectrum.eigenfunctions[n],
                    kap,
                )
                assert abs(ip) < 1e-8

    def test_normalization(self, spectrum):
        kap = spectrum.kappa
        for g in spectrum.eigenfunctions:
            n = np.trapezoid(kap ** 2 * g ** 2, kap)
            assert abs(n - 1.0) < 1e-6

    def test_residuals_small(self, spectrum):
        assert np.all(spectrum.residuals < 1e-10)

    def test_resolution_guards(self):
        with pytest.raises(ResolutionError):
            RadialProblem(kappa_max=10.0, n_points=8)
        with pytest.raises(ResolutionError):
            RadialProblem(kappa_max=5.0, n_points=2000)
        # the cap is an input limit, not a resolution one
        assert RadialProblem(10.0, N_POINTS_MAX).n_points == N_POINTS_MAX
        with pytest.raises(ValueError, match="n_points must be <="):
            RadialProblem(10.0, N_POINTS_MAX + 1)
        with pytest.raises(ResolutionError):
            solve_radial(RadialProblem(10.0, 400), n_states=50)
        with pytest.raises(ResolutionError):
            # turning point of gamma_14 ~ sqrt(2*30.5) ~ 7.8 > kappa_max - 3
            solve_radial(RadialProblem(8.0, 2000), n_states=15)

    @pytest.mark.parametrize("kappa_max", [np.nan, np.inf])
    def test_nonfinite_kappa_max_rejected(self, kappa_max):
        # NaN passes kappa_max < 8: an input error, not a resolution one
        with pytest.raises(ValueError, match="kappa_max must be finite"):
            RadialProblem(kappa_max, 2000)

    def test_serialization(self, spectrum):
        d = json.loads(spectrum.to_json())
        assert d["grid"] == {"kappa_max": 10.0, "n_points": 2000}
        assert len(d["eigenvalues"]) == 3
        assert len(d["residuals"]) == 3
        csv = "".join(spectrum.eigenfunctions_csv_blocks())
        head, first = csv.splitlines()[:2]
        assert head == "kappa,g0,g1,g2"
        assert len(first.split(",")) == 4

    def test_csv_dump_in_blocks(self, tmp_path):
        # spectrum --dump-eigenfunctions writes its blocks in turn: 20000
        # points x 10 states is 1.6 MB of eigenfunctions and 4.4 MB of text,
        # never held whole, and the text is the same as built in one piece
        big = solve_radial(RadialProblem(kappa_max=10.0, n_points=20000), n_states=10)
        path = tmp_path / "eig.csv"
        tracemalloc.start()
        try:
            _emit(big.eigenfunctions_csv_blocks(), path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4e6
        blocks = list(big.eigenfunctions_csv_blocks())
        assert len(blocks) > 2 and all(b.endswith("\n") for b in blocks)
        lines = [",".join(["kappa"] + [f"g{n}" for n in range(10)])] + [
            ",".join(repr(float(v)) for v in (k, *big.eigenfunctions[:, i]))
            for i, k in enumerate(big.kappa)]
        assert path.read_text(encoding="utf-8") == "\n".join(lines) + "\n"


class TestAnalyticEigenfunction:
    def test_ground_form(self):
        kap = np.linspace(0.0, 5.0, 64)
        got = analytic_eigenfunction(0, kap)
        assert np.allclose(got, kap * np.exp(-kap ** 2 / 2), atol=1e-15)

    def test_zero_at_origin(self):
        assert analytic_eigenfunction(0, 0.0) == 0.0
        assert analytic_eigenfunction(3, 0.0) == 0.0

    def test_operator_residual(self):
        # FD application of the radial operator returns (5/2+2n) g to 1e-6
        kap = np.linspace(0.02, 9.0, 18001)
        for n in (0, 1, 2):
            g = analytic_eigenfunction(n, kap)
            Hg = radial_operator_apply(g, kap)
            gamma = 2.5 + 2.0 * n
            sl = slice(200, -200)  # skip edge stencils
            scale = np.abs(gamma * g[sl]).max()
            assert np.max(np.abs(Hg[sl] - gamma * g[sl])) / scale < 1e-6

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            analytic_eigenfunction(-1, 1.0)


class TestRayleighQuotient:
    kappa = np.linspace(0.0025, 10.0, 4000)

    def test_ground_state_value(self):
        g0 = analytic_eigenfunction(0, self.kappa)
        assert abs(rayleigh_quotient(g0, self.kappa) - 2.5) < 1e-6

    def test_wrong_symmetry_trial_exceeds(self):
        g = self.kappa ** 2 * np.exp(-self.kappa ** 2 / 2)
        val = rayleigh_quotient(g, self.kappa)
        assert val > 2.5 + 1e-3

    def test_mixed_trial_between_levels(self):
        g = analytic_eigenfunction(0, self.kappa) + 0.1 * analytic_eigenfunction(
            1, self.kappa
        )
        val = rayleigh_quotient(g, self.kappa)
        assert 2.5 < val < 4.5

    def test_variational_bound_random_trials(self, rng):
        # random smooth positive trial functions never dip below 5/2
        for _ in range(40):
            c = rng.uniform(0.3, 2.0)
            p = rng.uniform(0.5, 2.0)
            w = rng.uniform(0.5, 2.5)
            g = self.kappa ** p * np.exp(-c * self.kappa ** 2 / 2) * (
                1.0 + w * self.kappa ** 2 / 10.0
            )
            assert rayleigh_quotient(g, self.kappa) >= 2.5 - 1e-6

    def test_zero_trial_rejected(self):
        with pytest.raises(ValueError):
            rayleigh_quotient(np.zeros_like(self.kappa), self.kappa)

    def test_kappa_zero_rejected(self):
        kap = np.linspace(0.0, 10.0, 1000)
        with pytest.raises(ValueError):
            rayleigh_quotient(np.exp(-kap), kap)

    @pytest.mark.parametrize("name", ["g", "kappa"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rejected(self, name, bad):
        # a NaN or inf among the samples would integrate to a NaN quotient
        args = {"g": analytic_eigenfunction(0, self.kappa), "kappa": self.kappa.copy()}
        args[name][100] = bad
        with pytest.raises(ValueError, match=f"rayleigh_quotient: {name} must be finite"):
            rayleigh_quotient(**args)

    @pytest.mark.parametrize("kappa", [np.full(100, 2.0), np.linspace(10.0, 0.1, 100)])
    def test_nonincreasing_grid_rejected(self, kappa):
        with pytest.raises(ValueError, match="rayleigh_quotient: kappa grid must increase"):
            rayleigh_quotient(np.exp(-kappa ** 2 / 2), kappa)


class TestSimpson:
    """_simpson against scipy.integrate.simpson, the reference it
    reproduces bit for bit (odd node counts by the composite rule, even
    ones with the last-interval correction)."""

    @pytest.mark.parametrize("n", [9, 10, 1999, 2000])
    def test_bitwise_scipy(self, rng, n):
        from scipy.integrate import simpson

        for _ in range(10):
            x = rng.uniform(0.001, 0.1) * np.arange(1, n + 1) + rng.uniform(0.0, 1.0)
            y = rng.standard_normal(n) * np.exp(-x ** 2 / 20)
            assert _simpson(y, x) == simpson(y, x=x)
            x = np.cumsum(rng.uniform(0.01, 0.1, n))  # uneven spacing
            assert _simpson(y, x) == simpson(y, x=x)


def test_spectrum_leaves_scipy_integrate_unimported(tmp_path):
    # scipy.integrate pulls in scipy.optimize, sparse and spatial: spectrum
    # and rayleigh_quotient use _simpson, and only scipy.linalg is imported
    code = """if True:
        import sys
        import numpy as np
        from rsuncert import cli
        from rsuncert.eigensolver import analytic_eigenfunction, rayleigh_quotient
        assert cli.main(["spectrum", "--out", "sp.json"]) == 0
        kappa = np.linspace(0.0025, 10.0, 4000)
        rayleigh_quotient(analytic_eigenfunction(0, kappa), kappa)
        sys.exit(sorted(m for m in sys.modules if m.startswith("scipy.integrate")) or 0)
    """
    src = os.path.dirname(os.path.dirname(eigensolver.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
