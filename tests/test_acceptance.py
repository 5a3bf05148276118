"""Acceptance suite: every criterion at its stated tolerance, one
pass/fail line each (run with -s to see them).

 1. saturation of Dr*Dk = 5/2 (analytic 1e-6, 64^3 grid 1e-3), a in {0.5,1,2}
 2. radial spectrum (2.5, 4.5, 6.5) +- 1e-3; Richardson gamma_0 to 1e-6
 3. 200 random admissible amplitude pairs: product >= 2.5 - 1e-6
 4. spreading law d2<r^2>/dt2 = 2c^2 +- 1% on a 128^3 grid; analytic-path
    quadratic fit residual <= 1e-6
 5. derivative-built field == explicit t=0 components (50 pts, 1e-9 rel);
    FFT of the analytic packet == analytic k-space form (1e-4 rel L2, 64^3)
 6. massless bound: h=1 -> 2.5, h=0 -> 1.5 (exact)
 7. dawson vs arbitrary-precision series oracle: 1e-13 abs at 1e4 points
    on [-10, 10]; defining-ODE residual <= 1e-8
 8. Plancherel norm agreement: 1e-10 analytic path, 1e-6 grid path
 9. radial spectrum as an exact oracle: for f+- = +-k_perp e^{-k^2/2}
    L_n^{3/2}(k^2), n = 0..3, Dr^2 = Dk^2 = 5/2 + 2n to 1e-12 relative on
    the amplitude path and the 64^3 grid path (radial route, extent 16),
    the n-th solve_radial eigenvalue to 1e-3, and the rayleigh_quotient of
    g = kappa L_n^{3/2}(kappa^2) e^{-kappa^2/2} to 1e-8 relative
"""

import time

import numpy as np
import pytest

from rsuncert import (
    FieldGrid,
    Grid3D,
    HelicityAmplitudePair,
    RadialProfileAmplitude,
    RadialProblem,
    SaturatingFieldSpec,
    Trajectory,
    dawson,
    fourier_to_kspace,
    laguerre_general,
    massless_bound,
    rayleigh_quotient,
    saturating_field_t0,
    saturating_rs_field,
    simplest_field,
    solve_radial,
    spreading_trajectory,
    synthesize_kspace,
    uncertainty_product,
)
from rsuncert.kspace import _RadialParts, _density_stats, _synthesis_parts
from rsuncert.moments import TRUNCATION_RATIO
from conftest import dawson_erfi_oracle, dawson_series_oracle, random_pair, unfold_octant

SQ2PI = np.sqrt(2.0 * np.pi)


def report(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_saturation():
    for a in (0.5, 1.0, 2.0):
        t0 = time.perf_counter()
        rep_a = uncertainty_product(SaturatingFieldSpec.simplest(-1.0, a).amplitudes())
        ok_a = (
            abs(rep_a.product - 2.5) < 1e-6
            and abs(rep_a.delta_r2 - 2.5 * a * a) < 1e-6 * a * a
            and abs(rep_a.delta_k2 - 2.5 / (a * a)) < 1e-6 / (a * a)
        )
        grid = Grid3D.centered(64, 16.0 * a)
        pts = np.stack(np.meshgrid(*grid.axes(), indexing="ij"), axis=-1)
        fieldR = FieldGrid(simplest_field(pts, 1.0, a), grid, "position")
        rep_g = uncertainty_product(fieldR)
        ok_g = (
            abs(rep_g.product - 2.5) < 1e-3
            and abs(rep_g.delta_r2 - 2.5 * a * a) < 1e-3 * a * a
            and abs(rep_g.delta_k2 - 2.5 / (a * a)) < 1e-3 / (a * a)
        )
        dt = time.perf_counter() - t0
        report(
            f"criterion 1 (saturation, a={a})",
            ok_a and ok_g and dt < 10.0,
            f"analytic product={rep_a.product:.9f}, grid product={rep_g.product:.6f}, "
            f"runtime {dt:.2f}s",
        )


def test_criterion_2_spectrum():
    t0 = time.perf_counter()
    spec1 = solve_radial(RadialProblem(10.0, 2000), 3)
    targets = np.array([2.5, 4.5, 6.5])
    errs = np.abs(spec1.eigenvalues - targets)
    spec2 = solve_radial(RadialProblem(10.0, 4000), 1)
    richardson = (4.0 * spec2.eigenvalues[0] - spec1.eigenvalues[0]) / 3.0
    dt = time.perf_counter() - t0
    ok = np.all(errs < 1e-3) and abs(richardson - 2.5) < 1e-6 and dt < 5.0
    report(
        "criterion 2 (spectrum)",
        ok,
        f"gammas={spec1.eigenvalues.round(6)}, richardson gamma0 err="
        f"{abs(richardson - 2.5):.2e}, runtime {dt:.2f}s",
    )


def test_criterion_3_bound_property():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1234)
    worst = np.inf
    worst_quad = 0.0
    for _ in range(200):
        rep = uncertainty_product(random_pair(rng))
        worst = min(worst, rep.product)
        worst_quad = max(worst_quad, rep.quad_rel_err)
        assert rep.product >= 2.5 - 1e-6
    # the quadrature error must sit far inside the 1e-6 margin of the bound
    assert 100.0 * worst_quad < 1e-6
    dt = time.perf_counter() - t0
    report(
        "criterion 3 (bound property, 200 pairs)",
        worst >= 2.5 - 1e-6 and dt < 60.0,
        f"worst product={worst:.9f}, runtime {dt:.1f}s",
    )


def test_criterion_4_spreading_law():
    t0 = time.perf_counter()
    spec = SaturatingFieldSpec.simplest(1.0, 1.0)
    amps = spec.amplitudes()
    kgrid = Grid3D.centered(128, 24.0).fourier_dual()
    times = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    traj = spreading_trajectory(amps, times, grid=kgrid)
    _, _, gamma_g, _ = traj.quadratic_fit()
    ok_grid = abs(2.0 * gamma_g - 2.0) < 0.02 and not traj.truncated

    # the amplitude path: reports of the phase-evolved pairs
    times_a = np.linspace(-1, 1, 9)
    reps = [uncertainty_product(amps.evolved(t)) for t in times_a]
    traj_a = Trajectory(times_a, np.array([r.delta_r2 for r in reps]),
                        np.array([r.norm_k for r in reps]), np.zeros(len(times_a)))
    _, _, gamma_a, resid = traj_a.quadratic_fit()
    ok_analytic = resid <= 1e-6 and abs(2.0 * gamma_a - 2.0) < 1e-6
    dt = time.perf_counter() - t0
    report(
        "criterion 4 (spreading law)",
        ok_grid and ok_analytic and dt < 60.0,
        f"grid d2<r2>/dt2={2 * gamma_g:.6f}, analytic residual={resid:.2e}, "
        f"runtime {dt:.1f}s",
    )


def test_criterion_5_closed_form_consistency():
    rng = np.random.default_rng(99)
    a = 1.0
    spec = SaturatingFieldSpec(a=a, c_plus=0.0, c_minus=SQ2PI)
    pts = rng.normal(size=(50, 3))
    pts *= rng.uniform(0.15 * a, 4.0 * a, size=(50, 1)) / np.linalg.norm(
        pts, axis=1, keepdims=True
    )
    got = saturating_rs_field(pts, 0.0, spec)
    want = saturating_field_t0(pts, a)
    rel = np.abs(got - want).max(axis=1) / np.abs(want).max(axis=1)
    ok_components = np.max(rel) < 1e-9

    packet = SaturatingFieldSpec.simplest(1.0, a)
    grid = Grid3D.centered(64, 16.0 * a)
    rpts = np.stack(np.meshgrid(*grid.axes(), indexing="ij"), axis=-1)
    fieldR = FieldGrid(saturating_rs_field(rpts, 0.0, packet), grid, "position")
    fieldK = fourier_to_kspace(fieldR)
    want_k = synthesize_kspace(packet.amplitudes(), fieldK.grid)
    rel_l2 = np.linalg.norm(fieldK.values - want_k.values) / np.linalg.norm(
        want_k.values
    )
    ok_fft = rel_l2 < 1e-4
    report(
        "criterion 5 (closed-form consistency)",
        ok_components and ok_fft,
        f"max component rel err={np.max(rel):.2e}, FFT rel L2={rel_l2:.2e}",
    )


def test_criterion_6_massless_bound():
    ok = massless_bound(1.0) == 2.5 and massless_bound(0.0) == 1.5
    report(
        "criterion 6 (massless bound)",
        ok,
        f"h=1 -> {massless_bound(1.0)}, h=0 -> {massless_bound(0.0)}",
    )


def test_criterion_7_special_functions():
    t0 = time.perf_counter()
    # the series oracle is the reference; the erfi-product form is first
    # validated against it in high precision, then used for the dense scan
    ws_check = np.linspace(-10, 10, 201)
    bridge = max(
        abs(dawson_series_oracle(w) - dawson_erfi_oracle(w)) for w in ws_check
    )
    assert bridge < 1e-15

    ws = np.linspace(-10, 10, 10000)
    got = dawson(ws)
    worst = max(abs(g - dawson_erfi_oracle(w)) for g, w in zip(got, ws))
    ok_oracle = worst < 1e-13

    h = 1e-5
    wd = np.linspace(-10, 10, 100)
    ode = np.max(
        np.abs((dawson(wd + h) - dawson(wd - h)) / (2 * h) - (1 - 2 * wd * dawson(wd)))
    )
    ok_ode = ode <= 1e-8
    dt = time.perf_counter() - t0
    report(
        "criterion 7 (special functions)",
        ok_oracle and ok_ode,
        f"max |dawson - oracle|={worst:.2e}, ODE residual={ode:.2e}, "
        f"runtime {dt:.1f}s",
    )


def test_criterion_8_plancherel():
    rng = np.random.default_rng(4321)
    worst_analytic = 0.0
    suite = [
        SaturatingFieldSpec.simplest(-1.0, 0.5).amplitudes(),
        SaturatingFieldSpec.simplest(-1.0, 1.0).amplitudes(),
        SaturatingFieldSpec.simplest(-1.0, 2.0).amplitudes(),
        SaturatingFieldSpec(a=1.0, c_plus=1.0).amplitudes(),
    ] + [random_pair(rng) for _ in range(5)]
    for amps in suite:
        rep = uncertainty_product(amps)
        worst_analytic = max(
            worst_analytic, abs(rep.norm_r - rep.norm_k) / rep.norm_r
        )
    ok_analytic = worst_analytic < 1e-10

    worst_grid = 0.0
    for a in (0.5, 1.0, 2.0):
        grid = Grid3D.centered(64, 16.0 * a)
        pts = np.stack(np.meshgrid(*grid.axes(), indexing="ij"), axis=-1)
        fieldR = FieldGrid(simplest_field(pts, 1.0, a), grid, "position")
        fieldK = synthesize_kspace(
            SaturatingFieldSpec.simplest(1.0, a).amplitudes(), grid.fourier_dual()
        )
        norm_r = uncertainty_product(fieldR).norm_r
        norm_k = uncertainty_product(fieldK).norm_k
        worst_grid = max(worst_grid, abs(norm_r - norm_k) / norm_r)
    ok_grid = worst_grid < 1e-6
    report(
        "criterion 8 (Plancherel)",
        ok_analytic and ok_grid,
        f"analytic worst={worst_analytic:.2e}, grid worst={worst_grid:.2e}",
    )


def oscillator_amplitude(n, sign):
    """sign k_perp e^{-k^2/2} L_n^{3/2}(k^2): the n-th radial eigenstate,
    Dr^2 = Dk^2 = 5/2 + 2n; dh from d/dx L_n^{3/2} = -L_{n-1}^{5/2}."""

    def h(q):
        return sign * np.exp(-q / 2.0) * laguerre_general(n, 1.5, q)

    def dh(q):
        d = -laguerre_general(n - 1, 2.5, q) if n else 0.0
        return sign * np.exp(-q / 2.0) * (d - 0.5 * laguerre_general(n, 1.5, q))

    return RadialProfileAmplitude(h, dh, k_scale=1.0)


@pytest.fixture(scope="module")
def spectrum_4():
    return solve_radial(RadialProblem(10.0, 2000), 4)


@pytest.mark.parametrize("n", range(4))
def test_criterion_9_radial_spectrum_oracle(n, spectrum_4):
    want = 2.5 + 2.0 * n
    # C- = -C+: with f- = 0 the position field has Dawson tails, and a 64^3
    # box of extent 16 warns of truncation
    pair = HelicityAmplitudePair(oscillator_amplitude(n, 1.0), oscillator_amplitude(n, -1.0))
    rep_a = uncertainty_product(pair)
    grid = Grid3D.centered(64, 16.0).fourier_dual()
    parts = _synthesis_parts(pair, grid)
    assert isinstance(parts, _RadialParts)
    # the whole cubes, unfolded from the octants, and the octant stats
    # that `verify-bound --method grid` reports
    src, dual = (unfold_octant(d) for d in parts.octants())
    cubes = (_density_stats(dual, grid.fourier_dual()), _density_stats(src, grid))
    rep_o = uncertainty_product(pair, grid)
    errs = [abs(v / want - 1.0) for v in (rep_a.delta_r2, rep_a.delta_k2, cubes[0].moment,
                                          cubes[1].moment, rep_o.delta_r2, rep_o.delta_k2)]
    gamma = spectrum_4.eigenvalues[n]
    kappa = np.linspace(1e-3, 12.0, 4001)
    g = kappa * laguerre_general(n, 1.5, kappa ** 2) * np.exp(-kappa ** 2 / 2.0)
    rq_err = abs(rayleigh_quotient(g, kappa) / want - 1.0)
    report(
        f"criterion 9 (radial oracle, n={n})",
        max(errs) <= 1e-12 and max(c.ratio for c in cubes) <= TRUNCATION_RATIO
        and not rep_o.warnings and abs(gamma - want) < 1e-3
        and rq_err <= 1e-8,
        f"worst rel err={max(errs):.1e}, gamma_{n}={gamma:.6f}, "
        f"rayleigh rel err={rq_err:.1e}",
    )

