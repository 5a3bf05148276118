"""Polarization frame, synthesis (radial and node routes), Fourier bridge and
the norms of its reports."""

import math
import tracemalloc

import numpy as np
import pytest

from rsuncert import (
    AxisSingularityError,
    DegenerateFieldError,
    FieldGrid,
    Grid3D,
    HelicityAmplitudePair,
    PolynomialGaussianAmplitude,
    RadialProfileAmplitude,
    SaturatingFieldSpec,
    fourier_to_position,
    polarization,
    saturating_amplitudes,
    simplest_field,
    synthesize_kspace,
    uncertainty_product,
)
from rsuncert import kspace
from rsuncert.cli import main
from rsuncert.kspace import (
    _Dilated,
    _NodeParts,
    _RadialParts,
    _SlabSums,
    _boundary_ratio,
    _density_stats,
    _dft_phases,
    _dft_scale,
    _fft,
    _nonzero_planes,
    _note_planes,
    _own_stats,
    _phased,
    _stream_stats,
    _synthesis_parts,
)
from rsuncert.moments import TRUNCATION_RATIO, _SphericalRule
from rsuncert.rsfio import _zslabs, write_rsf
from conftest import (
    _stream_densities,
    fourier_to_kspace,
    node_route_pair,
    second_moment_oracle,
    unfold_octant,
)


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
        field = synthesize_kspace(amps, grid)
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
        field = synthesize_kspace(SaturatingFieldSpec.simplest(-C, a).amplitudes(), grid)
        KX, KY, KZ = grid.meshes(sparse=False)
        env = 1j * C * a ** 5 * np.exp(-a * a * (KX ** 2 + KY ** 2 + KZ ** 2) / 2)
        want = np.stack([env * KY, -env * KX, np.zeros_like(env)], axis=-1)
        assert np.max(np.abs(field.values - want)) < 1e-13 * np.abs(want).max()

    def test_pointwise_hand_evaluation(self, rng):
        grid = Grid3D.centered(16, 9.0).fourier_dual()
        cp, cm = 0.7 + 0.2j, -0.3 + 0.9j
        a = 0.9
        t = 0.37
        field = synthesize_kspace(saturating_amplitudes(cp, cm, a).evolved(t), grid)
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
        # the pair refuses the time before any parts are built, and the
        # parts take no time of their own
        grid = Grid3D.centered(16, 9.0).fourier_dual()
        pair = saturating_amplitudes(1.0, 0.0, 1.0)
        for t in (np.nan, np.inf):
            with pytest.raises(ValueError):
                pair.evolved(t)
        radial = _synthesis_parts(pair, grid)
        node = _synthesis_parts(node_route_pair(1.0, 0.0, 1.0), grid)
        for method in (radial.densities, radial.octants, node.slabs, node.densities):
            with pytest.raises(TypeError):
                method(t=np.inf)

    def test_on_axis_grid_propagates_singularity(self):
        # a custom grid with nodes at kx = ky = 0 hits the k_perp = 0
        # singularity before any division
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


def x_slab(grid, i):
    """The sparse meshes of x-slab i, as the node route passes them to an
    amplitude: kx of shape (1, 1), ky (ny, 1) and kz (1, nz)."""
    KX, KY, KZ = grid.meshes(sparse=True)
    return KX[i], KY[0], KZ[0]


class TestPolynomialGaussianKernel:
    """value and grad of PolynomialGaussianAmplitude against the formula
    written out here: f = k_perp sum c kx^i ky^j kz^l e^{-alpha k^2}, and its
    product-rule gradient, at the node shapes its callers pass."""

    cases = {
        "mixed": {(0, 0, 2): 0.45 - 0.54j, (0, 0, 0): 0.58 + 0.36j,
                  (1, 2, 0): 0.29 + 0.03j},
        "constant": {(0, 0, 0): 1.3 - 0.4j},
        "real": {(1, 0, 0): 2, (0, 1, 1): -1.5, (0, 0, 0): 0.25},
        "imaginary": {(2, 0, 0): 0.7j, (0, 1, 0): -1.1j},
        "cubic": {(3, 0, 0): 0.3 + 0.2j, (0, 3, 0): -0.5j, (0, 0, 3): 0.8,
                  (1, 1, 1): 0.1 - 0.9j},
    }
    nodes = {
        "rule": _SphericalRule(9.0).nodes()[:3],
        "sparse": Grid3D.centered(16, 12.0).fourier_dual().meshes(sparse=True),
        "slab": x_slab(Grid3D((12, 14, 18), (0.8, 0.7, 0.6), (0.0, 0.0, 0.0)).fourier_dual(), 3),
    }

    @staticmethod
    def reference(terms, alpha, kx, ky, kz):
        def poly(axis=None):
            out = 0.0
            for e, c in terms.items():
                if axis is not None:
                    if not e[axis]:
                        continue
                    c = c * e[axis]
                    e = tuple(n - (b == axis) for b, n in enumerate(e))
                out = out + c * kx ** e[0] * ky ** e[1] * kz ** e[2]
            return out

        kp = np.sqrt(kx * kx + ky * ky)
        E = np.exp(-alpha * (kx * kx + ky * ky + kz * kz))
        P = poly()
        Px, Py, Pz = (poly(a) for a in range(3))
        f = kp * P * E
        grad = (E * (kx / kp * P + kp * Px - 2 * alpha * kx * kp * P),
                E * (ky / kp * P + kp * Py - 2 * alpha * ky * kp * P),
                E * (kp * Pz - 2 * alpha * kz * kp * P))
        return f, grad

    @pytest.mark.parametrize("case", sorted(cases))
    @pytest.mark.parametrize("where", sorted(nodes))
    @pytest.mark.parametrize("alpha", [0.5, 1.3])
    def test_matches_complex_formula(self, case, where, alpha):
        terms = self.cases[case]
        KX, KY, KZ = self.nodes[where]
        shape = np.broadcast_shapes(KX.shape, KY.shape, KZ.shape)
        amp = PolynomialGaussianAmplitude(terms, alpha)
        f_ref, g_ref = self.reference(terms, alpha, KX, KY, KZ)
        f = amp.value(KX, KY, KZ)
        assert f.shape == shape and f.dtype == np.complex128
        assert np.abs(f - f_ref).max() <= 1e-14 * np.abs(f_ref).max()
        grad = amp.grad(KX, KY, KZ)
        scale = max(np.abs(g).max() for g in g_ref)
        for g, want in zip(grad, g_ref):
            assert g.shape == shape and g.dtype == np.complex128
            assert np.abs(g - want).max() <= 1e-14 * scale

    @pytest.mark.parametrize("make, args", [
        (PolynomialGaussianAmplitude, ({(0, 0, 0): 1.0}, 0.0)),
        (PolynomialGaussianAmplitude, ({(0, 0, 0): 1.0}, -1.0)),
        (PolynomialGaussianAmplitude, ({(0, 0, 0): 1.0}, np.nan)),
        (PolynomialGaussianAmplitude, ({(0, 0, 0): 1.0}, np.inf)),
        (PolynomialGaussianAmplitude, ({(-1, 0, 0): 1.0}, 0.5)),
        (PolynomialGaussianAmplitude, ({(0.5, 0, 0): 1.0}, 0.5)),
        (PolynomialGaussianAmplitude, ({(1, 0, 2): np.nan}, 0.5)),
        (PolynomialGaussianAmplitude, ({(0, 0, 0): 1.0, (2, 1, 0): complex(0.5, np.inf)}, 0.5)),
        (saturating_amplitudes, (1.0, 0.0, np.nan)),
        (saturating_amplitudes, (1.0, 0.0, np.inf)),
        (RadialProfileAmplitude, (np.exp, np.exp, np.nan)),
        (RadialProfileAmplitude, (np.exp, np.exp, -1.0)),
        (RadialProfileAmplitude, (np.exp, np.exp, 0.0)),
    ], ids=["alpha-0", "alpha-negative", "alpha-nan", "alpha-inf",
            "exponent-negative", "exponent-fractional", "coefficient-nan",
            "coefficient-inf", "saturating-a-nan", "saturating-a-inf",
            "radial-k_scale-nan", "radial-k_scale-negative", "radial-k_scale-0"])
    def test_invalid_inputs_rejected(self, make, args):
        # refused where the amplitude is built, naming the bad value, not
        # later as a zero-norm pair
        with pytest.raises(ValueError, match=rf"^{make.__name__}: .+, got "):
            make(*args)

    def test_nonfinite_coefficient_is_named(self):
        with pytest.raises(ValueError, match=r"got \(0\.5\+infj\) for the monomial \(2, 1, 0\)"):
            PolynomialGaussianAmplitude({(0, 0, 0): 1.0, (2, 1, 0): complex(0.5, np.inf)}, 0.5)


def polarization_reference(amps, grid, t):
    """e(k) f+(k) e^{-ikt} + e*(k) conj(f-)(-k) e^{+ikt} on the grid nodes,
    through the explicit polarization frame."""
    KX, KY, KZ = grid.meshes()
    e = np.stack(np.broadcast_arrays(*polarization(KX, KY, KZ)), axis=-1)
    k = np.sqrt(KX * KX + KY * KY + KZ * KZ)[..., None]
    want = np.zeros(grid.counts + (3,), dtype=complex)
    if amps.f_plus is not None:
        fp = amps.f_plus.value(KX, KY, KZ)[..., None]
        want += e * fp * np.exp(-1j * k * t)
    if amps.f_minus is not None:
        fmc = np.conj(amps.f_minus.value(-KX, -KY, -KZ))[..., None]
        want += np.conj(e) * fmc * np.exp(1j * k * t)
    return want


class TestNodeRoute:
    """_NodeParts builds Ftilde from f+-/k_perp through the radial route's
    polynomial, with no polarization frame; the reference is the explicit
    frame formula (polarization_reference)."""

    grids = {
        "centred": Grid3D.centered(24, 24.0).fourier_dual(),
        "offset": Grid3D((20, 18, 22), (0.45, 0.5, 0.4), (-4.3, -4.1, -4.6)),
    }

    @staticmethod
    def random_pair(seed):
        rng = np.random.default_rng(seed)
        monomials = [(i, j, l) for i in range(3) for j in range(3) for l in range(3)
                     if i + j + l <= 3]

        def amp():
            picks = rng.choice(len(monomials), 3, replace=False)
            terms = {monomials[p]: complex(*rng.normal(size=2)) for p in picks}
            return PolynomialGaussianAmplitude(terms, rng.uniform(0.35, 1.8))

        return HelicityAmplitudePair(amp(), amp())

    @staticmethod
    def assert_matches(got, want_values):
        peak = np.abs(want_values).max()
        assert np.abs(got.values - want_values).max() <= 1e-13 * peak
        r_got = uncertainty_product(got)
        r_want = uncertainty_product(FieldGrid(want_values, got.grid, "wavevector"))
        for key in ("delta_r2", "delta_k2", "norm_r", "norm_k"):
            g, w = getattr(r_got, key), getattr(r_want, key)
            assert abs(g - w) <= 1e-12 * abs(w), key
        assert r_got.warnings == r_want.warnings

    @pytest.mark.parametrize("name", ["centred", "offset"])
    @pytest.mark.parametrize("t", [0.0, 0.3, -0.7])
    @pytest.mark.parametrize("c", [1.0, 1.7])
    def test_random_pairs(self, name, t, c):
        # c = 1 is fixed: a speed of light c enters as the time c t
        grid = self.grids[name]
        pair = self.random_pair([len(name), round(10 * t) + 10, round(10 * c)])
        assert isinstance(_synthesis_parts(pair, grid), _NodeParts)
        self.assert_matches(synthesize_kspace(pair.evolved(c * t), grid),
                            polarization_reference(pair, grid, c * t))

    def test_evolved_and_dilated_pairs(self):
        grid = self.grids["offset"]
        pair = self.random_pair(11)
        # evolved twice: the pair carries the sum of the two times
        self.assert_matches(synthesize_kspace(pair.evolved(1.7 * 0.4).evolved(1.7 * 0.3), grid),
                            polarization_reference(pair, grid, 1.7 * 0.7))
        dil = pair.dilated(0.8)
        self.assert_matches(synthesize_kspace(dil.evolved(-0.7), grid),
                            polarization_reference(dil, grid, -0.7))

    def test_single_helicity(self):
        grid = self.grids["centred"]
        pair = self.random_pair(3)
        for single in (HelicityAmplitudePair(pair.f_plus, None),
                       HelicityAmplitudePair(None, pair.f_minus)):
            self.assert_matches(synthesize_kspace(single.evolved(0.3), grid),
                                polarization_reference(single, grid, 0.3))

    @staticmethod
    def slab_pair():
        # degree <= 5, with kz powers that repeat (2) and skip (1, 3, 4)
        return HelicityAmplitudePair(
            PolynomialGaussianAmplitude({(0, 0, 0): 0.3 - 0.2j, (1, 0, 2): 1.1, (0, 3, 2): -0.4j,
                                         (2, 1, 2): 0.25 + 0.5j, (0, 0, 5): 0.05,
                                         (5, 0, 0): -0.02j}, 0.6),
            PolynomialGaussianAmplitude({(0, 1, 0): 0.7j, (1, 1, 2): -0.6, (3, 0, 2): 0.2 + 0.1j,
                                         (0, 2, 0): 0.0, (2, 0, 3): 0.3j}, 0.9))

    @pytest.mark.parametrize("name", ["centred", "offset"])
    @pytest.mark.parametrize("dilated", [False, True])
    def test_slab_factors(self, name, dilated):
        # g = f / k_perp from per-axis factors (_slab_g) on every x-slab, and
        # its reflection conj g(-k), against value() / k_perp at 1e-14 of the
        # slab's peak
        grid = self.grids[name]
        pair = self.slab_pair().dilated(0.8) if dilated else self.slab_pair()
        KX, KY, KZ = grid.meshes()
        ky, kz = KY[0], KZ[0]
        for amp in (pair.f_plus, pair.f_minus):
            for kx in KX:
                kp = np.sqrt(kx * kx + ky * ky)
                for s, form in ((1.0, lambda g: g), (-1.0, np.conj)):
                    got = form(amp._slab_g(s * kx, s * ky, s * kz))
                    want = form(amp.value(s * kx, s * ky, s * kz)) / kp
                    assert got.shape == want.shape
                    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("name", ["centred", "offset"])
    @pytest.mark.parametrize("helicity", ["plus", "minus", "both"])
    def test_slab_pair_field(self, name, helicity):
        grid = self.grids[name]
        pair = self.slab_pair()
        pair = HelicityAmplitudePair(pair.f_plus if helicity != "minus" else None,
                                     pair.f_minus if helicity != "plus" else None)
        self.assert_matches(synthesize_kspace(pair.evolved(0.3), grid),
                            polarization_reference(pair, grid, 0.3))

    def test_gaussian_underflow(self):
        # alpha k^2 reaches 778 at the box's corner: e^{-alpha k^2} and its
        # per-axis factors underflow there, and the field stays finite
        grid = Grid3D.centered(24, 6.0).fourier_dual()
        pair = self.slab_pair()
        pair = HelicityAmplitudePair(PolynomialGaussianAmplitude(pair.f_plus.terms, 1.8),
                                     pair.f_minus)
        KX, KY, KZ = grid.meshes()
        assert 1.8 * (KX * KX + KY * KY + KZ * KZ).max() > 745.0
        got = synthesize_kspace(pair, grid)
        assert np.isfinite(got.values).all()
        self.assert_matches(got, polarization_reference(pair, grid, 0.0))

    def test_synthesis_repeats_to_the_bit(self):
        grid = self.grids["offset"]
        pair = self.slab_pair().evolved(0.3)
        first = synthesize_kspace(pair, grid).values
        assert np.array_equal(first, synthesize_kspace(pair, grid).values)

    @pytest.mark.parametrize("grid", [
        Grid3D.centered(32, 16.0).fourier_dual(),
        Grid3D((24, 20, 16), (0.7, 0.75, 0.8), (-8.3, -7.2, -6.1)),
    ], ids=["centred", "offset"])
    @pytest.mark.parametrize("t", [0.0, 0.3])
    @pytest.mark.parametrize("seed", [*range(6), "default-packet"])
    def test_one_reducer(self, grid, t, seed):
        # a FieldGrid report and the node route's densities reduce the same
        # slab stream through the same function: equal to the last bit.  The
        # default packet as polynomial amplitudes has Fx and Fy imaginary and
        # Fz zero at t = 0, so both reports transform Fx.im + i Fy.im in one
        # FFT
        if seed == "default-packet":
            s = 1.0 / math.sqrt(2.0)
            pair = node_route_pair(-s, s, 1.0)
        else:
            pair = self.random_pair([seed, round(10 * t), grid.counts[1]])
        parts = _synthesis_parts(pair.evolved(t), grid)
        assert isinstance(parts, _NodeParts)
        if seed == "default-packet" and t == 0.0:
            assert _nonzero_planes(parts.slabs()).tolist() == [False, True, False, True,
                                                               False, False]
        want = uncertainty_product(pair.evolved(t), grid).to_dict()
        assert uncertainty_product(synthesize_kspace(pair.evolved(t), grid)).to_dict() == want

    @pytest.mark.parametrize("c_minus, t, probe", [
        (0.5j, 0.3, 1),  # complex: the probe stops at the first slab
        (0.0, 0.0, 1),   # Fz real, Fx and Fy complex: all three whole
        # the default packet at t = 0: Fx and Fy imaginary, Fz zero, so the
        # probe reads every slab and one sweep forms Fx and Fy for one FFT
        ("default", 0.0, 16),
    ])
    def test_sweeps_per_report(self, monkeypatch, c_minus, t, probe):
        # each sweep evaluates each amplitude once per x-slab: the position
        # pass one sweep per transformed component or plane pair, after the
        # probe's slabs, and the k-space density one sweep of all three.  A
        # package amplitude is evaluated from its per-axis factors (_slab_g)
        # and never through value(); an amplitude with only value() and
        # grad() (_Dilated) goes through value() as many times
        calls = {"_slab_g": [], "value": []}
        for name, seen in calls.items():
            real = getattr(PolynomialGaussianAmplitude, name)
            monkeypatch.setattr(PolynomialGaussianAmplitude, name,
                                lambda self, *k, real=real, seen=seen:
                                seen.append(1) or real(self, *k))
        grid = Grid3D.centered(16, 16.0).fourier_dual()
        if c_minus == "default":
            s = 1.0 / math.sqrt(2.0)
            pair, sweeps = node_route_pair(-s, s, 1.0), 1
        else:
            pair, sweeps = node_route_pair(1.0, c_minus, 1.0), 3
        wrapped = HelicityAmplitudePair(*(None if a is None else _Dilated(a, 1.0)
                                          for a in (pair.f_plus, pair.f_minus)))
        amps = sum(a is not None for a in (pair.f_plus, pair.f_minus))
        for route, amps_pair in (("_slab_g", pair), ("value", wrapped)):
            parts = _synthesis_parts(amps_pair.evolved(t), grid)
            for source, own in ((True, 1), (False, 0)):
                for seen in calls.values():
                    seen.clear()
                parts.densities(source=source)
                assert len(calls[route]) == amps * (probe + 16 * (sweeps + own)), source
                assert sum(map(len, calls.values())) == len(calls[route]), route


@pytest.mark.parametrize("n, extent, cut", [
    (32, 16.0, []),
    (16, 12.0, ["wavevector"]),
    (16, 64.0, ["position", "wavevector"]),
])
def test_report_carries_boundary_ratios(n, extent, cut):
    # a grid report holds both spaces' boundary ratios as numbers, and its
    # truncation warnings follow from them; to_dict() is unchanged.  The
    # amplitude path has no ratios
    amps = SaturatingFieldSpec.simplest(C=1.0, a=1.0).amplitudes()
    grid = Grid3D.centered(n, extent).fourier_dual()
    k, r = _synthesis_parts(amps, grid).densities()
    rep = uncertainty_product(amps, grid)
    assert (rep.boundary_ratio_r, rep.boundary_ratio_k) == (r.ratio, k.ratio)
    assert list(rep.to_dict()) == ["delta_r2", "delta_k2", "product", "bound",
                                   "saturation_ratio", "norm_r", "norm_k", "warnings"]
    for rep in (rep, uncertainty_product(synthesize_kspace(amps, grid))):
        over = [space for ratio, space in ((rep.boundary_ratio_r, "position"),
                                           (rep.boundary_ratio_k, "wavevector"))
                if ratio > TRUNCATION_RATIO]
        assert over == cut
        assert [w.split("-space")[0] for w in rep.warnings] == [f"truncation: {s}" for s in cut]
    rep = uncertainty_product(amps)
    assert rep.boundary_ratio_r is None and rep.boundary_ratio_k is None


class TestRadialRoute:
    """Radial amplitudes on a centred even cube take the radial route for
    their densities, while synthesize_kspace takes the node route for any
    amplitudes.  The field's reference is the explicit frame formula
    (polarization_reference), and the radial route's report numbers
    (_RadialParts.densities) are checked against the report of that field,
    which streams its components through the FFT."""

    @staticmethod
    def assert_report_matches(pair, grid, field):
        got, want = uncertainty_product(pair, grid), uncertainty_product(field)
        for key in ("delta_r2", "delta_k2", "norm_r", "norm_k"):
            g, w = getattr(got, key), getattr(want, key)
            assert abs(g - w) <= 1e-12 * abs(w), key
        assert got.warnings == want.warnings

    @staticmethod
    def assert_field_matches(field, want):
        assert np.abs(field.values - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("n", [32, 64])
    @pytest.mark.parametrize("c_minus", [0.0, 0.5j])
    @pytest.mark.parametrize("t", [0.0, 0.3, -0.7])
    def test_matches_frame_route(self, n, c_minus, t):
        a = 1.3
        grid = Grid3D.centered(n, 16.0 * a).fourier_dual()
        radial = saturating_amplitudes(1.0, c_minus, a)
        parts = _synthesis_parts(radial.evolved(t), grid)
        assert isinstance(parts, _RadialParts)
        field = synthesize_kspace(radial.evolved(t), grid)
        self.assert_field_matches(field, polarization_reference(radial, grid, t))
        self.assert_report_matches(radial.evolved(t), grid, field)

    def test_evolved_pair_keeps_the_radial_route(self):
        # the pair carries its time: evolved twice, it is the field at the
        # sum of the two times
        grid = Grid3D.centered(32, 16.0).fourier_dual()
        sat = saturating_amplitudes(1.0, 0.5j, 1.0)
        twice = sat.evolved(0.4).evolved(0.3)
        parts = _synthesis_parts(twice, grid)
        assert isinstance(parts, _RadialParts)
        field = synthesize_kspace(twice, grid)
        self.assert_field_matches(field, polarization_reference(sat, grid, 0.7))
        self.assert_report_matches(twice, grid, synthesize_kspace(sat.evolved(0.7), grid))

    def test_dilated_pair_keeps_the_radial_route(self):
        # a radial profile dilates in its own family: the field of the
        # wrapped amplitudes (_Dilated, node route) to rounding
        grid = Grid3D.centered(32, 16.0).fourier_dual()
        sat = saturating_amplitudes(1.0, 0.5j, 1.0)
        dil = sat.dilated(1.7)
        wrapped = HelicityAmplitudePair(_Dilated(sat.f_plus, 1.7), _Dilated(sat.f_minus, 1.7))
        parts = _synthesis_parts(dil, grid)
        assert isinstance(parts, _RadialParts)
        assert isinstance(_synthesis_parts(wrapped, grid), _NodeParts)
        field = synthesize_kspace(dil, grid)
        self.assert_field_matches(field, polarization_reference(wrapped, grid, 0.0))
        self.assert_report_matches(dil, grid, synthesize_kspace(wrapped, grid))

    def test_other_grids_take_the_frame_route(self):
        # not centred: the radius keys do not apply, so the node route runs
        amps = saturating_amplitudes(0.7 + 0.2j, -0.3 + 0.9j, 0.9)
        grid = Grid3D((16, 16, 16), (0.5, 0.5, 0.5), (-3.7, -3.9, -4.1))
        assert isinstance(_synthesis_parts(amps, grid), _NodeParts)
        t = 0.37
        field = synthesize_kspace(amps.evolved(t), grid)
        want = polarization_reference(amps, grid, t)
        assert np.abs(field.values - want).max() <= 1e-13 * np.abs(want).max()


class TestOctantDensities:
    """_RadialParts.octants builds the positive-octant values of both
    densities (DCT-IV/DST-IV per parity term); unfolded by the
    eight-reflection rule, they are compared at every node with a reference
    that streams the full components of the same amplitudes through the
    node route and the FFT (streamed: no radius table, gather or type-4
    transform).  _RadialParts.densities reduces the octants to the
    reports' stats."""

    @staticmethod
    def assert_close(got, want, tol=1e-13):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= tol * want.max()

    @staticmethod
    def unfolded(parts, source=True):
        return [None if d is None else unfold_octant(d) for d in parts.octants(source=source)]

    @staticmethod
    def radial_parts(n, c_minus, t):
        grid = Grid3D.centered(n, 16.0 * 1.3).fourier_dual()
        amps = saturating_amplitudes(1.0, c_minus, 1.3).evolved(t)
        parts = _synthesis_parts(amps, grid)
        assert isinstance(parts, _RadialParts)
        return grid, amps, parts

    @staticmethod
    def streamed(amps, grid):
        """Both full-cube densities of amps on grid, through the node route."""
        return _stream_densities(synthesize_kspace(amps, grid))[:2]

    # 16^3 has the smallest octant the CLI makes (h = 8)
    @pytest.mark.parametrize("n", [16, 32, 64])
    @pytest.mark.parametrize("c_minus", [0.0, 0.5j])
    @pytest.mark.parametrize("t", [0.0, 0.3, -0.7])
    @pytest.mark.parametrize("c", [1.0, 1.7])
    def test_matches_stream(self, n, c_minus, t, c):
        # c = 1 is fixed: a speed of light c enters as the time c t
        grid, amps, parts = self.radial_parts(n, c_minus, c * t)
        d_k, d_r = self.unfolded(parts)
        w_k, w_r = self.streamed(amps, grid)
        self.assert_close(d_k, w_k)
        self.assert_close(d_r, w_r)
        none_k, only_r = parts.octants(source=False)
        assert none_k is None
        np.testing.assert_array_equal(unfold_octant(only_r), d_r)

    @pytest.mark.parametrize("n", [16, 32, 64])
    @pytest.mark.parametrize("c_minus", [0.0, 0.5j])
    @pytest.mark.parametrize("t", [0.0, 0.3, -0.7])
    @pytest.mark.parametrize("c", [1.0, 1.7])
    def test_stats_match_unfolded_cube(self, n, c_minus, t, c):
        # the reports' numbers from the octant alone against those of the
        # whole cube: the boundary ratio exactly, moment and norm to rounding
        grid, _, parts = self.radial_parts(n, c_minus, c * t)
        d_k, d_r = self.unfolded(parts)
        got = parts.densities()
        for stats, want in zip(got, (_density_stats(d_k, grid),
                                     _density_stats(d_r, grid.fourier_dual()))):
            assert stats.ratio == want.ratio
            assert abs(stats.moment / want.moment - 1.0) <= 1e-13
            assert abs(stats.norm / want.norm - 1.0) <= 1e-13
        none_k, only_r = parts.densities(source=False)
        assert none_k is None and only_r == got[1]

    def test_matches_frame_route(self):
        # the node route shares the time tables with it, but no gather,
        # octant term or transform
        grid = Grid3D.centered(32, 16.0).fourier_dual()
        t = 1.2 * 0.3
        radial = _synthesis_parts(saturating_amplitudes(1.0, 0.5j, 1.0).evolved(t), grid)
        node = _synthesis_parts(node_route_pair(1.0, 0.5j, 1.0).evolved(t), grid)
        assert isinstance(node, _NodeParts)
        want = _stream_densities(synthesize_kspace(node.amps, grid))[:2]
        for got, w in zip(self.unfolded(radial), want):
            self.assert_close(got, w)
        for got, w in zip(radial.densities(), node.densities()):
            assert abs(got.moment / w.moment - 1.0) <= 1e-13
            assert abs(got.norm / w.norm - 1.0) <= 1e-13

    def test_zero_terms_skipped(self, monkeypatch):
        # A0 = x z W, B0 = i y T and F2 take one DCT-IV/DST-IV per axis
        # each, and F1 (the x <-> y mirror of F0) none; each transform takes
        # only the term's nonzero planes, real and imaginary, held as one
        # (planes, h, h, h) array, and a zero term takes none
        shapes = []
        for name in ("dct", "dst"):
            def counted(x, *args, _f=getattr(kspace, name), **kwargs):
                assert np.all(np.any(x, axis=(1, 2, 3)))  # no zero plane
                shapes.append(x.shape)
                return _f(x, *args, **kwargs)
            monkeypatch.setattr(kspace, name, counted)
        grid = Grid3D.centered(16, 16.0).fourier_dual()
        simplest = SaturatingFieldSpec.simplest(-1.0, 1.0).amplitudes()
        photon = saturating_amplitudes(1.0, 0.0, 1.0)
        for pair, t, planes in (
                # the simplest packet (C- = -C+ real): W = 2i p sin kt and
                # V = 2ik p cos kt are imaginary, and W is zero at t = 0, so
                # only B0's imaginary plane is transformed then
                (simplest, 0.0, [1] * 3), (simplest, 0.3, [1] * 9),
                # the photon (C- = 0): W = -p real and V = ik p imaginary at
                # t = 0, both complex later
                (photon, 0.0, [1] * 9), (photon, 0.3, [2] * 9),
                (saturating_amplitudes(1.0, 0.5j, 1.0), 0.3, [2] * 9)):
            parts = _synthesis_parts(pair.evolved(t), grid)
            shapes.clear()
            got = self.unfolded(parts)
            assert shapes == [(p, 8, 8, 8) for p in planes], t
            want = self.streamed(pair.evolved(t), grid)
            for g, w in zip(got, want):
                self.assert_close(g, w)

    @pytest.mark.parametrize("n", [16, 32, 64])
    @pytest.mark.parametrize("c_minus", [0.0, 0.5j])
    @pytest.mark.parametrize("t", [0.0, 0.3, -0.7])
    def test_mirror_symmetric(self, n, c_minus, t):
        # (x, y, z) -> (y, x, -z), the half turn about the x = y diagonal,
        # maps the grid and the field onto themselves; it swaps D+ and D-,
        # and the octant route builds D- as D+^T, so both densities are
        # exactly symmetric (a plain x <-> y swap is not a symmetry: the
        # position density misses it by up to 1e-3 of the peak at 16^3)
        _, _, parts = self.radial_parts(n, c_minus, t)
        for d in self.unfolded(parts):
            np.testing.assert_array_equal(d, d.transpose(1, 0, 2)[:, :, ::-1])

    def test_truncated_box(self, capsys):
        # verify-bound --method grid --grid 16 --a 0.7371: the box cuts the
        # packet off, with the same boundary ratios on either route
        a = 0.7371
        grid = Grid3D.centered(16, 16.0 * a).fourier_dual()
        amps = SaturatingFieldSpec.simplest(C=1.0, a=a).amplitudes()
        parts = _synthesis_parts(amps, grid)
        got = self.unfolded(parts)
        want = self.streamed(amps, grid)
        for g, w in zip(got, want):
            assert abs(_boundary_ratio(g) - _boundary_ratio(w)) <= 1e-12 * _boundary_ratio(w)
        assert _boundary_ratio(got[1]) > TRUNCATION_RATIO
        assert parts.densities()[1].ratio == _boundary_ratio(got[1])
        assert main(["verify-bound", "--method", "grid", "--grid", "16", "--a", str(a)]) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: truncation:") and len(err.strip().splitlines()) == 1


class TestFourierBridge:
    def test_phases_in_one_pass(self, rng):
        # _phased against the two-pass form (x-y phase plane, then z)
        grid = Grid3D.centered(32, 11.0)
        a = rng.normal(size=grid.counts) + 1j * rng.normal(size=grid.counts)
        p, _ = _dft_phases(grid, grid.fourier_dual(), +1)
        want = a * (p[0][:, None] * p[1][None, :])[:, :, None] * p[2]
        got = _phased(a, p)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        b = a.copy()
        assert _phased(b, p, out=b) is b
        np.testing.assert_array_equal(b, got)

    def test_position_synthesis_bits(self, rng):
        # fourier_to_position against the per-component transform it
        # replaced, which formed the phases and the scale once per
        # component: the same bits, on a grid with unequal counts, spacings
        # and origins
        grid = Grid3D((16, 20, 24), (0.3, 0.5, 0.4), (-2.1, -4.7, -5.3))
        shape = grid.counts + (3,)
        vals = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        dual = grid.fourier_dual()
        want = np.empty_like(vals)
        for comp in range(3):
            pins, pouts = _dft_phases(grid, dual, +1)
            pouts[2] = pouts[2] * _dft_scale(grid, +1)
            x = _fft(_phased(vals[..., comp], pins), +1)
            _phased(x, pouts, out=want[..., comp])
        got = fourier_to_position(FieldGrid(vals, grid, "wavevector"))
        assert got.grid == dual and got.space == "position"
        np.testing.assert_array_equal(got.values, want)

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
            synthesize_kspace(SaturatingFieldSpec.simplest(-C, a).amplitudes(), kgrid)
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
        nr = uncertainty_product(fieldR).norm_r
        nk = uncertainty_product(fieldK).norm_k
        assert abs(nr - nk) / nr < 1e-10

    def test_plancherel_independent_sampling(self):
        # both representations sampled analytically (no FFT in the loop)
        C, a = 1.0, 1.0
        grid = Grid3D.centered(64, 16.0)
        pts = np.stack(np.meshgrid(*grid.axes(), indexing="ij"), axis=-1)
        fieldR = FieldGrid(simplest_field(pts, C, a), grid, "position")
        kgrid = grid.fourier_dual()
        fieldK = synthesize_kspace(SaturatingFieldSpec.simplest(C, a).amplitudes(), kgrid)
        nr = uncertainty_product(fieldR).norm_r
        nk = uncertainty_product(fieldK).norm_k
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


class TestDensityReduction:
    """Every stat a report takes of a density comes from one definition
    (kspace._SlabSums): sequential sums in node order, which no slab order
    or memory layout can change."""

    # non-cubic and off-centre, or small and odd, or cubic
    cases = [((32, 48, 40), 0), ((32, 48, 40), 1), ((7, 2, 5), 2), ((24, 24, 24), 3)]

    @staticmethod
    def grid(counts):
        return Grid3D(counts, (0.31, 0.23, 0.37), (-4.1, -7.3, -2.2))

    @staticmethod
    def random_field(rng, counts):
        shape = counts + (3,)
        scale = rng.uniform(0.1, 10.0, size=counts)[..., None]  # no symmetry to hide behind
        return scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))

    @pytest.mark.parametrize("counts, seed", cases)
    def test_layout_and_slab_order_give_the_same_bits(self, counts, seed):
        rng = np.random.default_rng(seed)
        grid = self.grid(counts)
        d = rng.uniform(0.0, 1.0, size=counts) ** 3
        want = _density_stats(d, grid)
        assert _density_stats(np.asfortranarray(d), grid) == want
        # a field streamed as its x-slabs and as its z-slabs: the own pass
        # (position stats) and the transform pass's density, C- or F-ordered
        # (k-space stats), to the bit
        vals = self.random_field(rng, counts)
        by_x = _stream_stats(lambda comps: iter(vals), grid, "position")
        zslabs = np.ascontiguousarray(vals.transpose(2, 1, 0, 3))
        by_z = _stream_stats(lambda comps: iter(zslabs), grid, "position", order="F")
        assert by_x == by_z
        # and a field held whole reduces its density to the streamed bits
        field = FieldGrid(vals, grid, "position")
        assert _density_stats(field.density(), grid) == by_x[1]

    @pytest.mark.parametrize("counts, seed", cases)
    def test_marginals_are_sequential_sums_in_node_order(self, counts, seed):
        # m_x[i] = sum_l (sum_j d), m_y[j] = sum_l (sum_i d),
        # m_z[l] = sum_i (sum_j d), each inner and outer sum added one node
        # after the other
        d = np.random.default_rng(seed).uniform(0.0, 1.0, size=counts) ** 3
        nx, ny, nz = counts
        sum_j = [[sum_in_order(d[i, :, l]) for l in range(nz)] for i in range(nx)]
        sum_i = [[sum_in_order(d[:, j, l]) for l in range(nz)] for j in range(ny)]
        want = ([sum_in_order(row) for row in sum_j],
                [sum_in_order(row) for row in sum_i],
                [sum_in_order(col) for col in zip(*sum_j)])
        for layout in (d, np.asfortranarray(d)):
            sums = _SlabSums(counts, "C" if layout.flags.c_contiguous else "F")
            sums.add_array(layout)
            for got, w in zip(sums.marginals(), want):
                assert got.tolist() == w

    @pytest.mark.parametrize("source", ["file", "node route"])
    def test_own_pass_holds_no_array_of_the_grid(self, tmp_path, rng, source):
        # the own-space pass makes each slab's density in one slab buffer
        # and reduces it as it streams: above what its stream holds (the
        # file's slab buffer, or the node route's slab and tables), it adds
        # two density slabs, 16 n^2 bytes, and the sums' planes, 40 n^2 at
        # most, an eighth of one real array of the grid's size, 8 n^3, at
        # n = 64
        n = 64

        def extra(slabs, grid, order, nonzero=None):
            stream = traced_peak(lambda: [None for _ in slabs()])
            return traced_peak(lambda: _own_stats(slabs(), grid, order, nonzero)) - stream

        if source == "file":
            grid = Grid3D.centered(n, 16.0)
            path = tmp_path / "f.rsf"
            write_rsf(path, FieldGrid(self.random_field(rng, grid.counts), grid, "position"))
            with open(path, "rb") as fh:
                start = len(fh.readline())
                got = extra(lambda: _zslabs(fh, start, grid.counts), grid, "F",
                            np.zeros(6, dtype=bool))
        else:
            grid = Grid3D.centered(n, 16.0).fourier_dual()
            parts = _synthesis_parts(node_route_pair(1.0, -1.0, 1.0), grid)
            assert isinstance(parts, _NodeParts)
            got = extra(parts.slabs, grid, "C")
        assert got < 64 * n ** 2 == 8 * n ** 3 / 8

    def test_zero_planes_are_exact(self):
        # a plane is zero only when every value is +-0: a value whose square
        # underflows, NaN and an infinity count, -0.0 does not
        f = np.zeros((3, 4, 3), dtype=complex)
        f[1, 2, 0] = 1e-300          # plane 0: its square underflows to 0
        f[0, 3, 1] = complex(0.0, np.nan)  # plane 3
        f[2, 0, 2] = -np.inf         # plane 4
        f[2, 1, 2] = complex(-0.0, -0.0)
        f[0, 0, 0] = complex(0.0, -0.0)
        for slab in (f, np.moveaxis(np.ascontiguousarray(np.moveaxis(f, -1, 0)), 0, -1)):
            nonzero = np.zeros(6, dtype=bool)
            _note_planes(nonzero, slab)
            assert nonzero.tolist() == [True, False, False, True, True, False]


def sum_in_order(values):
    """The sum of values added one after the other, in float64."""
    total = 0.0
    for v in values:
        total += float(v)
    return total


def traced_peak(fn):
    """The peak of the memory traced while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestNorm:
    def test_saturating_norm_analytic_and_oracle(self):
        # f+ = kperp e^{-k^2/2}, f- = 0, a = 1: N = pi^{3/2}
        amps = saturating_amplitudes(1.0, 0.0, 1.0)
        n = uncertainty_product(amps).norm_k
        assert abs(n - np.pi ** 1.5) < 1e-10
        # independent adaptive oracle on the k-space density
        dens = lambda kp, kz: kp ** 2 * np.exp(-(kp ** 2 + kz ** 2))
        _, n_oracle = second_moment_oracle(dens, 9.0)
        assert abs(n - n_oracle) / n_oracle < 1e-8

    def test_doubling_amplitude_quadruples_norm(self):
        n1 = uncertainty_product(saturating_amplitudes(1.0, 0.0, 1.0)).norm_k
        n2 = uncertainty_product(saturating_amplitudes(2.0, 0.0, 1.0)).norm_k
        assert abs(n2 - 4.0 * n1) / n2 < 1e-13

    def test_zero_field_degenerate(self):
        grid = Grid3D.centered(16, 8.0)
        field = FieldGrid(np.zeros((16, 16, 16, 3), dtype=complex), grid, "position")
        with pytest.raises(DegenerateFieldError):
            uncertainty_product(field)

    def test_zero_amplitude_pair_degenerate(self):
        class Zero:
            k_scale = 1.0

            def value(self, kx, ky, kz):
                return np.zeros(np.broadcast(kx, ky, kz).shape, dtype=complex)

            def grad(self, kx, ky, kz):
                z = self.value(kx, ky, kz)
                return z, z, z

        with pytest.raises(DegenerateFieldError):
            uncertainty_product(HelicityAmplitudePair(Zero(), None))

    def test_both_none_rejected(self):
        with pytest.raises(DegenerateFieldError):
            HelicityAmplitudePair(None, None)


class TestGrid3D:
    def test_fourier_dual_relation(self):
        g = Grid3D.centered(32, 13.0)
        d = g.fourier_dual()
        for n, dr, dk in zip(g.counts, g.spacings, d.spacings):
            assert abs(dk - 2 * np.pi / (n * dr)) < 1e-15

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
