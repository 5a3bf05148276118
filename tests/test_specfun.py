"""Special-function kernels against independent oracles."""

from fractions import Fraction
import warnings

import numpy as np
import pytest
import scipy.special as sps

from rsuncert import dawson, erfi, laguerre_general
from conftest import dawson_series_oracle, laguerre_halfint_oracle

SQRT_PI = np.sqrt(np.pi)

# frozen from the arbitrary-precision series oracle
D_AT_1 = 0.53807950691276841914
D_AT_5 = 0.10213407442427683544
ERFI_AT_1 = 1.650425758797542876


class TestDawson:
    def test_zero(self):
        assert dawson(0.0) == 0.0

    def test_value_at_1(self):
        assert abs(dawson(1.0) - D_AT_1) < 1e-15

    def test_value_at_5(self):
        assert abs(dawson(5.0) - D_AT_5) < 1e-15
        # cross-check against the asymptotic form 1/(2w) + 1/(4w^3) + ...
        w = 5.0
        asym = 1 / (2 * w) + 1 / (4 * w ** 3) + 3 / (8 * w ** 5) + 15 / (16 * w ** 7)
        assert abs(dawson(w) - asym) < 2e-5

    def test_against_series_oracle(self):
        ws = np.linspace(-50, 50, 201)
        for w in ws:
            assert abs(dawson(float(w)) - dawson_series_oracle(w)) < 1e-13

    def test_against_scipy(self):
        w = np.linspace(-50, 50, 4001)
        assert np.max(np.abs(dawson(w) - sps.dawsn(w))) < 1e-14

    def test_oddness(self, rng):
        w = rng.uniform(-10, 10, size=1000)
        d = dawson(w)
        dm = dawson(-w)
        assert np.all(np.abs(dm + d) <= 1e-15 * (1.0 + np.abs(d)))

    def test_defining_ode(self, rng):
        # D'(w) = 1 - 2 w D(w), central finite differences
        w = rng.uniform(-8, 8, size=100)
        h = 1e-5
        lhs = (dawson(w + h) - dawson(w - h)) / (2 * h)
        rhs = 1.0 - 2.0 * w * dawson(w)
        assert np.max(np.abs(lhs - rhs)) < 1e-8

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            dawson(np.nan)
        with pytest.raises(ValueError):
            dawson(np.inf)

    def test_array_shape(self):
        w = np.ones((3, 4))
        assert dawson(w).shape == (3, 4)


class TestErfi:
    def test_zero(self):
        assert erfi(0.0) == 0.0

    def test_value_at_1(self):
        assert abs(erfi(1.0) - ERFI_AT_1) < 1e-14

    def test_dawson_identity(self, rng):
        # sqrt(pi) exp(-w^2) erfi(w)/2 == dawson(w) to 1e-12 relative
        w = rng.uniform(-5, 5, size=400)
        lhs = SQRT_PI * np.exp(-w * w) * erfi(w) / 2.0
        rhs = dawson(w)
        assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) < 1e-12

    def test_odd(self):
        assert erfi(-1.3) == -erfi(1.3)

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            erfi(50.1)
        assert np.isinf(erfi(40.0))  # true value exceeds double range

    def test_against_scipy(self):
        w = np.linspace(-5, 5, 801)
        assert np.max(np.abs(erfi(w) - sps.erfi(w)) / (1 + np.abs(sps.erfi(w)))) < 1e-13

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            erfi(np.nan)

    def test_array_and_scalar_shape(self):
        assert erfi(np.ones((3, 4))).shape == (3, 4)
        assert isinstance(erfi(np.array(0.5)), float)

    def test_beyond_double_range_is_silent_inf(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert erfi(40.0) == np.inf
            assert erfi(-40.0) == -np.inf


class TestLaguerre:
    def test_order_zero(self):
        assert laguerre_general(0, 1.5, 3.7) == 1.0

    def test_order_one(self):
        # L1^a(x) = 1 + a - x
        assert laguerre_general(1, 1.5, 1.0) == pytest.approx(1.5, abs=1e-15)

    def test_order_three_rational_oracle(self):
        want = laguerre_halfint_oracle(3, 3, Fraction(2))  # alpha = 3/2, x = 2
        assert want == Fraction(-73, 48)
        got = laguerre_general(3, 1.5, 2.0)
        assert abs(got - float(want)) < 1e-14

    def test_recurrence_consistency(self, rng):
        # (n+1) L_{n+1} = (2n+1+a-x) L_n - (n+a) L_{n-1}, relative 1e-12
        x = rng.uniform(0, 12, size=50)
        for alpha in (0.5, 1.5, 2.0):
            for n in range(1, 21):
                lhs = (n + 1) * laguerre_general(n + 1, alpha, x)
                rhs = (2 * n + 1 + alpha - x) * laguerre_general(n, alpha, x) - (
                    n + alpha
                ) * laguerre_general(n - 1, alpha, x)
                scale = np.maximum(np.abs(lhs), 1e-3)
                assert np.max(np.abs(lhs - rhs) / scale) < 1e-12

    def test_against_scipy(self, rng):
        x = rng.uniform(0, 20, size=100)
        for n in (0, 1, 2, 5, 11):
            ref = sps.eval_genlaguerre(n, 1.5, x)
            got = laguerre_general(n, 1.5, x)
            assert np.max(np.abs(got - ref) / (1 + np.abs(ref))) < 1e-12

    def test_bad_order(self):
        with pytest.raises(ValueError):
            laguerre_general(-1, 1.5, 0.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            laguerre_general(2, 1.5, np.nan)

    def test_alpha_at_or_below_minus_one_rejected(self):
        with pytest.raises(ValueError):
            laguerre_general(2, -1.0, 0.5)

    def test_array_and_scalar_shape(self):
        assert laguerre_general(3, 1.5, np.ones((3, 4))).shape == (3, 4)
        assert isinstance(laguerre_general(3, 1.5, np.array(0.5)), float)
