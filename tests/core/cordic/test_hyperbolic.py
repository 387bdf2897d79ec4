"""Tests for hyperbolic-mode CORDIC (exp, sinh, cosh, tanh, log, sqrt)."""

import math

import numpy as np
import pytest

from repro.api import make_method
from repro.core.accuracy import measure
from repro.core.cordic.hyperbolic import ROTATION_BOUND
from repro.core.functions.registry import get_function
from repro.errors import ConfigurationError
from repro.isa.counter import CycleCounter

_F32 = np.float32


#: NaN (quiet, both signs, with a payload), +-inf and +-0.0 as raw bits.
_SPECIALS = np.array([0x7FC00000, 0xFFC00000, 0x7FC00123, 0x7F800000,
                      0xFF800000, 0x00000000, 0x80000000],
                     dtype=np.uint32).view(_F32)


def _cordic(function, iterations=28, assume_in_range=False, **kw):
    return make_method(function, "cordic", iterations=iterations,
                       assume_in_range=assume_in_range, **kw).setup()


class TestExp:
    def test_core_range_values(self):
        m = _cordic("exp", assume_in_range=True)
        ctx = CycleCounter()
        for x in [0.0, 0.1, 0.35, 0.69]:
            assert float(m.evaluate(ctx, x)) == pytest.approx(
                math.exp(x), rel=3e-6
            )

    def test_full_range_with_extension(self, rng):
        m = _cordic("exp")
        xs = rng.uniform(-10, 10, 512).astype(_F32)
        rep = measure(m.evaluate_vec, get_function("exp").reference, xs)
        assert rep.mean_ulp_error < 8

    def test_negative_arguments(self):
        m = _cordic("exp")
        ctx = CycleCounter()
        assert float(m.evaluate(ctx, -3.0)) == pytest.approx(math.exp(-3), rel=1e-5)


class TestLog:
    def test_mantissa_range_values(self):
        m = _cordic("log", assume_in_range=True)
        ctx = CycleCounter()
        for x in [1.0, 1.2, 1.7, 1.99]:
            assert float(m.evaluate(ctx, x)) == pytest.approx(
                math.log(x), abs=3e-7
            )

    def test_full_range(self, rng):
        m = _cordic("log")
        xs = rng.uniform(0.01, 100, 512).astype(_F32)
        rep = measure(m.evaluate_vec, get_function("log").reference, xs)
        assert rep.rmse < 1e-6

    def test_log_of_one_is_zero(self):
        m = _cordic("log")
        ctx = CycleCounter()
        assert abs(float(m.evaluate(ctx, 1.0))) < 1e-7


class TestSqrt:
    def test_perfect_squares(self):
        m = _cordic("sqrt")
        ctx = CycleCounter()
        for x in [1.0, 4.0, 9.0, 0.25, 100.0]:
            assert float(m.evaluate(ctx, x)) == pytest.approx(
                math.sqrt(x), rel=3e-6
            )

    def test_full_range(self, rng):
        m = _cordic("sqrt")
        xs = rng.uniform(0.01, 100, 512).astype(_F32)
        rep = measure(m.evaluate_vec, get_function("sqrt").reference, xs)
        assert rep.mean_ulp_error < 8


class TestSinhCoshTanh:
    def test_small_argument_rotation_path(self):
        for name, ref in [("sinh", math.sinh), ("cosh", math.cosh),
                          ("tanh", math.tanh)]:
            m = _cordic(name)
            ctx = CycleCounter()
            for x in [0.0, 0.3, 0.9, 1.1]:
                assert float(m.evaluate(ctx, x)) == pytest.approx(
                    ref(x), abs=5e-6
                ), (name, x)

    def test_large_argument_exp_identity_path(self):
        for name, ref in [("sinh", math.sinh), ("cosh", math.cosh),
                          ("tanh", math.tanh)]:
            m = _cordic(name)
            ctx = CycleCounter()
            for x in [1.5, 2.5, 3.9]:
                assert float(m.evaluate(ctx, x)) == pytest.approx(
                    ref(x), rel=2e-5
                ), (name, x)

    def test_negative_arguments_via_symmetry(self):
        m = _cordic("tanh")
        ctx = CycleCounter()
        assert float(m.evaluate(ctx, -0.7)) == pytest.approx(
            math.tanh(-0.7), abs=1e-6
        )
        assert float(m.evaluate(ctx, -3.0)) == pytest.approx(
            math.tanh(-3.0), abs=1e-5
        )

    def test_large_path_costs_more(self):
        m = _cordic("tanh")
        small = m.element_tally(0.5).slots
        large = m.element_tally(3.0).slots
        assert large > small  # exp identity adds a divide and the split

    def test_rotation_bound_is_schedule_sum(self):
        from repro.core.cordic.tables import hyperbolic_schedule
        total = sum(math.atanh(2.0 ** -i) for i in hyperbolic_schedule(60))
        assert ROTATION_BOUND <= total


class TestScalarVectorAgreement:
    @pytest.mark.parametrize("function", ["exp", "log", "sqrt", "sinh",
                                          "cosh", "tanh"])
    def test_bit_exact(self, function, rng):
        spec = get_function(function)
        lo, hi = spec.bench_domain
        xs = rng.uniform(lo, hi, 48).astype(_F32)
        m = _cordic(function, 22)
        ctx = CycleCounter()
        scalar = np.array([m.evaluate(ctx, float(x)) for x in xs], dtype=_F32)
        np.testing.assert_array_equal(scalar, m.evaluate_vec(xs))

    @pytest.mark.parametrize("in_range", [True, False],
                             ids=["natural", "full_domain"])
    @pytest.mark.parametrize("function", ["exp", "log", "log2", "log10",
                                          "sqrt", "sinh", "cosh", "tanh"])
    def test_non_finite_lanes_bit_exact(self, function, in_range):
        """NaN, +-inf and +-0.0 lanes take the traced branches: equal bit
        patterns, NaN payloads and zero signs included."""
        spec = get_function(function)
        lo, hi = spec.natural_range if in_range else spec.bench_domain
        xs = np.concatenate([np.linspace(lo, hi, 16, dtype=_F32), _SPECIALS])
        m = _cordic(function, 22, assume_in_range=in_range)
        ctx = CycleCounter()
        scalar = np.array([m.evaluate(ctx, x) for x in xs], dtype=_F32)
        np.testing.assert_array_equal(scalar.view(np.uint32),
                                      m.evaluate_vec(xs).view(np.uint32))


class TestValidation:
    def test_unsupported_function(self):
        with pytest.raises(Exception):
            make_method("gelu", "cordic")

    def test_zero_iterations(self):
        with pytest.raises(ConfigurationError):
            make_method("exp", "cordic", iterations=0)
