"""Tests for circular-mode CORDIC (sin, cos, tan)."""

import math

import numpy as np
import pytest

from repro.api import make_method
from repro.core.accuracy import measure
from repro.core.functions.registry import get_function
from repro.errors import ConfigurationError
from repro.isa.counter import CycleCounter
from repro.isa.opcosts import UPMEM_COSTS

_F32 = np.float32


#: NaN (quiet, both signs, with a payload), +-inf and +-0.0 as raw bits.
_SPECIALS = np.array([0x7FC00000, 0xFFC00000, 0x7FC00123, 0x7F800000,
                      0xFF800000, 0x00000000, 0x80000000],
                     dtype=np.uint32).view(_F32)


def _cordic(function="sin", iterations=24, **kw):
    kw.setdefault("assume_in_range", True)
    return make_method(function, "cordic", iterations=iterations, **kw).setup()


class TestAccuracy:
    def test_known_angles(self):
        m = _cordic("sin", 28)
        ctx = CycleCounter()
        for angle in [0.0, math.pi / 6, math.pi / 4, math.pi / 2, math.pi,
                      3 * math.pi / 2, 5.5]:
            got = float(m.evaluate(ctx, angle))
            assert got == pytest.approx(math.sin(angle), abs=2e-6), angle

    def test_cos_known_angles(self):
        m = _cordic("cos", 28)
        ctx = CycleCounter()
        for angle in [0.0, 1.0, math.pi / 2, 4.0, 6.0]:
            got = float(m.evaluate(ctx, angle))
            assert got == pytest.approx(math.cos(angle), abs=2e-6), angle

    def test_tan_known_angles(self):
        m = _cordic("tan", 28)
        ctx = CycleCounter()
        for angle in [0.1, 1.0, 2.0, 4.0, 5.9]:
            got = float(m.evaluate(ctx, angle))
            assert got == pytest.approx(math.tan(angle), rel=2e-4), angle

    def test_error_shrinks_with_iterations(self, sine_inputs):
        spec = get_function("sin")
        errors = []
        for n in (6, 10, 14, 18):
            m = _cordic("sin", n)
            rep = measure(m.evaluate_vec, spec.reference, sine_inputs)
            errors.append(rep.rmse)
        # Roughly exponential: each +4 iterations gains ~16x.
        assert errors[0] > 8 * errors[1] > 8 * errors[2] / 8 > errors[3]
        assert errors[3] < 1e-4

    def test_reaches_high_accuracy(self, sine_inputs):
        spec = get_function("sin")
        m = _cordic("sin", 30)
        rep = measure(m.evaluate_vec, spec.reference, sine_inputs)
        assert rep.rmse < 2e-7

    def test_quadrant_signs(self):
        m = _cordic("sin", 24)
        ctx = CycleCounter()
        assert float(m.evaluate(ctx, 1.0)) > 0          # Q0
        assert float(m.evaluate(ctx, 2.0)) > 0          # Q1
        assert float(m.evaluate(ctx, 4.0)) < 0          # Q2
        assert float(m.evaluate(ctx, 5.5)) < 0          # Q3


class TestCost:
    def test_cost_linear_in_iterations(self, sine_inputs):
        slots = []
        for n in (8, 16, 24):
            m = _cordic("sin", n)
            slots.append(m.mean_slots(sine_inputs[:8]))
        step1 = slots[1] - slots[0]
        step2 = slots[2] - slots[1]
        assert step1 == pytest.approx(step2, rel=0.01)
        assert step1 > 0

    def test_tan_costs_more_than_sin(self, sine_inputs):
        sin_m = _cordic("sin", 24)
        tan_m = _cordic("tan", 24)
        assert tan_m.mean_slots(sine_inputs[:8]) > \
            sin_m.mean_slots(sine_inputs[:8]) + 0.9 * UPMEM_COSTS.fp_div

    def test_exactly_one_fixed_multiply(self):
        # The quadrant split is a single fixed-point multiply by 2/pi.
        m = _cordic("sin", 16)
        tally = m.element_tally(1.234)
        assert tally.count("imul64") == 1
        assert tally.count("fmul") == 0  # no float multiplies at all


class TestScalarVectorAgreement:
    @pytest.mark.parametrize("function", ["sin", "cos", "tan"])
    def test_bit_exact(self, function, sine_inputs):
        m = _cordic(function, 20)
        ctx = CycleCounter()
        sample = sine_inputs[:48]
        scalar = np.array([m.evaluate(ctx, float(x)) for x in sample],
                          dtype=_F32)
        np.testing.assert_array_equal(scalar, m.evaluate_vec(sample))

    @pytest.mark.parametrize("in_range", [True, False],
                             ids=["natural", "full_domain"])
    @pytest.mark.parametrize("function", ["sin", "cos", "tan"])
    def test_non_finite_lanes_bit_exact(self, function, in_range):
        """NaN, +-inf and +-0.0 lanes take the traced branches: equal bit
        patterns, NaN payloads and zero signs included."""
        spec = get_function(function)
        lo, hi = spec.natural_range if in_range else spec.bench_domain
        xs = np.concatenate([np.linspace(lo, hi, 16, dtype=_F32), _SPECIALS])
        m = _cordic(function, 20, assume_in_range=in_range)
        ctx = CycleCounter()
        scalar = np.array([m.evaluate(ctx, x) for x in xs], dtype=_F32)
        np.testing.assert_array_equal(scalar.view(np.uint32),
                                      m.evaluate_vec(xs).view(np.uint32))


class TestValidation:
    def test_zero_iterations(self):
        with pytest.raises(ConfigurationError):
            make_method("sin", "cordic", iterations=0)

    def test_range_extension_handles_large_angles(self):
        m = make_method("sin", "cordic", iterations=24,
                        assume_in_range=False).setup()
        ctx = CycleCounter()
        for angle in [-10.0, 100.0, 12345.5]:
            got = float(m.evaluate(ctx, angle))
            # float32 argument folding loses some precision at 12345.5.
            assert got == pytest.approx(math.sin(angle), abs=5e-3), angle

    def test_memory_is_iterations_plus_constants(self):
        m = _cordic("sin", 24)
        assert m.table_bytes() == 24 * 4 + 8
