"""Tests for the fully fixed-point circular CORDIC extension."""

import math

import numpy as np
import pytest

from repro.api import make_method
from repro.core.accuracy import measure
from repro.core.functions.registry import get_function
from repro.errors import ConfigurationError, UnsupportedFunctionError
from repro.isa.counter import CycleCounter
from tests.test_oracle import check_array_pass, trace

_F32 = np.float32


def _fx(function="sin", iterations=28, **kw):
    kw.setdefault("assume_in_range", True)
    return make_method(function, "cordic_fx", iterations=iterations,
                       **kw).setup()


class TestAccuracy:
    def test_sin_known_angles(self):
        m = _fx("sin")
        ctx = CycleCounter()
        for angle in [0.0, 0.5, math.pi / 2, 2.5, 4.0, 6.0]:
            assert float(m.evaluate(ctx, angle)) == pytest.approx(
                math.sin(angle), abs=5e-8
            ), angle

    def test_cos_known_angles(self):
        m = _fx("cos")
        ctx = CycleCounter()
        for angle in [0.0, 1.0, 3.0, 5.0]:
            assert float(m.evaluate(ctx, angle)) == pytest.approx(
                math.cos(angle), abs=5e-8
            ), angle

    def test_reaches_fixed_point_floor(self, sine_inputs):
        """Rounding shifts keep the error a random walk: ~1e-8 RMSE."""
        m = _fx("sin", iterations=30)
        rep = measure(m.evaluate_vec, get_function("sin").reference,
                      sine_inputs)
        assert rep.rmse < 3e-8

    def test_beats_float_cordic_accuracy(self, sine_inputs):
        """Float CORDIC accumulates float32 rounding; fixed does not."""
        ref = get_function("sin").reference
        e_float = measure(
            make_method("sin", "cordic", iterations=30,
                        assume_in_range=True).setup().evaluate_vec,
            ref, sine_inputs).rmse
        e_fixed = measure(_fx("sin", 30).evaluate_vec, ref, sine_inputs).rmse
        assert e_fixed < e_float


class TestCostStructure:
    def test_no_float_arithmetic_in_rotation(self):
        m = _fx("sin")
        tally = m.element_tally(1.0)
        assert tally.count("fadd") == 0
        assert tally.count("fsub") == 0
        assert tally.count("fmul") == 0
        assert tally.count("ldexp") == 0

    def test_much_cheaper_than_float_cordic(self, sine_inputs):
        fixed = _fx("sin", 28)
        fl = make_method("sin", "cordic", iterations=28,
                         assume_in_range=True).setup()
        assert fixed.mean_slots(sine_inputs[:8]) < \
            0.2 * fl.mean_slots(sine_inputs[:8])

    def test_cost_linear_in_iterations(self, sine_inputs):
        a = _fx("sin", 12).mean_slots(sine_inputs[:8])
        b = _fx("sin", 24).mean_slots(sine_inputs[:8])
        c = _fx("sin", 36).mean_slots(sine_inputs[:8])
        assert c - b == b - a > 0


class TestValidation:
    def test_tan_rejected(self):
        with pytest.raises((UnsupportedFunctionError, ConfigurationError)):
            make_method("tan", "cordic_fx")

    def test_range_extension(self):
        m = make_method("sin", "cordic_fx", iterations=28,
                        assume_in_range=False).setup()
        ctx = CycleCounter()
        assert float(m.evaluate(ctx, 100.0)) == pytest.approx(
            math.sin(100.0), abs=1e-4
        )


class TestScalarVectorAgreement:
    @pytest.mark.parametrize("function", ["sin", "cos"])
    def test_bit_exact(self, function, sine_inputs):
        m = _fx(function, 20)
        sample = sine_inputs[:48]
        check_array_pass(m, sample, trace(m, sample), standard=False)
