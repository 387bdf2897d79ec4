"""Tests for the multiplication-based fuzzy LUT (M-LUT)."""

import math

import numpy as np
import pytest

from repro.api import make_method
from repro.core.accuracy import measure
from repro.core.functions.registry import get_function
from repro.errors import ConfigurationError
from repro.isa.counter import CycleCounter
from tests.test_oracle import check_array_pass, trace

_F32 = np.float32


def _mlut(function="sin", size=1024, interpolated=False, **kw):
    kw.setdefault("assume_in_range", True)
    name = "mlut_i" if interpolated else "mlut"
    return make_method(function, name, size=size, **kw).setup()


class TestAccuracyScaling:
    def test_error_scales_inverse_with_size(self, sine_inputs):
        spec = get_function("sin")
        e_small = measure(_mlut(size=1024).evaluate_vec, spec.reference,
                          sine_inputs).rmse
        e_big = measure(_mlut(size=8192).evaluate_vec, spec.reference,
                        sine_inputs).rmse
        assert e_small / e_big == pytest.approx(8.0, rel=0.2)

    def test_interpolated_error_scales_inverse_square(self, sine_inputs):
        spec = get_function("sin")
        e_small = measure(_mlut(size=257, interpolated=True).evaluate_vec,
                          spec.reference, sine_inputs).rmse
        e_big = measure(_mlut(size=1025, interpolated=True).evaluate_vec,
                        spec.reference, sine_inputs).rmse
        assert e_small / e_big == pytest.approx(16.0, rel=0.3)

    def test_interpolation_beats_plain_at_same_size(self, sine_inputs):
        spec = get_function("sin")
        plain = measure(_mlut(size=1024).evaluate_vec, spec.reference,
                        sine_inputs).rmse
        interp = measure(_mlut(size=1024, interpolated=True).evaluate_vec,
                         spec.reference, sine_inputs).rmse
        assert interp < plain / 50


class TestOperationCounts:
    def test_plain_uses_one_multiply(self):
        tally = _mlut().element_tally(1.0)
        assert tally.count("fmul") == 1

    def test_interpolated_uses_two_multiplies(self):
        tally = _mlut(interpolated=True).element_tally(1.0)
        assert tally.count("fmul") == 2

    def test_cycles_independent_of_size(self, sine_inputs):
        small = _mlut(size=64).mean_slots(sine_inputs[:16])
        big = _mlut(size=65536).mean_slots(sine_inputs[:16])
        assert small == big


class TestEdges:
    def test_exact_at_interval_ends(self):
        m = _mlut("sin", size=4097)
        ctx = CycleCounter()
        assert abs(float(m.evaluate(ctx, 0.0))) < 1e-7

    def test_clamps_below_interval(self):
        m = _mlut("sin", size=256)
        ctx = CycleCounter()
        out = m.evaluate(ctx, -0.5)  # out of table: clamps to entry 0
        assert abs(float(out)) < 0.05

    def test_clamps_above_interval(self):
        m = _mlut("sin", size=256)
        ctx = CycleCounter()
        out = m.evaluate(ctx, 7.5)
        assert abs(float(out) - math.sin(2 * math.pi)) < 0.05

    def test_interpolated_right_edge(self):
        m = _mlut("sin", size=513, interpolated=True)
        ctx = CycleCounter()
        hi = m.hi
        out = float(m.evaluate(ctx, hi * 0.999999))
        assert out == pytest.approx(math.sin(hi * 0.999999), abs=1e-4)


class TestValidation:
    def test_too_small(self):
        with pytest.raises(ConfigurationError):
            make_method("sin", "mlut", size=1)

    def test_degenerate_interval(self):
        with pytest.raises(ConfigurationError):
            make_method("sin", "mlut", size=16, interval=(1.0, 1.0))

    def test_memory_accounting(self):
        m = _mlut(size=1000)
        assert m.table_bytes() == 1000 * 4
        assert m.host_entries() == 1000


class TestScalarVectorAgreement:
    @pytest.mark.parametrize("interp", [False, True])
    def test_bit_exact(self, interp, sine_inputs):
        m = _mlut(size=777, interpolated=interp)
        sample = sine_inputs[:64]
        check_array_pass(m, sample, trace(m, sample), standard=False)

    def test_custom_interval(self, rng):
        m = make_method("exp", "mlut_i", size=1001, interval=(-2.0, 2.0),
                        assume_in_range=True).setup()
        xs = rng.uniform(-2, 2, 64).astype(_F32)
        check_array_pass(m, xs, trace(m, xs), standard=False)
