"""Tests for the CORDIC+LUT combined method (Section 3.3.2)."""

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


#: NaN (quiet, both signs, with a payload), +-inf and +-0.0 as raw bits.
_SPECIALS = np.array([0x7FC00000, 0xFFC00000, 0x7FC00123, 0x7F800000,
                      0xFF800000, 0x00000000, 0x80000000],
                     dtype=np.uint32).view(_F32)


def _hybrid(function="sin", iterations=24, lut_bits=6, **kw):
    kw.setdefault("assume_in_range", True)
    return make_method(function, "cordic_lut", iterations=iterations,
                       lut_bits=lut_bits, **kw).setup()


def _cordic(function="sin", iterations=24, **kw):
    kw.setdefault("assume_in_range", True)
    return make_method(function, "cordic", iterations=iterations, **kw).setup()


class TestSpeedupOverPureCordic:
    def test_fewer_slots_than_cordic_at_same_accuracy(self, sine_inputs):
        spec = get_function("sin")
        cordic = _cordic(iterations=24)
        hybrid = _hybrid(iterations=24, lut_bits=8)
        e_c = measure(cordic.evaluate_vec, spec.reference, sine_inputs).rmse
        e_h = measure(hybrid.evaluate_vec, spec.reference, sine_inputs).rmse
        # Matched accuracy (same final iteration index)...
        assert e_h == pytest.approx(e_c, rel=1.0)
        # ...at materially fewer cycles (the skipped iterations).
        assert hybrid.mean_slots(sine_inputs[:8]) < \
            0.8 * cordic.mean_slots(sine_inputs[:8])

    def test_larger_lut_skips_more(self, sine_inputs):
        small = _hybrid(iterations=24, lut_bits=4)
        large = _hybrid(iterations=24, lut_bits=10)
        assert large.mean_slots(sine_inputs[:8]) < \
            small.mean_slots(sine_inputs[:8])


class TestAccuracy:
    def test_sine_values(self):
        m = _hybrid(iterations=28, lut_bits=6)
        ctx = CycleCounter()
        for angle in [0.0, 0.7, 2.2, 3.9, 5.8]:
            assert float(m.evaluate(ctx, angle)) == pytest.approx(
                math.sin(angle), abs=3e-6
            ), angle

    def test_exp_hybrid(self, rng):
        m = make_method("exp", "cordic_lut", iterations=28, lut_bits=6,
                        assume_in_range=False).setup()
        xs = rng.uniform(-10, 10, 512).astype(_F32)
        rep = measure(m.evaluate_vec, get_function("exp").reference, xs)
        assert rep.mean_ulp_error < 8

    def test_tanh_hybrid(self, rng):
        m = make_method("tanh", "cordic_lut", iterations=28, lut_bits=6,
                        assume_in_range=False).setup()
        xs = rng.uniform(-8, 8, 512).astype(_F32)
        rep = measure(m.evaluate_vec, get_function("tanh").reference, xs)
        assert rep.rmse < 1e-6


class TestSetupAndMemory:
    def test_memory_independent_of_iterations(self):
        # This is what keeps CORDIC+LUT setup flat in Figure 6.
        a = _hybrid(iterations=16, lut_bits=8)
        b = _hybrid(iterations=32, lut_bits=8)
        assert abs(a.table_bytes() - b.table_bytes()) <= 16 * 4

    def test_memory_grows_with_lut_bits(self):
        a = _hybrid(iterations=24, lut_bits=4)
        b = _hybrid(iterations=24, lut_bits=8)
        assert b.table_bytes() > a.table_bytes()

    def test_more_memory_than_pure_cordic(self):
        assert _hybrid().table_bytes() > _cordic().table_bytes()


class TestValidation:
    def test_vectoring_functions_rejected(self):
        for fn in ("log", "sqrt"):
            with pytest.raises((UnsupportedFunctionError, ConfigurationError)):
                make_method(fn, "cordic_lut")

    def test_lut_bits_bounds(self):
        with pytest.raises(ConfigurationError):
            make_method("sin", "cordic_lut", iterations=8, lut_bits=8)
        with pytest.raises(ConfigurationError):
            make_method("sin", "cordic_lut", iterations=8, lut_bits=0)


class TestScalarVectorAgreement:
    @pytest.mark.parametrize("function", ["sin", "cos", "exp", "tanh"])
    def test_bit_exact(self, function, rng):
        spec = get_function(function)
        lo, hi = spec.bench_domain
        xs = rng.uniform(lo, hi, 48).astype(_F32)
        m = make_method(function, "cordic_lut", iterations=20, lut_bits=5,
                        assume_in_range=False).setup()
        check_array_pass(m, xs, trace(m, xs), standard=False)

    @pytest.mark.parametrize("in_range", [True, False],
                             ids=["natural", "full_domain"])
    @pytest.mark.parametrize("function", ["sin", "cos", "tan", "exp",
                                          "sinh", "cosh", "tanh"])
    def test_non_finite_lanes_bit_exact(self, function, in_range):
        """NaN, +-inf and +-0.0 lanes take the traced branches: equal bit
        patterns, NaN payloads and zero signs included."""
        spec = get_function(function)
        lo, hi = spec.natural_range if in_range else spec.bench_domain
        xs = np.concatenate([np.linspace(lo, hi, 16, dtype=_F32), _SPECIALS])
        m = _hybrid(function, 20, lut_bits=5, assume_in_range=in_range)
        check_array_pass(m, xs, trace(m, xs), standard=False)
