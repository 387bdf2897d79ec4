"""Tests for circular-vectoring CORDIC (arctangent)."""

import math

import numpy as np
import pytest

from repro.api import make_method
from repro.core.accuracy import measure
from repro.core.functions.registry import get_function
from repro.errors import ConfigurationError
from repro.isa.counter import CycleCounter

_F32 = np.float32


#: NaN (quiet, both signs, with a payload), +-inf and +-0.0 as raw bits.
_SPECIALS = np.array([0x7FC00000, 0xFFC00000, 0x7FC00123, 0x7F800000,
                      0xFF800000, 0x00000000, 0x80000000],
                     dtype=np.uint32).view(_F32)


def _atan(iterations=28, **kw):
    kw.setdefault("assume_in_range", False)
    return make_method("atan", "cordic", iterations=iterations, **kw).setup()


class TestAccuracy:
    def test_known_values(self):
        m = _atan()
        ctx = CycleCounter()
        for x in [0.0, 0.5, 1.0, 2.0, 10.0, 1000.0]:
            assert float(m.evaluate(ctx, x)) == pytest.approx(
                math.atan(x), abs=3e-7
            ), x

    def test_negative_values(self):
        m = _atan()
        ctx = CycleCounter()
        assert float(m.evaluate(ctx, -3.0)) == pytest.approx(
            math.atan(-3.0), abs=3e-7
        )

    def test_full_domain_sweep(self, rng):
        m = _atan()
        xs = rng.uniform(-50, 50, 2048).astype(_F32)
        rep = measure(m.evaluate_vec, get_function("atan").reference, xs)
        assert rep.rmse < 1e-7

    def test_saturates_toward_half_pi(self):
        m = _atan()
        ctx = CycleCounter()
        assert float(m.evaluate(ctx, 1e6)) == pytest.approx(
            math.pi / 2, abs=1e-5
        )

    def test_error_shrinks_with_iterations(self, rng):
        xs = rng.uniform(-10, 10, 1024).astype(_F32)
        ref = get_function("atan").reference
        e_lo = measure(_atan(10).evaluate_vec, ref, xs).rmse
        e_hi = measure(_atan(20).evaluate_vec, ref, xs).rmse
        assert e_hi < e_lo / 100


class TestCostStructure:
    def test_no_float_divide(self):
        """Vectoring handles any magnitude; no reciprocal reduction needed."""
        m = _atan()
        tally = m.element_tally(25.0)
        assert tally.count("fdiv") == 0

    def test_lut_method_pays_the_divide(self):
        lut = make_method("atan", "llut_i", density_log2=12,
                          assume_in_range=False).setup()
        assert lut.element_tally(25.0).count("fdiv") == 1
        assert lut.element_tally(0.5).count("fdiv") == 0

    def test_only_atan_accepted(self):
        from repro.core.cordic.vectoring import CordicArctan
        with pytest.raises(ConfigurationError):
            CordicArctan(get_function("sin"))


class TestScalarVectorAgreement:
    def test_bit_exact(self, rng):
        m = _atan(20)
        xs = rng.uniform(-40, 40, 64).astype(_F32)
        ctx = CycleCounter()
        scalar = np.array([m.evaluate(ctx, float(x)) for x in xs], dtype=_F32)
        np.testing.assert_array_equal(scalar, m.evaluate_vec(xs))

    @pytest.mark.parametrize("in_range", [True, False],
                             ids=["natural", "full_domain"])
    def test_non_finite_lanes_bit_exact(self, in_range):
        """NaN, +-inf and +-0.0 lanes take the traced branches: equal bit
        patterns, NaN payloads and zero signs included."""
        spec = get_function("atan")
        lo, hi = spec.natural_range if in_range else spec.bench_domain
        xs = np.concatenate([np.linspace(lo, hi, 16, dtype=_F32), _SPECIALS])
        m = _atan(20, assume_in_range=in_range)
        ctx = CycleCounter()
        scalar = np.array([m.evaluate(ctx, x) for x in xs], dtype=_F32)
        np.testing.assert_array_equal(scalar.view(np.uint32),
                                      m.evaluate_vec(xs).view(np.uint32))
