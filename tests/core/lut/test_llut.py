"""Tests for the LDEXP-based fuzzy LUT (L-LUT), float and fixed-point."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import make_method
from repro.core.accuracy import measure
from repro.core.functions.registry import TWO_PI, get_function
from repro.core.lut.llut import _LLUTGeometry
from repro.errors import ConfigurationError
from repro.isa.counter import CycleCounter
from tests.test_oracle import check_array_pass, trace

_F32 = np.float32


def _llut(function="sin", density_log2=10, variant="llut", **kw):
    kw.setdefault("assume_in_range", True)
    return make_method(function, variant, density_log2=density_log2, **kw).setup()


class TestMagicAddressGeneration:
    """The magic constant must compute exactly round((x - p) * 2^n)."""

    @settings(max_examples=200)
    @given(st.floats(min_value=0.0, max_value=6.28125, width=32),
           st.integers(min_value=0, max_value=16))
    def test_magic_equals_round(self, x, n):
        spec = get_function("sin")
        geom = _LLUTGeometry(spec, n, None)
        assert geom.magic_ok
        t = _F32(_F32(x) + geom.c)
        idx = int(np.asarray(t).view(np.uint32)) & ((1 << 22) - 1)
        # Reference: round-half-even of (x - p) * 2^n, which is what the
        # float add's rounding performs.
        exact = (float(_F32(x)) - geom.p) * 2.0 ** n
        ref = int(np.round(exact))  # numpy rounds half to even, like IEEE
        assert idx in (ref, max(0, ref - 1), ref + 1)
        # Half-way cases aside, the index is exactly the rounded value.
        if abs(exact - round(exact)) > 1e-6:
            assert idx == ref

    def test_magic_validity_flag(self):
        spec = get_function("sin")
        assert _LLUTGeometry(spec, 10, None).magic_ok
        assert not _LLUTGeometry(spec, 21, None).magic_ok  # 2pi > 2^(22-21)

    def test_fallback_path_still_correct(self, sine_inputs):
        spec = get_function("sin")
        m = _llut(density_log2=21)  # forces the ldexp+round fallback
        rep = measure(m.evaluate_vec, spec.reference, sine_inputs)
        assert rep.rmse < 1e-6


class TestOperationCounts:
    def test_plain_uses_no_multiplies(self):
        tally = _llut().element_tally(1.0)
        assert tally.count("fmul") == 0
        assert tally.count("imul") == 0
        assert tally.count("imul64") == 0

    def test_interpolated_uses_exactly_one_float_multiply(self):
        tally = _llut(variant="llut_i").element_tally(1.0)
        assert tally.count("fmul") == 1

    def test_fixed_interpolated_uses_integer_multiply(self):
        tally = _llut(variant="llut_i_fx").element_tally(1.0)
        assert tally.count("fmul") == 0
        assert tally.count("imul64") == 1

    def test_llut_much_cheaper_than_mlut(self, sine_inputs):
        llut = _llut(density_log2=12)
        mlut = make_method("sin", "mlut", size=4096,
                           assume_in_range=True).setup()
        ratio = llut.mean_slots(sine_inputs[:16]) / mlut.mean_slots(sine_inputs[:16])
        assert ratio < 0.35  # the paper reports ~80% reduction

    def test_cycles_flat_across_densities(self, sine_inputs):
        a = _llut(density_log2=8).mean_slots(sine_inputs[:16])
        b = _llut(density_log2=16).mean_slots(sine_inputs[:16])
        assert a == b


class TestAccuracy:
    def test_plain_error_halves_per_density_step(self, sine_inputs):
        spec = get_function("sin")
        e10 = measure(_llut(density_log2=10).evaluate_vec, spec.reference,
                      sine_inputs).rmse
        e13 = measure(_llut(density_log2=13).evaluate_vec, spec.reference,
                      sine_inputs).rmse
        assert e10 / e13 == pytest.approx(8.0, rel=0.2)

    def test_interpolated_reaches_float32_floor(self, sine_inputs):
        spec = get_function("sin")
        m = _llut(variant="llut_i", density_log2=13)
        rep = measure(m.evaluate_vec, spec.reference, sine_inputs)
        assert rep.rmse < 5e-8

    def test_fixed_matches_float_accuracy(self, sine_inputs):
        spec = get_function("sin")
        ef = measure(_llut(variant="llut_i", density_log2=11).evaluate_vec,
                     spec.reference, sine_inputs).rmse
        ex = measure(_llut(variant="llut_i_fx", density_log2=11).evaluate_vec,
                     spec.reference, sine_inputs).rmse
        assert ex == pytest.approx(ef, rel=0.5)

    def test_grid_points_near_exact(self):
        m = _llut(density_log2=8)
        ctx = CycleCounter()
        x = 1.0 + 2.0 ** -8 * 5  # exactly on the table grid
        assert float(m.evaluate(ctx, x)) == pytest.approx(math.sin(x), abs=1e-7)


class TestOutOfRangeGuards:
    def test_below_interval_clamps_to_left_edge(self):
        m = make_method("exp", "llut_i", density_log2=10,
                        interval=(-4.0, 0.0), assume_in_range=True).setup()
        ctx = CycleCounter()
        out = float(m.evaluate(ctx, -100.0))
        assert out == pytest.approx(math.exp(-4.0), rel=1e-3)

    def test_above_interval_clamps_to_right_edge(self):
        m = make_method("exp", "llut_i", density_log2=10,
                        interval=(-4.0, 0.0), assume_in_range=True).setup()
        ctx = CycleCounter()
        out = float(m.evaluate(ctx, 50.0))
        assert out == pytest.approx(1.0, rel=1e-2)

    def test_non_interpolated_guards(self):
        m = make_method("exp", "llut", density_log2=12,
                        interval=(-4.0, 0.0), assume_in_range=True).setup()
        ctx = CycleCounter()
        assert float(m.evaluate(ctx, -1e6)) == pytest.approx(
            math.exp(-4.0), rel=1e-2
        )


class TestFixedPointRaw:
    def test_raw_roundtrip_matches_float_entry(self):
        m = _llut(variant="llut_i_fx", density_log2=12)
        ctx = CycleCounter()
        raw_in = int(round(1.5 * 2**28))
        raw_out = m.core_eval_raw(ctx, raw_in)
        assert raw_out / 2**28 == pytest.approx(math.sin(1.5), abs=1e-6)

    def test_raw_vec_matches_scalar(self, rng):
        m = _llut(variant="llut_i_fx", density_log2=10)
        xs = rng.uniform(0, TWO_PI, 64)
        raws = np.round(xs * 2**28).astype(np.int64)
        ctx = CycleCounter()
        scalar = np.array([m.core_eval_raw(ctx, int(r)) for r in raws])
        np.testing.assert_array_equal(scalar, m.core_eval_raw_vec(raws))

    def test_density_exceeding_frac_bits_rejected(self):
        with pytest.raises(ConfigurationError):
            make_method("sin", "llut_fx", density_log2=29)

    def test_interval_outside_format_rejected(self):
        with pytest.raises(ConfigurationError):
            make_method("exp", "llut_fx", density_log2=10,
                        interval=(0.0, 100.0))


class TestScalarVectorAgreement:
    @pytest.mark.parametrize("variant", ["llut", "llut_i", "llut_fx",
                                         "llut_i_fx"])
    def test_bit_exact(self, variant, sine_inputs):
        m = _llut(variant=variant, density_log2=9)
        sample = sine_inputs[:64]
        check_array_pass(m, sample, trace(m, sample), standard=False)

    def test_bit_exact_fallback_density(self, sine_inputs):
        m = _llut(variant="llut", density_log2=21)
        sample = sine_inputs[:32]
        check_array_pass(m, sample, trace(m, sample), standard=False)
