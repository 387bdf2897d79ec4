"""Tests for the minimax-polynomial method (the 'poly' baseline)."""

import numpy as np
import pytest

from repro.api import make_method
from repro.core.accuracy import measure
from repro.core.functions.registry import get_function
from repro.errors import ConfigurationError, UnsupportedFunctionError
from tests.test_oracle import check_array_pass, trace

_F32 = np.float32


class TestAccuracy:
    def test_error_shrinks_with_degree(self, sine_inputs):
        spec = get_function("sin")
        errs = []
        for d in (6, 10, 14):
            m = make_method("sin", "poly", degree=d).setup()
            errs.append(measure(m.evaluate_vec, spec.reference,
                                sine_inputs).rmse)
        assert errs[0] > 50 * errs[1]
        assert errs[2] <= errs[1]

    def test_float32_coefficient_floor(self, sine_inputs):
        """Even with the normalized domain, float32 coefficient rounding
        floors the evaluation well above the float64 fit error — tables do
        not have this failure mode (entries round independently)."""
        spec = get_function("sin")
        m = make_method("sin", "poly", degree=16).setup()
        assert m.fit_error < 1e-9
        rep = measure(m.evaluate_vec, spec.reference, sine_inputs)
        assert rep.rmse > 20 * m.fit_error

    def test_exp_with_range_extension(self, rng):
        spec = get_function("exp")
        xs = rng.uniform(-10, 10, 1024).astype(_F32)
        m = make_method("exp", "poly", degree=8,
                        assume_in_range=False).setup()
        rep = measure(m.evaluate_vec, spec.reference, xs)
        assert rep.mean_ulp_error < 8


class TestCostStructure:
    def test_one_mul_add_per_degree(self):
        m = make_method("sin", "poly", degree=9).setup()
        tally = m.element_tally(1.0)
        # degree multiplies in Horner plus one for the domain normalization.
        assert tally.count("fmul") == 10
        assert tally.count("fadd") == 9
        assert tally.count("fsub") == 1

    def test_cycles_grow_with_accuracy_like_cordic(self, sine_inputs):
        lo = make_method("sin", "poly", degree=6).setup()
        hi = make_method("sin", "poly", degree=14).setup()
        assert hi.mean_slots(sine_inputs[:8]) > \
            2 * lo.mean_slots(sine_inputs[:8])

    def test_tiny_memory_footprint(self):
        m = make_method("sin", "poly", degree=10).setup()
        assert m.table_bytes() == 44

    def test_lut_beats_poly_at_matched_accuracy(self, sine_inputs):
        """Section 4.2.1's comparison, through the method interface: at
        poly's best accuracy the interpolated L-LUT is both more accurate
        and several times cheaper."""
        spec = get_function("sin")
        poly = make_method("sin", "poly", degree=12).setup()
        lut = make_method("sin", "llut_i", density_log2=11).setup()
        e_poly = measure(poly.evaluate_vec, spec.reference, sine_inputs).rmse
        e_lut = measure(lut.evaluate_vec, spec.reference, sine_inputs).rmse
        assert e_lut < e_poly
        assert lut.mean_slots(sine_inputs[:8]) < \
            0.3 * poly.mean_slots(sine_inputs[:8])


class TestValidation:
    def test_tan_rejected(self):
        with pytest.raises(UnsupportedFunctionError):
            make_method("tan", "poly", degree=10)

    def test_degree_bounds(self):
        with pytest.raises(ConfigurationError):
            make_method("sin", "poly", degree=-1)
        with pytest.raises(ConfigurationError):
            make_method("sin", "poly", degree=30)

    def test_fit_error_before_setup_raises(self):
        m = make_method("sin", "poly", degree=8)
        with pytest.raises(ConfigurationError):
            m.fit_error


class TestScalarVectorAgreement:
    def test_bit_exact(self, sine_inputs):
        m = make_method("sin", "poly", degree=10).setup()
        sample = sine_inputs[:48]
        check_array_pass(m, sample, trace(m, sample), standard=False)
