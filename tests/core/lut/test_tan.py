"""Tests for tangent via sine/cosine tables plus a divide (Section 4.2.4)."""

import math

import numpy as np
import pytest

from repro.api import make_method
from repro.core.accuracy import measure
from repro.core.functions.registry import get_function
from repro.isa.counter import CycleCounter
from repro.isa.opcosts import UPMEM_COSTS
from tests.test_oracle import check_array_pass, trace

_F32 = np.float32


def _tan(method="llut_i", **params):
    params.setdefault("assume_in_range", True)
    return make_method("tan", method, **params).setup()


class TestStructure:
    def test_is_quotient_wrapper(self):
        from repro.core.lut.tan import TanQuotientLUT
        m = _tan(density_log2=10)
        assert isinstance(m, TanQuotientLUT)
        assert m.sin_m.spec.name == "sin"
        assert m.cos_m.spec.name == "cos"

    def test_variant_flags_mirror_inner(self):
        assert _tan("llut_i", density_log2=8).interpolated
        assert not _tan("llut", density_log2=8).interpolated

    def test_memory_is_both_tables(self):
        m = _tan(density_log2=10)
        assert m.table_bytes() == m.sin_m.table_bytes() + m.cos_m.table_bytes()

    def test_exactly_one_divide(self):
        tally = _tan(density_log2=10).element_tally(1.0)
        assert tally.count("fdiv") == 1

    def test_cost_is_two_lookups_plus_divide(self):
        m = _tan(density_log2=10)
        sin_only = make_method("sin", "llut_i", density_log2=10,
                               assume_in_range=True).setup()
        expected = 2 * sin_only.element_tally(1.0).slots + UPMEM_COSTS.fp_div
        assert m.element_tally(1.0).slots == pytest.approx(expected, rel=0.1)


class TestAccuracy:
    def test_values_away_from_poles(self):
        m = _tan(density_log2=12)
        ctx = CycleCounter()
        for x in [0.1, 0.7, 2.0, 3.5, 5.0]:
            assert float(m.evaluate(ctx, x)) == pytest.approx(
                math.tan(x), rel=1e-4
            ), x

    def test_relative_accuracy_near_poles(self, rng):
        """Absolute error explodes at the poles but ULP error stays sane —
        the quotient inherits sine/cosine's relative accuracy."""
        spec = get_function("tan")
        xs = rng.uniform(0, 2 * np.pi, 4096).astype(_F32)
        m = _tan(density_log2=12)
        rep = measure(m.evaluate_vec, spec.reference, xs)
        assert rep.mean_ulp_error < 50

    def test_mlut_variant_works(self, rng):
        spec = get_function("tan")
        xs = rng.uniform(0.1, 1.4, 512).astype(_F32)
        m = _tan("mlut_i", size=8193)
        rep = measure(m.evaluate_vec, spec.reference, xs)
        assert rep.rmse < 1e-4


class TestScalarVectorAgreement:
    @pytest.mark.parametrize("method", ["llut", "llut_i", "mlut_i"])
    def test_bit_exact(self, method, rng):
        params = {"size": 1025} if method.startswith("mlut") else \
            {"density_log2": 9}
        m = _tan(method, **params)
        xs = rng.uniform(0, 2 * np.pi, 48).astype(_F32)
        check_array_pass(m, xs, trace(m, xs), standard=False)
