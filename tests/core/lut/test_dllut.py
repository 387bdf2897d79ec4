"""Tests for the combined DL-LUT (L-LUT near zero + D-LUT beyond)."""

import math

import numpy as np
import pytest

from repro.api import make_method
from repro.core.accuracy import measure
from repro.core.functions.registry import get_function
from repro.errors import UnsupportedFunctionError
from repro.isa.counter import CycleCounter
from tests.test_oracle import check_array_pass, trace

_F32 = np.float32


def _dllut(function="tanh", interpolated=True, **kw):
    kw.setdefault("assume_in_range", True)
    kw.setdefault("mant_bits", 8)
    kw.setdefault("e_min", -8)
    name = "dllut_i" if interpolated else "dllut"
    return make_method(function, name, **kw).setup()


class TestGapCoverage:
    def test_fixes_dlut_gap_near_zero(self):
        """The whole point of DL-LUT (Section 3.3.1)."""
        dlut = make_method("tanh", "dlut", mant_bits=8, e_min=-8,
                           assume_in_range=True).setup()
        dllut = _dllut(interpolated=False)
        ctx = CycleCounter()
        x = 2.0 ** -12  # far below e_min
        err_d = abs(float(dlut.evaluate(ctx, x)) - math.tanh(x))
        err_dl = abs(float(dllut.evaluate(ctx, x)) - math.tanh(x))
        assert err_dl < err_d / 10

    def test_accuracy_across_boundary(self, rng):
        m = _dllut()
        boundary = 2.0 ** -8
        xs = rng.uniform(boundary * 0.25, boundary * 4, 512).astype(_F32)
        rep = measure(m.evaluate_vec, get_function("tanh").reference, xs)
        assert rep.rmse < 1e-7

    def test_low_table_density_matches_first_dlut_cell(self):
        m = _dllut()
        # L-LUT spacing 2^-(m - e_min) equals the first D-LUT cell width.
        assert m.low.geom.step == pytest.approx(
            2.0 ** -(8 - (-8)) , rel=1e-12
        )

    def test_dispatch_boundary(self):
        m = _dllut()
        ctx = CycleCounter()
        below = float(m.evaluate(ctx, 2.0 ** -8 * 0.99))
        above = float(m.evaluate(ctx, 2.0 ** -8 * 1.01))
        assert below == pytest.approx(math.tanh(2.0 ** -8 * 0.99), rel=1e-3)
        assert above == pytest.approx(math.tanh(2.0 ** -8 * 1.01), rel=1e-3)


class TestCostAndMemory:
    def test_one_extra_compare_over_parts(self):
        m = _dllut()
        tally_high = m.element_tally(1.0)
        high_alone = m.high.element_tally(1.0)
        # DL-LUT = dispatch compare + branch + the D-LUT path (plus the
        # method wrapper's reduction, identical for both here).
        assert tally_high.slots >= high_alone.slots

    def test_memory_is_sum_of_parts(self):
        m = _dllut()
        assert m.table_bytes() == m.low.table_bytes() + m.high.table_bytes()

    def test_host_entries_sum(self):
        m = _dllut()
        assert m.host_entries() == m.low.entries + m.high.entries


class TestAccuracy:
    @pytest.mark.parametrize("function", ["tanh", "gelu", "sigmoid", "cndf"])
    def test_activation_functions(self, function, rng):
        spec = get_function(function)
        lo, hi = spec.bench_domain
        xs = rng.uniform(lo, hi, 1024).astype(_F32)
        m = _dllut(function, assume_in_range=False)
        rep = measure(m.evaluate_vec, spec.reference, xs)
        assert rep.rmse < 2e-6, function

    def test_paper_claim_fast_for_activations(self, rng):
        """Key Takeaway 4: D-LUT/DL-LUT beat sine's interpolated L-LUT
        pipeline for activation functions."""
        xs_tanh = rng.uniform(-8, 8, 16).astype(_F32)
        xs_sin = rng.uniform(0, 100, 16).astype(_F32)
        dllut = _dllut("tanh", assume_in_range=False)
        llut_sin = make_method("sin", "llut_i", density_log2=12,
                               assume_in_range=False).setup()
        assert dllut.mean_slots(xs_tanh) < 0.7 * llut_sin.mean_slots(xs_sin)


class TestSupport:
    def test_periodic_rejected(self):
        with pytest.raises(UnsupportedFunctionError):
            make_method("cos", "dllut_i")


class TestScalarVectorAgreement:
    @pytest.mark.parametrize("interp", [False, True])
    def test_bit_exact(self, interp, rng):
        m = _dllut(interpolated=interp, assume_in_range=False)
        xs = np.concatenate([
            rng.uniform(-9, 9, 48),
            rng.uniform(-2.0 ** -8, 2.0 ** -8, 16),  # straddle the boundary
        ]).astype(_F32)
        check_array_pass(m, xs, trace(m, xs), standard=False)
