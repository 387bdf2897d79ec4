"""Tests for the direct float-conversion LUT (D-LUT)."""

import math

import numpy as np
import pytest

from repro.api import make_method
from repro.core.accuracy import measure
from repro.core.functions.registry import get_function
from repro.core.lut.dlut import _DLUTGeometry
from repro.errors import ConfigurationError, UnsupportedFunctionError
from repro.isa.counter import CycleCounter
from tests.test_oracle import check_array_pass, trace

_F32 = np.float32


def _dlut(function="tanh", mant_bits=8, interpolated=False, **kw):
    kw.setdefault("assume_in_range", True)
    name = "dlut_i" if interpolated else "dlut"
    return make_method(function, name, mant_bits=mant_bits, **kw).setup()


class TestGeometry:
    def test_cells_count(self):
        g = _DLUTGeometry(get_function("tanh"), 8, -14, 3, None)
        assert g.cells == (3 - (-14)) << 8

    def test_edges_are_powers_within_binades(self):
        g = _DLUTGeometry(get_function("tanh"), 2, -2, 2, None)
        # First cell left edge is exactly 2^e_min.
        assert g.edge(np.array([0]))[0] == 0.25
        # One binade spans 2^mant_bits cells.
        assert g.edge(np.array([4]))[0] == 0.5

    def test_cell_spacing_doubles_per_binade(self):
        g = _DLUTGeometry(get_function("tanh"), 4, -4, 4, None)
        e = g.edge(np.arange(g.cells + 1))
        widths = np.diff(e)
        # Width in binade k+1 is twice the width in binade k.
        assert widths[20] == pytest.approx(2 * widths[4])

    def test_e_min_limits(self):
        with pytest.raises(ConfigurationError):
            _DLUTGeometry(get_function("tanh"), 8, -130, 3, None)
        with pytest.raises(ConfigurationError):
            _DLUTGeometry(get_function("tanh"), 8, 5, 3, None)

    def test_mant_bits_limits(self):
        with pytest.raises(ConfigurationError):
            _DLUTGeometry(get_function("tanh"), 24, -14, 3, None)


class TestAddressing:
    def test_index_is_bit_slice(self):
        m = _dlut(mant_bits=8)
        g = m.geom
        x = _F32(1.37)
        bits = int(np.asarray(x).view(np.uint32))
        expected = (bits >> g.shift) - g.offset
        ctx = CycleCounter()
        m.evaluate(ctx, float(x))
        # Check through the vector path (no clamping for in-range x).
        idx = (np.array([x]).view(np.uint32).astype(np.int64) >> g.shift) - g.offset
        assert idx[0] == expected

    def test_no_float_arithmetic_plain(self):
        tally = _dlut().element_tally(1.0)
        assert tally.count("fmul") == 0
        assert tally.count("fadd") == 0
        assert tally.count("fsub") == 0

    def test_interpolated_one_multiply(self):
        tally = _dlut(interpolated=True).element_tally(1.0)
        assert tally.count("fmul") == 1

    def test_plain_is_extremely_cheap(self, rng):
        m = _dlut()
        xs = rng.uniform(0, 8, 16).astype(_F32)
        assert m.mean_slots(xs) < 20


class TestAccuracy:
    def test_tanh_interpolated(self, rng):
        xs = rng.uniform(-8, 8, 2048).astype(_F32)
        m = _dlut(mant_bits=8, interpolated=True, assume_in_range=False)
        rep = measure(m.evaluate_vec, get_function("tanh").reference, xs)
        assert rep.rmse < 1e-6

    def test_gelu_interpolated(self, rng):
        xs = rng.uniform(-8, 8, 2048).astype(_F32)
        m = _dlut("gelu", mant_bits=8, interpolated=True,
                  assume_in_range=False)
        rep = measure(m.evaluate_vec, get_function("gelu").reference, xs)
        assert rep.rmse < 1e-6

    def test_denser_mantissa_improves_accuracy(self, rng):
        xs = rng.uniform(0.001, 8, 2048).astype(_F32)
        ref = get_function("tanh").reference
        e4 = measure(_dlut(mant_bits=4).evaluate_vec, ref, xs).rmse
        e8 = measure(_dlut(mant_bits=8).evaluate_vec, ref, xs).rmse
        assert e8 < e4 / 8

    def test_gap_below_e_min(self):
        # The documented D-LUT weakness: inputs below 2^e_min clamp.
        m = _dlut(mant_bits=8, e_min=-4)
        ctx = CycleCounter()
        out = float(m.evaluate(ctx, 2.0 ** -10))
        # The true tanh is ~2^-10; the clamp returns the first cell value
        # (~tanh(2^-4)), an error of ~0.06.
        assert out == pytest.approx(math.tanh(2.0 ** -4), rel=0.1)

    def test_saturating_tail_clamps_high(self):
        m = _dlut(mant_bits=8)
        ctx = CycleCounter()
        assert float(m.evaluate(ctx, 100.0)) == pytest.approx(1.0, abs=1e-3)


class TestSupport:
    def test_periodic_functions_rejected(self):
        with pytest.raises(UnsupportedFunctionError):
            make_method("sin", "dlut")

    def test_saturating_functions_supported(self):
        for fn in ("tanh", "gelu", "sigmoid", "cndf", "exp", "log", "sqrt"):
            assert make_method(fn, "dlut") is not None


class TestScalarVectorAgreement:
    @pytest.mark.parametrize("interp", [False, True])
    def test_bit_exact(self, interp, rng):
        m = _dlut(mant_bits=7, interpolated=interp, assume_in_range=False)
        xs = rng.uniform(-9, 9, 64).astype(_F32)
        check_array_pass(m, xs, trace(m, xs), standard=False)
