"""Tests for composite methods (GELU via the tanh approximation)."""

import numpy as np
import pytest

from repro.api import make_method
from repro.core.accuracy import measure
from repro.core.composite import GeluViaTanh
from repro.core.functions.registry import get_function
from repro.errors import ConfigurationError
from repro.isa.counter import CycleCounter
from tests.test_oracle import check_array_pass, trace

_F32 = np.float32


def _composite(**kw):
    tanh = make_method("tanh", "dlut_i", mant_bits=8, assume_in_range=True)
    kw.setdefault("assume_in_range", False)
    return GeluViaTanh(tanh, **kw).setup()


class TestAccuracy:
    def test_tracks_reference_to_approximation_error(self, rng):
        m = _composite()
        xs = rng.uniform(-8, 8, 2048).astype(_F32)
        rep = measure(m.evaluate_vec, get_function("gelu").reference, xs)
        # The tanh approximation itself caps accuracy around 1e-3 peak.
        assert rep.rmse < 2e-3
        assert rep.max_abs_error < 5e-3

    def test_approximation_floor_not_method_floor(self, rng):
        """A *better* tanh does not rescue the composite: the formula's own
        error dominates — the key contrast with direct tabulation."""
        xs = rng.uniform(-8, 8, 2048).astype(_F32)
        ref = get_function("gelu").reference
        coarse = _composite()
        fine_tanh = make_method("tanh", "llut_i", density_log2=14,
                                assume_in_range=True)
        fine = GeluViaTanh(fine_tanh, assume_in_range=False).setup()
        e_coarse = measure(coarse.evaluate_vec, ref, xs).rmse
        e_fine = measure(fine.evaluate_vec, ref, xs).rmse
        assert e_fine > e_coarse / 10  # no order-of-magnitude gain

    def test_direct_table_beats_composite_both_ways(self, rng):
        """The benchmark's claim, asserted: direct D-LUT gelu is faster AND
        more accurate than the composite on a PIM core."""
        xs = rng.uniform(-8, 8, 1024).astype(_F32)
        ref = get_function("gelu").reference
        composite = _composite()
        direct = make_method("gelu", "dlut_i", mant_bits=8,
                             assume_in_range=False).setup()
        assert measure(direct.evaluate_vec, ref, xs).rmse < \
            measure(composite.evaluate_vec, ref, xs).rmse / 100
        assert direct.mean_slots(xs[:16]) < 0.5 * composite.mean_slots(xs[:16])

    def test_negative_inputs_via_symmetry(self):
        m = _composite()
        ctx = CycleCounter()
        ref = get_function("gelu").ref_scalar(-1.3)
        assert float(m.evaluate(ctx, -1.3)) == pytest.approx(ref, abs=3e-3)


class TestStructure:
    def test_requires_tanh_method(self):
        sin = make_method("sin", "llut_i", density_log2=8)
        with pytest.raises(ConfigurationError):
            GeluViaTanh(sin)

    def test_cost_includes_surrounding_multiplies(self):
        m = _composite()
        tally = m.element_tally(1.0)
        assert tally.count("fmul") >= 5

    def test_memory_is_the_tanh_table(self):
        m = _composite()
        assert m.table_bytes() == m.tanh_method.table_bytes()

    def test_scalar_vector_agreement(self, rng):
        m = _composite()
        xs = rng.uniform(-8, 8, 48).astype(_F32)
        check_array_pass(m, xs, trace(m, xs), standard=False)
