"""Tests for the curvature-adaptive segmented L-LUT (extension)."""

import numpy as np
import pytest

from repro.api import make_method
from repro.core.accuracy import measure
from repro.core.functions.registry import get_function
from repro.core.lut.slut import SegmentedLLUT
from repro.errors import ConfigurationError
from tests.test_oracle import check_array_pass, trace

_F32 = np.float32


def _slut(function="atanh", target=1e-7, seg_bits=4, **kw):
    kw.setdefault("assume_in_range", False)
    return make_method(function, "slut_i", target_rmse=target,
                       seg_bits=seg_bits, **kw).setup()


class TestAccuracyTargeting:
    @pytest.mark.parametrize("function", ["atanh", "gelu", "log", "sigmoid"])
    def test_meets_target_within_small_factor(self, function, rng):
        spec = get_function(function)
        xs = rng.uniform(*spec.bench_domain, 4096).astype(_F32)
        m = _slut(function, target=1e-7)
        rep = measure(m.evaluate_vec, spec.reference, xs)
        assert rep.rmse < 3e-7, function  # rms-based sizing, ~2x slack

    def test_tighter_target_means_bigger_table(self):
        coarse = _slut("atanh", target=1e-5)
        fine = _slut("atanh", target=1e-8)
        assert fine.table_bytes() > 2 * coarse.table_bytes()

    def test_density_follows_curvature(self):
        """atanh: curvature explodes near 1, so the last segments must be
        far denser than the first ones."""
        m = _slut("atanh", target=1e-7)
        assert m._densities[-2] > m._densities[0] + 3

    def test_uniform_curvature_gets_uniform_density(self):
        m = _slut("sin", target=1e-7)
        inner = m._densities[1:-2]  # edge segments see the clamp
        assert inner.max() - inner.min() <= 1


class TestMemoryAdvantage:
    def test_beats_uniform_llut_on_curvature_concentrated_function(self, rng):
        """The headline: equal accuracy, a fraction of the memory."""
        spec = get_function("atanh")
        xs = rng.uniform(-0.95, 0.95, 4096).astype(_F32)
        seg = _slut("atanh", target=1e-7)
        e_seg = measure(seg.evaluate_vec, spec.reference, xs).rmse

        # Find the uniform density reaching the same accuracy.
        for density in range(8, 24):
            uni = make_method("atanh", "llut_i", density_log2=density,
                              assume_in_range=False).setup()
            if measure(uni.evaluate_vec, spec.reference, xs).rmse <= e_seg:
                break
        assert seg.table_bytes() < 0.5 * uni.table_bytes()

    def test_no_advantage_for_uniform_curvature(self, rng):
        """sin's curvature is flat; segmentation only adds overhead."""
        spec = get_function("sin")
        xs = rng.uniform(0, 2 * np.pi, 4096).astype(_F32)
        seg = _slut("sin", target=1e-7)
        uni = make_method("sin", "llut_i", density_log2=10,
                          assume_in_range=False).setup()
        e_uni = measure(uni.evaluate_vec, spec.reference, xs).rmse
        assert seg.table_bytes() > 0.5 * uni.table_bytes()
        assert e_uni < 3e-7


class TestCostStructure:
    def test_two_magic_adds_one_descriptor(self):
        m = _slut("gelu", assume_in_range=True)
        tally = m.element_tally(1.0)
        assert tally.count("fadd") >= 2       # both magic adds
        assert tally.count("fmul") == 1       # only the interpolation
        # ~110 slots over the flat interpolated L-LUT.
        flat = make_method("gelu", "llut_i", density_log2=11,
                           assume_in_range=True).setup()
        extra = tally.slots - flat.element_tally(1.0).slots
        assert 0 < extra < 300

    def test_cost_flat_across_targets(self, rng):
        xs = rng.uniform(0.1, 0.9, 8).astype(_F32)
        a = _slut("atanh", target=1e-5).mean_slots(xs)
        b = _slut("atanh", target=1e-8).mean_slots(xs)
        assert a == pytest.approx(b, rel=0.05)


class TestValidation:
    def test_bad_parameters(self):
        spec = get_function("gelu")
        with pytest.raises(ConfigurationError):
            SegmentedLLUT(spec, seg_bits=0)
        with pytest.raises(ConfigurationError):
            SegmentedLLUT(spec, target_rmse=0.0)

    def test_tan_unsupported(self):
        from repro.errors import UnsupportedFunctionError
        with pytest.raises(UnsupportedFunctionError):
            make_method("tan", "slut_i")


class TestScalarVectorAgreement:
    @pytest.mark.parametrize("function", ["atanh", "gelu", "sin", "log"])
    def test_bit_exact(self, function, rng):
        spec = get_function(function)
        xs = rng.uniform(*spec.bench_domain, 64).astype(_F32)
        m = _slut(function)
        check_array_pass(m, xs, trace(m, xs), standard=False)
