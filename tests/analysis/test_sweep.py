"""Tests for the parameter-sweep engine behind Figures 5-7."""

import numpy as np
import pytest

from repro.analysis.sweep import (
    SINE_SWEEPS,
    WRAM_TABLE_BUDGET,
    default_inputs,
    sweep_method,
)
from repro.plan.cache import PlanCache


class TestDefaultInputs:
    def test_natural_range(self):
        xs = default_inputs("sin", n=1024)
        assert xs.dtype == np.float32
        assert xs.min() >= 0 and xs.max() < 2 * np.pi + 1e-3

    def test_bench_domain(self):
        xs = default_inputs("exp", n=1024, in_natural_range=False)
        assert xs.min() < -5 and xs.max() > 5

    def test_deterministic(self):
        np.testing.assert_array_equal(
            default_inputs("sin", n=64), default_inputs("sin", n=64)
        )


class TestSweep:
    @pytest.fixture(scope="class")
    def points(self):
        inputs = default_inputs("sin", n=4096)
        return sweep_method(
            "sin", "llut_i", "density_log2", (6, 9, 12),
            placement="mram", inputs=inputs,
        )

    def test_point_per_param(self, points):
        assert [p.param for p in points] == [
            "density_log2=6", "density_log2=9", "density_log2=12"
        ]

    def test_rmse_decreases(self, points):
        rmses = [p.rmse for p in points]
        assert rmses[0] > rmses[1] > rmses[2]

    def test_cycles_flat_for_luts(self, points):
        cycles = [p.cycles_per_element for p in points]
        assert max(cycles) < 1.1 * min(cycles)

    def test_setup_grows(self, points):
        setups = [p.setup_seconds for p in points]
        assert setups[2] > setups[0]

    def test_memory_grows(self, points):
        assert points[2].table_bytes > 8 * points[0].table_bytes

    def test_wram_skips_oversized(self):
        inputs = default_inputs("sin", n=1024)
        points = sweep_method(
            "sin", "llut", "density_log2", (8, 18),
            placement="wram", inputs=inputs,
        )
        # density 2^18 over [0, 2pi) is ~1.6M entries: too big for WRAM.
        assert len(points) == 1
        assert points[0].table_bytes <= WRAM_TABLE_BUDGET

    def test_shared_cache_scores_each_calls_own_inputs(self):
        # Regression: the accuracy memo was keyed by name only, so a second
        # call sharing the cache scored the first call's values (0.991).
        cache = PlanCache()
        sweep = dict(function="sin", method="llut", param_name="density_log2",
                     param_values=(8,))
        sweep_method(inputs=default_inputs("sin", n=4096), plan_cache=cache,
                     **sweep)
        half = default_inputs("sin", n=4096, seed=2) / np.float32(2)
        shared = sweep_method(inputs=half, plan_cache=cache, **sweep)
        fresh = sweep_method(inputs=half, **sweep)
        assert shared[0].rmse == fresh[0].rmse < 1e-2

    def test_cordic_cycles_grow(self):
        inputs = default_inputs("sin", n=1024)
        points = sweep_method(
            "sin", "cordic", "iterations", (8, 16, 24), inputs=inputs,
        )
        cycles = [p.cycles_per_element for p in points]
        assert cycles[0] < cycles[1] < cycles[2]


class TestSweepConfigs:
    def test_all_figure5_methods_configured(self):
        # The paper's eight (fixed-point as L-LUT variants) plus the
        # polynomial baseline extension.
        assert set(SINE_SWEEPS) == {
            "cordic", "cordic_lut", "mlut", "mlut_i",
            "llut", "llut_i", "llut_fx", "llut_i_fx", "poly",
        }
