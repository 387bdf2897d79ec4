"""Tests for the Method base class contract."""

import numpy as np
import pytest

from repro.api import make_method
from repro.core.functions.support import METHOD_SUPPORT
from repro.errors import ConfigurationError, MemoryLayoutError, SimulationError
from repro.isa.counter import CycleCounter
from repro.isa.opcosts import IDEALIZED_COSTS
from repro.pim.memory import MemoryRegion


class TestLifecycle:
    def test_evaluate_before_setup_raises(self):
        m = make_method("sin", "llut", density_log2=8)
        with pytest.raises(SimulationError, match="setup"):
            m.evaluate(CycleCounter(), 1.0)

    def test_evaluate_vec_before_setup_raises(self):
        m = make_method("sin", "llut", density_log2=8)
        with pytest.raises(SimulationError):
            m.evaluate_vec(np.array([1.0], dtype=np.float32))

    def test_setup_returns_self(self):
        m = make_method("sin", "llut", density_log2=8)
        assert m.setup() is m

    def test_call_sets_up_lazily(self):
        m = make_method("sin", "llut_i", density_log2=10)
        out = m(np.array([1.0], dtype=np.float32))
        assert out.shape == (1,)

    def test_setup_into_memory_region(self):
        m = make_method("sin", "llut", density_log2=8)
        region = MemoryRegion("WRAM", 64 * 1024)
        m.setup(region)
        assert region.used_bytes >= m.table_bytes()

    def test_setup_into_too_small_region(self):
        m = make_method("sin", "llut", density_log2=14)
        region = MemoryRegion("WRAM", 1024)
        with pytest.raises(Exception):
            m.setup(region)

    def test_oversized_table_refused_before_build(self, monkeypatch):
        m = make_method("sin", "llut", density_log2=16, placement="wram")
        builds = []
        build = m._build
        monkeypatch.setattr(m, "_build", lambda: builds.append(1) or build())
        region = MemoryRegion("WRAM", 64 * 1024)
        with pytest.raises(MemoryLayoutError) as refused:
            m.setup(region)
        with pytest.raises(MemoryLayoutError) as allocate:
            MemoryRegion("WRAM", 64 * 1024).allocate(
                m.planned_table_bytes(), "llut:sin")
        assert str(refused.value) == str(allocate.value)
        assert builds == [] and not m._ready and m._table.size == 0
        assert region.used_bytes == 0


def test_planned_table_bytes_is_unknown_or_exact():
    """Before setup, every config's planned bytes are ``None`` (known only
    once built) or exactly its built ``table_bytes()``."""
    known = unknown = 0
    for method, functions in sorted(METHOD_SUPPORT.items()):
        for fn in sorted(functions):
            for in_range in (True, False):
                m = make_method(fn, method, assume_in_range=in_range)
                planned = m.planned_table_bytes()
                m.setup()
                if planned is None:
                    unknown += 1
                else:
                    assert planned == m.table_bytes(), (fn, method, in_range)
                    known += 1
    # Only the segmented L-LUT (44) and the hyperbolic CORDIC-LUT hybrids
    # (8) size their tables while building; every other install is refused
    # before its build when it cannot fit.
    assert (known, unknown) == (478, 52)


class TestOptions:
    def test_invalid_placement(self):
        with pytest.raises(ConfigurationError, match="placement"):
            make_method("sin", "llut", density_log2=8, placement="cache")

    def test_mram_placement_charges_dma(self):
        m = make_method("sin", "llut", density_log2=8,
                        placement="mram").setup()
        tally = m.element_tally(1.0)
        assert tally.dma_transactions >= 1

    def test_wram_placement_no_dma_for_lut(self):
        m = make_method("sin", "llut", density_log2=8,
                        placement="wram").setup()
        tally = m.element_tally(1.0)
        assert tally.dma_transactions == 0

    def test_costs_threaded_through(self):
        m = make_method("sin", "llut_i", density_log2=8,
                        costs=IDEALIZED_COSTS).setup()
        assert m.element_tally(1.0).slots < 30

    def test_describe_mentions_key_facts(self):
        m = make_method("sin", "llut_i_fx", density_log2=8).setup()
        text = m.describe()
        assert "llut_i_fx" in text
        assert "sin" in text
        assert "fixed-point" in text


class TestMeasurementHelpers:
    def test_mean_slots_averages(self, sine_inputs):
        m = make_method("sin", "llut", density_log2=8).setup()
        slots = m.mean_slots(sine_inputs[:16])
        single = m.element_tally(float(sine_inputs[0])).slots
        assert slots == pytest.approx(single, rel=0.2)

    def test_mean_slots_empty_raises(self):
        m = make_method("sin", "llut", density_log2=8).setup()
        with pytest.raises(ConfigurationError):
            m.mean_slots(np.array([], dtype=np.float32))
