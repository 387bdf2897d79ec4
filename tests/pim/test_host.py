"""Tests for the host runtime (install-and-call API)."""

import numpy as np
import pytest

from repro import make_method
from repro.errors import ConfigurationError, MemoryLayoutError
from repro.pim.host import PIMRuntime


@pytest.fixture
def runtime():
    return PIMRuntime()


class TestInstall:
    def test_install_and_call(self, runtime, sine_inputs):
        sin = runtime.install(make_method("sin", "llut_i", density_log2=10))
        out = sin(sine_inputs)
        np.testing.assert_allclose(out, np.sin(sine_inputs), atol=1e-5)

    def test_setup_time_accounted(self, runtime):
        sin = runtime.install(make_method("sin", "llut_i", density_log2=12))
        assert sin.setup_seconds > 0
        assert runtime.total_setup_seconds == sin.setup_seconds

    def test_tables_occupy_core_memory(self, runtime):
        m = make_method("sin", "llut", density_log2=12)
        runtime.install(m)
        assert runtime.system.dpu.mram.used_bytes >= m.table_bytes()

    def test_wram_placement(self, runtime):
        m = make_method("sin", "llut", density_log2=10, placement="wram")
        runtime.install(m)
        assert runtime.system.dpu.wram.used_bytes > 0

    def test_wram_overflow_raises(self, runtime):
        big = make_method("sin", "llut", density_log2=16, placement="wram")
        with pytest.raises(MemoryLayoutError):
            runtime.install(big)
        # Refused before the build: nothing built, allocated or installed.
        assert not big._ready and big.entries == 0
        assert runtime.system.dpu.wram.used_bytes == 0
        assert runtime.functions == []

    def test_shared_memory_across_functions(self, runtime):
        runtime.install(make_method("sin", "llut", density_log2=12))
        used_after_one = runtime.system.dpu.mram.used_bytes
        runtime.install(make_method("exp", "llut", density_log2=12))
        assert runtime.system.dpu.mram.used_bytes > used_after_one

    def test_duplicate_install_rejected(self, runtime):
        runtime.install(make_method("sin", "llut_i", density_log2=10))
        with pytest.raises(ConfigurationError, match="already installed"):
            runtime.install(make_method("sin", "llut_i", density_log2=12))

    def test_rejected_duplicate_leaves_no_trace(self, runtime):
        """The name check must run before any core memory is touched.

        A rejected install used to allocate the duplicate's tables in every
        core (and bump the memory gauges) before raising.
        """
        from repro.obs.metrics import collecting

        runtime.install(make_method("sin", "llut_i", density_log2=10))
        used_before = runtime.system.dpu.mram.used_bytes
        setup_before = runtime.total_setup_seconds
        dup = make_method("sin", "llut_i", density_log2=12)
        with collecting() as reg:
            with pytest.raises(ConfigurationError, match="already installed"):
                runtime.install(dup)
        assert runtime.system.dpu.mram.used_bytes == used_before
        assert runtime.total_setup_seconds == setup_before
        assert reg.value("memory.mram_bytes") == 0
        assert not dup._ready  # tables were never built


class TestLookupAndRun:
    def test_getitem(self, runtime):
        runtime.install(make_method("sin", "llut_i", density_log2=10))
        assert runtime["llut_i:sin"].name == "llut_i:sin"

    def test_missing_function(self, runtime):
        with pytest.raises(ConfigurationError, match="not installed"):
            runtime["llut_i:tanh"]

    def test_functions_listing(self, runtime):
        runtime.install(make_method("sin", "llut_i", density_log2=10))
        runtime.install(make_method("cos", "llut_i", density_log2=10))
        assert runtime.functions == ["llut_i:cos", "llut_i:sin"]

    def test_run_returns_system_timing(self, runtime, sine_inputs):
        sin = runtime.install(make_method("sin", "llut_i", density_log2=10))
        res = sin.run(sine_inputs, virtual_n=1_000_000)
        assert res.total_seconds > 0
        assert res.n_elements == 1_000_000

    def test_memory_report(self, runtime):
        runtime.install(make_method("sin", "llut_i", density_log2=10))
        report = runtime.memory_report()
        assert "MRAM" in report and "llut_i:sin" in report
