"""Tests for the single-PIM-core kernel runner."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.isa.opcosts import UPMEM_COSTS
from repro.pim.dpu import DPU, LOOP_SLOTS_PER_ELEMENT, trace_sample


def square_kernel(ctx, x):
    return ctx.fmul(x, x)


class TestRunKernel:
    def test_full_trace_when_small(self, rng):
        dpu = DPU()
        xs = rng.uniform(0, 1, 16).astype(np.float32)
        res = dpu.run_kernel(square_kernel, xs, sample_size=64)
        assert res.n_elements == 16
        np.testing.assert_array_equal(res.sample_outputs, (xs * xs).astype(np.float32))

    def test_per_element_slots(self, rng):
        dpu = DPU()
        xs = rng.uniform(0, 1, 8).astype(np.float32)
        res = dpu.run_kernel(square_kernel, xs)
        assert res.per_element_tally.slots == UPMEM_COSTS.fp_mul

    def test_extrapolation_linear_in_n(self, rng):
        dpu = DPU()
        xs_small = rng.uniform(0, 1, 1000).astype(np.float32)
        xs_big = np.tile(xs_small, 10)
        r_small = dpu.run_kernel(square_kernel, xs_small, sample_size=32)
        r_big = dpu.run_kernel(square_kernel, xs_big, sample_size=32)
        # Same distribution => cycles scale ~linearly with n.
        ratio = r_big.cycles / r_small.cycles
        assert ratio == pytest.approx(10.0, rel=0.1)

    def test_streaming_includes_loop_overhead(self, rng):
        dpu = DPU()
        xs = rng.uniform(0, 1, 100).astype(np.float32)
        res = dpu.run_kernel(square_kernel, xs, tasklets=16)
        assert res.total_tally.slots >= 100 * (
            UPMEM_COSTS.fp_mul + LOOP_SLOTS_PER_ELEMENT
        )

    def test_dma_bytes_accounted(self, rng):
        dpu = DPU()
        xs = rng.uniform(0, 1, 100).astype(np.float32)
        res = dpu.run_kernel(square_kernel, xs)
        assert res.total_tally.dma_bytes == 100 * 8  # 4 in + 4 out

    def test_empty_input_raises(self):
        dpu = DPU()
        with pytest.raises(SimulationError):
            dpu.run_kernel(square_kernel, np.array([], dtype=np.float32))

    def test_more_tasklets_not_slower(self, rng):
        dpu = DPU()
        xs = rng.uniform(0, 1, 512).astype(np.float32)
        c1 = dpu.run_kernel(square_kernel, xs, tasklets=1).cycles
        c16 = dpu.run_kernel(square_kernel, xs, tasklets=16).cycles
        assert c16 < c1

    def test_record_inputs(self, rng):
        dpu = DPU()
        recs = rng.uniform(0, 1, (50, 3)).astype(np.float32)

        def sum3(ctx, rec):
            return ctx.fadd(ctx.fadd(rec[0], rec[1]), rec[2])

        res = dpu.run_kernel(sum3, recs, bytes_in_per_element=12)
        assert res.n_elements == 50
        assert res.per_element_tally.slots == 2 * UPMEM_COSTS.fp_add

    def test_seconds_at_frequency(self, rng):
        dpu = DPU()
        xs = rng.uniform(0, 1, 64).astype(np.float32)
        res = dpu.run_kernel(square_kernel, xs)
        assert res.seconds == pytest.approx(res.cycles / 350e6)

    def test_cycles_per_element(self, rng):
        dpu = DPU()
        xs = rng.uniform(0, 1, 64).astype(np.float32)
        res = dpu.run_kernel(square_kernel, xs)
        assert res.cycles_per_element == pytest.approx(res.cycles / 64)


class TestTraceSample:
    def test_small_arrays_trace_every_row(self, rng):
        xs = rng.uniform(0, 1, 64).astype(np.float32)
        assert trace_sample(xs, 64) is xs

    def test_draw_is_sorted_distinct_and_seeded(self):
        xs = np.arange(1000, dtype=np.float32)
        a = trace_sample(xs, 32)
        assert a.shape == (32,)
        assert np.all(np.diff(a) > 0)  # distinct rows, in input order
        np.testing.assert_array_equal(a, trace_sample(xs, 32))
        b = trace_sample(xs, 32, np.random.default_rng(3))
        np.testing.assert_array_equal(
            b, trace_sample(xs, 32, np.random.default_rng(3)))

    def test_run_over_drawn_sample_is_bit_identical(self, rng):
        """A launch over a pre-drawn sample sized with ``virtual_n`` equals
        the launch over the whole array: the split sharded launches use."""
        dpu = DPU()
        xs = rng.uniform(0, 1, 5000).astype(np.float32)
        whole = dpu.run_kernel(square_kernel, xs, sample_size=48,
                               rng=np.random.default_rng(8))
        sample = trace_sample(xs, 48, np.random.default_rng(8))
        part = dpu.run_kernel(square_kernel, sample, sample_size=48,
                              virtual_n=len(xs))
        assert part.cycles == whole.cycles
        assert part.total_tally == whole.total_tally
        np.testing.assert_array_equal(part.sample_outputs,
                                      whole.sample_outputs)


class TestMemories:
    def test_dpu_has_configured_memories(self):
        dpu = DPU()
        assert dpu.wram.capacity_bytes == 64 * 1024
        assert dpu.mram.capacity_bytes == 64 * 1024 * 1024

    def test_reset_memory(self):
        dpu = DPU()
        dpu.wram.allocate(1024, "t")
        dpu.reset_memory()
        assert dpu.wram.used_bytes == 0


class TestExactEngine:
    def test_outputs_all_elements(self, rng):
        dpu = DPU()
        xs = rng.uniform(0, 1, 40).astype(np.float32)
        res = dpu.run_kernel_exact(square_kernel, xs, tasklets=4)
        np.testing.assert_array_equal(
            res.sample_outputs, (xs * xs).astype(np.float32))

    def test_agrees_with_analytic_model(self, rng):
        from repro.api import make_method
        dpu = DPU()
        m = make_method("sin", "llut_i", density_log2=10).setup()
        xs = rng.uniform(0, 6.28, 64).astype(np.float32)
        exact = dpu.run_kernel_exact(m.evaluate, xs, tasklets=16)
        analytic = dpu.run_kernel(m.evaluate, xs, tasklets=16,
                                  sample_size=64)
        # The analytic run also charges streaming overhead; compare the
        # compute component only, within the validated tolerance.
        compute_model = analytic.total_tally.slots - \
            64 * 8  # LOOP_SLOTS_PER_ELEMENT
        assert exact.cycles == pytest.approx(compute_model, rel=0.2)

    def test_saturation_speedup(self, rng):
        dpu = DPU()
        xs = rng.uniform(0, 1, 44).astype(np.float32)
        c1 = dpu.run_kernel_exact(square_kernel, xs, tasklets=1).cycles
        c11 = dpu.run_kernel_exact(square_kernel, xs, tasklets=11).cycles
        assert c11 < c1 / 5

    def test_unit_budget_enforced(self, rng):
        dpu = DPU()
        xs = rng.uniform(0, 1, 64).astype(np.float32)
        with pytest.raises(SimulationError, match="max_units"):
            dpu.run_kernel_exact(square_kernel, xs, max_units=10)
