"""A simulated PIM core (UPMEM DPU): memories, pipeline, and kernel runs.

A kernel here is a per-element traced function ``kernel(ctx, x) -> y`` written
against the :class:`~repro.isa.CycleCounter` ISA.  Running a kernel over an
input array traces a representative sample of elements to obtain the average
per-element instruction tally, extrapolates to the full element count, adds
the streaming costs of moving operands between the DRAM bank and the
scratchpad, and converts to cycles through the multithreaded pipeline model.

This mirrors the paper's microbenchmark loop (Section 4.1.1): the PIM core
moves chunks of the input array from MRAM into WRAM and operates on each
element, while a hardware counter accumulates cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.isa.counter import CycleCounter, Tally
from repro.isa.opcosts import OpCosts, UPMEM_COSTS
from repro.obs import metrics as _metrics
from repro.obs.tracer import span as _span
from repro.pim.config import DPUConfig, UPMEM_DPU
from repro.pim.memory import MemoryRegion
from repro.pim.pipeline import PipelineModel

__all__ = ["DPU", "KernelResult", "STREAM_CHUNK_ELEMS", "LOOP_SLOTS_PER_ELEMENT",
           "trace_sample"]

#: Elements moved per MRAM<->WRAM streaming chunk in the benchmark loop.
STREAM_CHUNK_ELEMS = 256

#: Loop bookkeeping per element: WRAM operand load/store, pointer updates,
#: loop compare-and-branch.  Charged identically to every method, so it
#: shifts all curves by a constant without changing their ordering.
LOOP_SLOTS_PER_ELEMENT = 8

Kernel = Callable[[CycleCounter, np.float32], object]


def trace_sample(inputs: np.ndarray, sample_size: int,
                 rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """The rows of ``inputs`` a launch traces.

    Every row when there are at most ``sample_size``; otherwise
    ``sample_size`` distinct rows drawn with ``rng`` (a fixed seed when
    ``None``), kept in input order.  A sample passed back in comes out
    unchanged, so a launch over a pre-drawn sample traces the same rows.
    """
    available = int(inputs.shape[0])
    if available <= sample_size:
        return inputs
    generator = rng or np.random.default_rng(0x7A57)
    idx = generator.choice(available, size=sample_size, replace=False)
    return inputs[np.sort(idx)]


@dataclass
class KernelResult:
    """Outcome of simulating a kernel over an input array on one PIM core."""

    n_elements: int
    tasklets: int
    per_element_tally: Tally
    total_tally: Tally
    cycles: float
    seconds: float
    sample_outputs: np.ndarray

    @property
    def cycles_per_element(self) -> float:
        if self.n_elements == 0:
            return 0.0
        return self.cycles / self.n_elements


class DPU:
    """One simulated PIM core with its WRAM, MRAM, and pipeline."""

    def __init__(
        self,
        config: DPUConfig = UPMEM_DPU,
        costs: OpCosts = UPMEM_COSTS,
    ):
        self.config = config
        self.costs = costs
        self.wram = MemoryRegion("WRAM", config.wram_bytes)
        self.mram = MemoryRegion("MRAM", config.mram_bytes)
        self.pipeline = PipelineModel(config)

    def reset_memory(self) -> None:
        """Release all tables and buffers in both memories."""
        self.wram.reset()
        self.mram.reset()

    # ------------------------------------------------------------------

    def _streaming_tally(self, n_elements: int, bytes_in: int, bytes_out: int) -> Tally:
        """Cost of moving operands MRAM<->WRAM in chunks plus loop overhead."""
        tally = Tally()
        tally.slots = n_elements * LOOP_SLOTS_PER_ELEMENT
        n_chunks = max(1, -(-n_elements // STREAM_CHUNK_ELEMS))
        transfers = 0
        if bytes_in:
            transfers += 1
        if bytes_out:
            transfers += 1
        tally.slots += n_chunks * transfers * self.costs.mram_dma_setup
        total_bytes = n_elements * (bytes_in + bytes_out)
        tally.dma_transactions = n_chunks * transfers
        tally.dma_bytes = total_bytes
        tally.dma_latency = ((total_bytes + 7) // 8) * self.costs.mram_dma_per_8b
        return tally

    def trace_element(self, kernel: Kernel, x: float) -> "tuple[object, Tally]":
        """Run ``kernel`` on a single element and return (output, tally)."""
        ctx = CycleCounter(self.costs)
        y = kernel(ctx, np.float32(x))
        return y, ctx.reset()

    @staticmethod
    def _batchable_method(kernel: Kernel):
        """The Method behind ``kernel`` if it is a plain bound ``evaluate``."""
        from repro.core.method import Method

        owner = getattr(kernel, "__self__", None)
        if isinstance(owner, Method) and \
                getattr(kernel, "__func__", None) is Method.evaluate:
            return owner
        return None

    def run_kernel(
        self,
        kernel: Kernel,
        inputs: Sequence[float],
        tasklets: int = 16,
        sample_size: int = 64,
        bytes_in_per_element: int = 4,
        bytes_out_per_element: int = 4,
        rng: Optional[np.random.Generator] = None,
        virtual_n: Optional[int] = None,
        tally_cache: Optional[dict] = None,
        evaluator=None,
    ) -> KernelResult:
        """Simulate running ``kernel`` over ``inputs`` with ``tasklets`` threads.

        A sample of elements (:func:`trace_sample`: all of them when the
        array is small) is traced to measure the average per-element
        instruction tally; the total is an extrapolation plus the
        streaming costs.  Sampling is sound because
        TransPimLib kernels are data-oblivious up to branch direction, and the
        sample preserves the input distribution.

        When ``kernel`` is a :class:`~repro.core.method.Method`'s
        ``evaluate``, one keyed array pass of the method
        (:class:`~repro.batch.vec.VecEvaluator`: ``evaluator`` when given,
        a throwaway one otherwise) produces the sample outputs and the cost
        aggregate with one scalar trace per distinct cost path —
        bit-identical to tracing every sampled element (the differential
        harnesses in ``tests/batch/`` enforce this).  ``tally_cache`` (path
        key -> Tally) carries those traces across launches.  Where the
        evaluator abstains, and for every other kernel, each sampled
        element is traced in a scalar loop.

        ``virtual_n`` treats ``inputs`` as a sample standing in for a larger
        array of that many elements drawn from the same distribution —
        tracing cost is bounded while timing reflects the full size.
        """
        inputs = np.asarray(inputs, dtype=np.float32)
        # 1-D arrays are streams of scalars; 2-D arrays are streams of
        # records (e.g. Blackscholes option tuples), one row per element.
        n = int(virtual_n if virtual_n is not None else inputs.shape[0])
        if n == 0 or inputs.shape[0] == 0:
            raise SimulationError("cannot run a kernel over an empty input array")

        sample = trace_sample(inputs, sample_size, rng)
        method = self._batchable_method(kernel)
        with _span("dpu.trace", sample_size=len(sample),
                   batched=method is not None) as trace_sp:
            fused = None
            if method is not None:
                from repro.batch.vec import VecEvaluator

                if evaluator is None or evaluator.method is not method:
                    evaluator = VecEvaluator(method)
                fused = evaluator.run(sample, tally_cache=tally_cache)
                if fused is None:
                    _metrics.inc("batch.vec.fallbacks")
            if fused is not None:
                sample_tally = fused.batch.tally
                outputs = fused.values
                trace_sp.set(n_cost_paths=len(fused.batch.paths), vec=True)
            else:
                sample_tally = Tally()
                outputs = []
                for x in sample:
                    y, tally = self.trace_element(kernel, x)
                    sample_tally.add(tally)
                    outputs.append(y)

        per_element = sample_tally.scaled(1.0 / len(sample))
        total = per_element.scaled(float(n))
        total.add(self._streaming_tally(n, bytes_in_per_element, bytes_out_per_element))

        estimate = self.pipeline.estimate(total, tasklets)
        cycles = estimate.total_cycles
        seconds = self.config.cycles_to_seconds(cycles)
        hidden = estimate.dma_hidden_fraction
        if hidden is not None:
            _metrics.observe("dpu.dma_hidden_fraction", hidden)
        _metrics.inc("dpu.kernel_runs")
        _metrics.inc("dpu.dma_bytes", total.dma_bytes)
        return KernelResult(
            n_elements=n,
            tasklets=tasklets,
            per_element_tally=per_element,
            total_tally=total,
            cycles=cycles,
            seconds=seconds,
            sample_outputs=np.asarray(outputs, dtype=np.float32),
        )

    def run_kernel_exact(
        self,
        kernel: Kernel,
        inputs: Sequence[float],
        tasklets: int = 16,
        max_units: int = 5_000_000,
    ) -> KernelResult:
        """Cycle-accurate kernel run: every element traced, instruction-level
        simulation instead of the analytic pipeline model.

        Ground truth for :meth:`run_kernel` (DESIGN.md's pipeline-model
        substitution), at simulation cost linear in total instruction slots —
        use for small arrays.  Elements are dealt round-robin to tasklets,
        as the SPMD benchmark loop does.
        """
        from repro.isa.counter import CycleCounter as _Counter
        from repro.pim.exec import simulate, trace_to_program

        inputs = np.asarray(inputs, dtype=np.float32)
        n = int(inputs.shape[0])
        if n == 0:
            raise SimulationError("cannot run a kernel over an empty input array")

        tasklets = min(tasklets, n)
        programs = [[] for _ in range(tasklets)]
        total = Tally()
        outputs = []
        for i, x in enumerate(inputs):
            trace = []
            ctx = _Counter(self.costs, trace_ops=trace)
            outputs.append(kernel(ctx, x))
            total.add(ctx.reset())
            programs[i % tasklets].extend(trace_to_program(trace))

        units = sum(instr.slots for prog in programs for instr in prog)
        if units > max_units:
            raise SimulationError(
                f"cycle-accurate run of {units} instruction slots exceeds "
                f"max_units={max_units}; use run_kernel() for large arrays"
            )
        sim = simulate(programs, self.config)
        per_element = total.scaled(1.0 / n)
        return KernelResult(
            n_elements=n,
            tasklets=tasklets,
            per_element_tally=per_element,
            total_tally=total,
            cycles=float(sim.cycles),
            seconds=self.config.cycles_to_seconds(sim.cycles),
            sample_outputs=np.asarray(outputs, dtype=np.float32),
        )
