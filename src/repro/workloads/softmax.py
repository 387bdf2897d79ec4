"""Softmax workload on the simulated PIM system (Section 4.1.2).

``softmax(x)_i = e^{x_i} / sum_k e^{x_k}`` over a 30M-element vector, in the
numerically-stable three-phase form:

1. global max — each PIM core scans its slice, the host reduces the 2545
   partial maxima (PIM cores cannot talk to each other; inter-core
   communication goes through the host, Section 2.1);
2. ``e_i = exp(x_i - max)`` with per-core partial sums, host-reduced;
3. scale by the host-broadcast reciprocal (one multiply per element — the
   host does the single divide, so no per-element float divide is paid).

The exp uses the same variants as Sigmoid: polynomial baseline, interpolated
M-LUT / L-LUT (full range extension), and a ``direct_llut_i`` extension that
tabulates exp over [-16, 0] directly (arguments are bounded after the max
subtraction; inputs below -16 clamp to e^-16 ~ 1.1e-7, which underflows the
final float32 softmax anyway).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api import make_method
from repro.errors import ConfigurationError
from repro.isa.counter import CycleCounter
from repro.isa.opcosts import OpCosts, UPMEM_COSTS
from repro.obs.tracer import span as _span
from repro.pim.system import PIMSystem, SystemRunResult
from repro.workloads import polynomial as poly

__all__ = ["VARIANTS", "generate_inputs", "reference_softmax", "Softmax",
           "SoftmaxRunResult"]

_F32 = np.float32

VARIANTS = ("poly", "mlut_i", "llut_i", "direct_llut_i")

_DIRECT_IV = (-16.0, 1e-4)


def generate_inputs(n: int, seed: int = 2023, spread: float = 4.0) -> np.ndarray:
    """Logit-like inputs (zero-centered normal)."""
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, spread, n).astype(_F32)


def reference_softmax(x: np.ndarray) -> np.ndarray:
    """Float64 ground truth (stable form)."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(x - x.max())
    return e / e.sum()


@dataclass
class SoftmaxRunResult:
    """Timing of the three softmax phases plus host coordination."""

    max_phase: SystemRunResult
    exp_phase: SystemRunResult
    scale_phase: SystemRunResult
    host_reduce_seconds: float

    @property
    def total_seconds(self) -> float:
        return (
            self.max_phase.total_seconds
            + self.exp_phase.total_seconds
            + self.scale_phase.total_seconds
            + self.host_reduce_seconds
        )

    @property
    def compute_only_seconds(self) -> float:
        return (
            self.max_phase.compute_only_seconds
            + self.exp_phase.compute_only_seconds
            + self.scale_phase.compute_only_seconds
            + self.host_reduce_seconds
        )


class Softmax:
    """One PIM variant of the Softmax workload."""

    def __init__(self, variant: str = "llut_i", costs: OpCosts = UPMEM_COSTS):
        if variant not in VARIANTS:
            raise ConfigurationError(
                f"unknown Softmax variant {variant!r}; options: {VARIANTS}"
            )
        self.variant = variant
        self.costs = costs
        self._method = None
        self._ready = False

    def setup(self) -> "Softmax":
        """Host-side: build the chosen variant's table."""
        if self.variant == "mlut_i":
            self._method = make_method(
                "exp", "mlut_i", size=(1 << 14) + 1,
                assume_in_range=False, costs=self.costs,
            ).setup()
        elif self.variant == "llut_i":
            self._method = make_method(
                "exp", "llut_i", density_log2=14,
                assume_in_range=False, costs=self.costs,
            ).setup()
        elif self.variant == "direct_llut_i":
            self._method = make_method(
                "exp", "llut_i", density_log2=14, interval=_DIRECT_IV,
                assume_in_range=True, costs=self.costs,
            ).setup()
        self._ready = True
        return self

    def table_bytes(self) -> int:
        """PIM memory consumed by the variant's table (0 for poly)."""
        return self._method.table_bytes() if self._method is not None else 0

    def _require_ready(self) -> None:
        if not self._ready:
            raise ConfigurationError("call setup() before running Softmax")

    # ------------------------------------------------------------------
    # traced per-element kernels (one per phase)

    def kernel_max(self, ctx: CycleCounter, x) -> np.float32:
        """Phase 1: running-max scan (compare + conditional move)."""
        ctx.fcmp(_F32(x), _F32(0.0))
        ctx.branch()
        return _F32(x)

    def _exp(self, ctx: CycleCounter, u) -> np.float32:
        if self.variant == "poly":
            return poly.poly_exp(ctx, u)
        return self._method.evaluate(ctx, u)

    def kernel_exp_sum(self, ctx: CycleCounter, x, gmax: float = 0.0) -> np.float32:
        """Phase 2: e = exp(x - max), accumulated into a running sum."""
        self._require_ready()
        d = ctx.fsub(_F32(x), _F32(gmax))
        e = self._exp(ctx, d)
        ctx.fadd(e, _F32(0.0))  # the partial-sum accumulate
        return e

    def kernel_scale(self, ctx: CycleCounter, e, inv_sum: float = 1.0) -> np.float32:
        """Phase 3: multiply by the host-broadcast reciprocal."""
        return ctx.fmul(_F32(e), _F32(inv_sum))

    # ------------------------------------------------------------------
    # vectorized accuracy twin

    def values(self, x: np.ndarray) -> np.ndarray:
        """Vectorized float32 softmax over the whole vector."""
        self._require_ready()
        x = np.asarray(x, dtype=_F32)
        gmax = x.max()
        d = (x - gmax).astype(_F32)
        if self.variant == "poly":
            e = poly.poly_exp_vec(d)
        else:
            e = self._method.evaluate_vec(d)
        # Per-core float32 partial sums, host-reduced in double (as on the
        # real system); a single full-precision sum is an adequate stand-in.
        total = float(e.astype(np.float64).sum())
        inv = _F32(1.0 / total)
        return (e * inv).astype(_F32)

    # ------------------------------------------------------------------

    def run(
        self,
        x: np.ndarray,
        system: PIMSystem,
        tasklets: int = 16,
        sample_size: int = 64,
        virtual_n: int = None,
        shards: int = 1,
        overlap: bool = False,
    ) -> SoftmaxRunResult:
        """Simulate the three-phase whole-system run (``virtual_n`` sizes it up).

        ``shards > 1`` dispatches each phase across disjoint DPU groups
        (optionally ``overlap``-ped between a phase's shards; phases still
        barrier on the host reduction between them).
        """
        self._require_ready()
        x = np.asarray(x, dtype=_F32)
        gmax = float(x.max())

        def _launch(kernel, sample_size_, bytes_out, include_transfers=True):
            return system.run(
                kernel, x, tasklets=tasklets, sample_size=sample_size_,
                bytes_in_per_element=4, bytes_out_per_element=bytes_out,
                include_transfers=include_transfers,
                virtual_n=virtual_n, shards=shards, overlap=overlap,
            )

        with _span("workload.softmax", variant=self.variant) as sp:
            with _span("phase.max"):
                r_max = _launch(self.kernel_max, 8, 0)
            with _span("phase.exp_sum"):
                r_exp = _launch(
                    lambda ctx, v: self.kernel_exp_sum(ctx, v, gmax),
                    sample_size, 4,
                    include_transfers=False,  # operands resident after phase 1
                )
            with _span("phase.scale"):
                r_scale = _launch(self.kernel_scale, 8, 4)
            # Host reduces 2545 partial maxima and sums: negligible compute,
            # one small gather each — model as two launch overheads.
            with _span("reduce") as red_sp:
                host_reduce = 2.0 * system.config.launch_overhead_s
                red_sp.set(sim_seconds=host_reduce)
            result = SoftmaxRunResult(
                max_phase=r_max,
                exp_phase=r_exp,
                scale_phase=r_scale,
                host_reduce_seconds=host_reduce,
            )
            sp.set(sim_seconds=result.total_seconds)
        return result
