"""Sigmoid activation workload on the simulated PIM system (Section 4.1.2).

Computes ``S(x) = 1 / (1 + e^-x)`` element-wise over a 30M-element vector.
As in the paper, the TransPimLib variants accelerate the ``exp`` inside the
sigmoid with interpolated M-LUT / L-LUT methods (full exp_split range
extension included); the PIM baseline uses the polynomial exp.  A
``direct_llut_i`` extension variant tabulates the sigmoid itself — one lookup
and no float divide — to show the headroom of function-level tabulation.
"""

from __future__ import annotations


import numpy as np

from repro.api import make_method
from repro.errors import ConfigurationError
from repro.isa.counter import CycleCounter
from repro.isa.opcosts import OpCosts, UPMEM_COSTS
from repro.pim.system import PIMSystem, SystemRunResult
from repro.workloads import polynomial as poly

__all__ = ["VARIANTS", "generate_inputs", "reference_sigmoid", "Sigmoid"]

_F32 = np.float32

VARIANTS = ("poly", "mlut_i", "llut_i", "direct_llut_i")


def generate_inputs(n: int, seed: int = 2023, spread: float = 8.0) -> np.ndarray:
    """Neural-net-like pre-activations: zero-centered, a few sigmas wide."""
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, spread / 3.0, n).astype(_F32)


def reference_sigmoid(x: np.ndarray) -> np.ndarray:
    """Float64 ground truth."""
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))


class Sigmoid:
    """One PIM variant of the Sigmoid workload."""

    def __init__(self, variant: str = "llut_i", costs: OpCosts = UPMEM_COSTS):
        if variant not in VARIANTS:
            raise ConfigurationError(
                f"unknown Sigmoid variant {variant!r}; options: {VARIANTS}"
            )
        self.variant = variant
        self.costs = costs
        self._method = None
        self._ready = False

    def setup(self) -> "Sigmoid":
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
                "sigmoid", "llut_i", density_log2=12,
                assume_in_range=False, costs=self.costs,
            ).setup()
        self._ready = True
        return self

    def table_bytes(self) -> int:
        """PIM memory consumed by the variant's table (0 for poly)."""
        return self._method.table_bytes() if self._method is not None else 0

    def _require_ready(self) -> None:
        if not self._ready:
            raise ConfigurationError("call setup() before running Sigmoid")

    # ------------------------------------------------------------------

    def kernel(self, ctx: CycleCounter, x) -> np.float32:
        """Traced per-element sigmoid."""
        self._require_ready()
        x = _F32(x)
        if self.variant == "poly":
            return poly.poly_sigmoid(ctx, x)
        if self.variant == "direct_llut_i":
            return self._method.evaluate(ctx, x)
        ex = self._method.evaluate(ctx, ctx.fneg(x))
        den = ctx.fadd(ex, _F32(1.0))
        return ctx.fdiv(_F32(1.0), den)

    def values(self, x: np.ndarray) -> np.ndarray:
        """Vectorized float32 twin."""
        self._require_ready()
        x = np.asarray(x, dtype=_F32)
        if self.variant == "poly":
            return poly.poly_sigmoid_vec(x)
        if self.variant == "direct_llut_i":
            return self._method.evaluate_vec(x)
        ex = self._method.evaluate_vec((-x).astype(_F32))
        den = (ex + _F32(1.0)).astype(_F32)
        return (_F32(1.0) / den).astype(_F32)

    def run(
        self,
        x: np.ndarray,
        system: PIMSystem,
        tasklets: int = 16,
        sample_size: int = 64,
        virtual_n: int = None,
        shards: int = 1,
        overlap: bool = False,
    ) -> SystemRunResult:
        """Simulate the whole-system run (``virtual_n`` sizes it up).

        ``shards > 1`` dispatches across disjoint DPU groups (optionally
        ``overlap``-ped) and returns a
        :class:`~repro.plan.dispatch.ShardedRunResult`.
        """
        self._require_ready()
        if shards > 1:
            return system.run_sharded(
                self.kernel, x, shards=shards, overlap=overlap,
                tasklets=tasklets, sample_size=sample_size,
                virtual_n=virtual_n,
            )
        return system.run(
            self.kernel,
            x,
            tasklets=tasklets,
            sample_size=sample_size,
            bytes_in_per_element=4,
            bytes_out_per_element=4,
            virtual_n=virtual_n,
        )
