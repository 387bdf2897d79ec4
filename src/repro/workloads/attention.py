"""Row-wise attention-score softmax on PIM (extension workload).

Transformer attention applies softmax per *row* of a scores matrix.  Unlike
the paper's single 30M-element softmax — whose global max and sum force two
host round trips (PIM cores cannot talk to each other) — attention rows are
small enough to live inside one core's scratchpad, so the entire
max/exp/sum/scale sequence runs core-locally with **zero inter-core
communication**.  This workload quantifies that structural advantage: the
same element count costs one kernel launch instead of three phases plus two
host reductions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.api import make_method
from repro.errors import ConfigurationError
from repro.isa.counter import CycleCounter
from repro.isa.opcosts import OpCosts, UPMEM_COSTS
from repro.pim.system import PIMSystem, SystemRunResult
from repro.workloads import polynomial as poly

__all__ = ["VARIANTS", "AttentionSoftmax", "generate_scores",
           "reference_row_softmax"]

_F32 = np.float32

VARIANTS = ("poly", "llut_i", "direct_llut_i")

_DIRECT_IV = (-16.0, 1e-4)


def generate_scores(n_rows: int, row_len: int = 64,
                    seed: int = 2023) -> np.ndarray:
    """Attention-score-like rows: scaled dot products, zero-centered."""
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 2.0, (n_rows, row_len)).astype(_F32)


def reference_row_softmax(scores: np.ndarray) -> np.ndarray:
    """Float64 ground-truth row-wise softmax."""
    x = np.asarray(scores, dtype=np.float64)
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


@dataclass
class AttentionRunResult:
    """One-launch timing (contrast with the three-phase global softmax)."""

    run: SystemRunResult

    @property
    def total_seconds(self) -> float:
        return self.run.total_seconds

    @property
    def compute_only_seconds(self) -> float:
        return self.run.compute_only_seconds


class AttentionSoftmax:
    """Row-wise softmax with a configurable exp backend."""

    def __init__(self, variant: str = "llut_i", row_len: int = 64,
                 costs: OpCosts = UPMEM_COSTS):
        if variant not in VARIANTS:
            raise ConfigurationError(
                f"unknown AttentionSoftmax variant {variant!r}; "
                f"options: {VARIANTS}"
            )
        if row_len < 2:
            raise ConfigurationError("attention rows need at least 2 scores")
        self.variant = variant
        self.row_len = row_len
        self.costs = costs
        self._method = None
        self._ready = False

    def setup(self) -> "AttentionSoftmax":
        """Host-side: build the exp table for the chosen variant."""
        if self.variant == "llut_i":
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

    def _require_ready(self) -> None:
        if not self._ready:
            raise ConfigurationError("call setup() before running")

    def _exp(self, ctx: CycleCounter, u) -> np.float32:
        if self.variant == "poly":
            return poly.poly_exp(ctx, u)
        return self._method.evaluate(ctx, u)

    # ------------------------------------------------------------------

    def kernel(self, ctx: CycleCounter, row) -> np.float32:
        """One full row, entirely core-local (traced).

        Returns the first probability (the whole row is written back; the
        return value only feeds the scalar/vector agreement check).
        """
        self._require_ready()
        L = self.row_len
        # Pass 1: row max (native compares).
        m = _F32(row[0])
        for j in range(1, L):
            ctx.branch()
            if ctx.fcmp(_F32(row[j]), m) > 0:
                m = _F32(row[j])
        # Pass 2: exp and row sum.
        es = []
        total = _F32(0.0)
        for j in range(L):
            d = ctx.fsub(_F32(row[j]), m)
            e = self._exp(ctx, d)
            es.append(e)
            total = ctx.fadd(total, e)
        # Pass 3: one divide for the row, then multiplies.
        inv = ctx.fdiv(_F32(1.0), total)
        return ctx.fmul(es[0], inv)

    def values(self, scores: np.ndarray) -> np.ndarray:
        """Vectorized float32 row-wise softmax."""
        self._require_ready()
        x = np.asarray(scores, dtype=_F32)
        m = x.max(axis=1, keepdims=True)
        d = (x - m).astype(_F32)
        if self.variant == "poly":
            e = poly.poly_exp_vec(d.ravel()).reshape(d.shape)
        else:
            e = self._method.evaluate_vec(d.ravel()).reshape(d.shape)
        total = e.astype(np.float64).sum(axis=1, keepdims=True)
        inv = (1.0 / total).astype(_F32)
        return (e * inv).astype(_F32)

    # ------------------------------------------------------------------

    def run(
        self,
        scores: np.ndarray,
        system: PIMSystem,
        tasklets: int = 16,
        virtual_rows: Optional[int] = None,
        shards: int = 1,
        overlap: bool = False,
    ) -> AttentionRunResult:
        """Simulate the single-launch whole-system run (rows are elements).

        ``shards > 1`` dispatches the rows across disjoint DPU groups
        (optionally ``overlap``-ped).
        """
        self._require_ready()
        res = system.run(
            self.kernel, np.asarray(scores, dtype=_F32),
            tasklets=tasklets, sample_size=8,
            bytes_in_per_element=self.row_len * 4,
            bytes_out_per_element=self.row_len * 4,
            virtual_n=virtual_rows, shards=shards, overlap=overlap,
        )
        return AttentionRunResult(run=res)
