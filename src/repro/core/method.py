"""Base class shared by every TransPimLib implementation method.

A :class:`Method` splits its life in two, mirroring the host/PIM split in the
paper (Figure 1(c)):

* :meth:`setup` runs on the *host*: it generates lookup/iteration tables in
  full float64 precision (the pseudo-inverse ``a_inv`` is only ever used
  here), rounds them to the PIM storage format, and optionally places them in
  a simulated memory region (WRAM scratchpad or MRAM bank).
* :meth:`evaluate` runs on the *PIM core*: a traced scalar computation whose
  every arithmetic step charges instruction costs through a
  :class:`~repro.isa.CycleCounter`.

:meth:`array_pass` is the one array form of :meth:`evaluate`: one range
reduction and one address generation over a numpy array, returning the
bit-identical float32 values and, on request, each element's cost-path key.
:meth:`evaluate_vec` (values, e.g. bulk RMSE sweeps over 2^16 inputs) and
:meth:`classify_paths` (keys, for ``repro.batch``) are its two views, so
they cannot disagree.  Tests hold both to the scalar trace.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import ClassVar, Optional, Tuple

import numpy as np

from repro.core.functions.registry import FunctionSpec
from repro.core.range_reduction import Reducer, make_reducer
from repro.errors import ConfigurationError, SimulationError
from repro.isa.counter import CycleCounter, Tally
from repro.isa.opcosts import OpCosts, UPMEM_COSTS
from repro.pim.memory import MemoryRegion

__all__ = ["Method"]

_F32 = np.float32

_PLACEMENTS = ("wram", "mram")


class Method(ABC):
    """One implementation method bound to one target function."""

    #: Canonical method name (a key of ``METHOD_SUPPORT``).
    method_name: ClassVar[str] = "abstract"
    #: Whether the method linearly interpolates between table entries.
    interpolated: ClassVar[bool] = False
    #: Whether the PIM-side arithmetic is fixed-point.
    fixed_point: ClassVar[bool] = False

    def __init__(
        self,
        spec: FunctionSpec,
        *,
        placement: str = "mram",
        assume_in_range: bool = True,
        costs: OpCosts = UPMEM_COSTS,
    ):
        if placement not in _PLACEMENTS:
            raise ConfigurationError(
                f"placement must be one of {_PLACEMENTS}, got {placement!r}"
            )
        self.spec = spec
        self.placement = placement
        self.assume_in_range = assume_in_range
        self.costs = costs
        self.reducer: Reducer = make_reducer(spec, assume_in_range)
        self._ready = False

    # ------------------------------------------------------------------
    # host side

    @abstractmethod
    def _build(self) -> None:
        """Generate tables/constants on the host (float64, then rounded)."""

    @abstractmethod
    def table_bytes(self) -> int:
        """PIM memory consumed by this method's tables and constants."""

    @abstractmethod
    def host_entries(self) -> int:
        """Number of table entries the host generates (drives setup time)."""

    def setup(self, memory: Optional[MemoryRegion] = None) -> "Method":
        """Host-side setup; optionally reserve space in a PIM memory region.

        Placing into a region enforces the capacity constraint that caps
        non-interpolated LUT accuracy in the paper (Observation 4/Figure 7).
        A table whose :meth:`planned_table_bytes` cannot fit is refused
        before it is built, and the method stays unbuilt; one sized only by
        its build is refused after it, and the method is not ready.
        Returns ``self`` for chaining.
        """
        if memory is not None:
            planned = self.planned_table_bytes()
            if planned is not None:
                memory.check_fit(planned, self._alloc_label())
        self._build()
        if memory is not None:
            memory.allocate(self.table_bytes(), self._alloc_label())
        self._ready = True
        return self

    def planned_table_bytes(self) -> Optional[int]:
        """Predicted :meth:`table_bytes` *without* running :meth:`setup`.

        Lets sweeps skip building tables that cannot fit the target memory
        (the multi-second 2^22-entry builds dominate benchmark wall-clock).
        ``None`` means the footprint is only known after building (adaptive
        segmentation); callers must then build and check ``table_bytes()``.
        """
        if self._ready:
            return self.table_bytes()
        return None

    def set_placement(self, placement: str) -> None:
        """Retarget the tables to WRAM or MRAM (composites recurse).

        Placement only affects the traced load costs, so a built method can
        be re-pointed without rebuilding — sweeps exploit this to build each
        table once for both placement curves.
        """
        if placement not in _PLACEMENTS:
            raise ConfigurationError(
                f"placement must be one of {_PLACEMENTS}, got {placement!r}"
            )
        self.placement = placement

    def _alloc_label(self) -> str:
        return f"{self.method_name}:{self.spec.name}"

    def _require_ready(self) -> None:
        if not self._ready:
            raise SimulationError(
                f"{self._alloc_label()}: call setup() before evaluating"
            )

    # ------------------------------------------------------------------
    # PIM side

    @abstractmethod
    def core_eval(self, ctx: CycleCounter, u: np.float32) -> np.float32:
        """Traced evaluation for an input already inside the natural range."""

    @abstractmethod
    def core_vec(self, u: np.ndarray, keys: bool
                 ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Array pass of :meth:`core_eval`: (values, core path keys).

        With ``keys``, two elements share a key exactly when the traced
        ``core_eval`` takes the same branches for both — and therefore
        charges the same instruction tally.  Keys are non-negative int64
        below ``2**CORE_KEY_BITS``; a ``None`` key means the method
        abstains on this array and ``repro.batch`` traces it in the scalar
        loop.  Without ``keys`` the key is ``None``.
        """

    def evaluate(self, ctx: CycleCounter, x: float) -> np.float32:
        """Traced evaluation of one element, including range handling."""
        self._require_ready()
        u, state = self.reducer.reduce(ctx, _F32(x))
        y = self.core_eval(ctx, u)
        return self.reducer.reconstruct(ctx, y, state)

    def array_pass(self, x: np.ndarray, keys: bool = False
                   ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """One array pass of :meth:`evaluate`: (values, path keys or None).

        The reducer's pass and :meth:`core_vec` share one range reduction
        and one address generation.  With ``keys``, each key packs the
        reducer key above ``CORE_KEY_BITS`` and the core key below it; it
        is ``None`` when either layer abstains.  Keys are opaque: equal key
        means bit-identical instruction tally (the oracle harness,
        ``tests/test_oracle.py``, holds values and keys to :meth:`evaluate`).
        """
        self._require_ready()
        u, state, rkey = self.reducer.reduce_vec(
            np.asarray(x, dtype=_F32), keys)
        y, ckey = self.core_vec(u, keys)
        values = self.reducer.reconstruct_vec(y, state)
        if rkey is None or ckey is None:
            return values, None
        return values, (rkey << self.CORE_KEY_BITS) | ckey

    def evaluate_vec(self, x: np.ndarray) -> np.ndarray:
        """Vectorized evaluation of an array, including range handling."""
        return self.array_pass(x)[0]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Convenience: set up on first use, then evaluate vectorized."""
        if not self._ready:
            self.setup()
        return self.evaluate_vec(x)

    # ------------------------------------------------------------------
    # cost-path classification (the contract behind repro.batch)

    #: Core path keys must fit below this bit position; the reducer key is
    #: packed above it.
    CORE_KEY_BITS: ClassVar[int] = 48

    def classify_paths(self, x: np.ndarray) -> Optional[np.ndarray]:
        """Cost-path key of :meth:`evaluate` per element (``None``: abstain)."""
        return self.array_pass(x, keys=True)[1]

    # ------------------------------------------------------------------
    # measurement helpers

    def element_tally(self, x: float) -> Tally:
        """Instruction tally for evaluating one element (no streaming costs)."""
        ctx = CycleCounter(self.costs)
        self.evaluate(ctx, x)
        return ctx.reset()

    def mean_slots(self, xs: np.ndarray) -> float:
        """Average per-element instruction slots over a sample of inputs.

        Uses the launch evaluator (one keyed array pass, then one scalar
        trace per distinct cost path) and falls back to tracing every
        element where the method abstains.  Both give the same result bit
        for bit.
        """
        from repro.batch import VecEvaluator, scalar_tally
        xs = np.asarray(xs, dtype=_F32).ravel()
        if xs.size == 0:
            raise ConfigurationError("mean_slots needs at least one input")
        fused = VecEvaluator(self).run(xs)
        result = fused.batch if fused is not None else scalar_tally(self, xs)
        return result.tally.slots / xs.size

    # ------------------------------------------------------------------
    # traced table access honoring placement

    def _load(self, ctx: CycleCounter, table: np.ndarray, index: int):
        """Load one table entry from the configured memory (WRAM or MRAM)."""
        if self.placement == "wram":
            return ctx.wram_read(table, index)
        return ctx.mram_read(table, index, int(table.itemsize))

    def describe(self) -> str:
        """One-line summary used by reports and examples."""
        suffix = " (interpolated)" if self.interpolated else ""
        kind = "fixed-point" if self.fixed_point else "float32"
        return (
            f"{self.method_name}{suffix} {self.spec.name} [{kind}, "
            f"{self.placement.upper()}, {self.table_bytes()} B]"
        )
