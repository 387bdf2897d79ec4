"""Combined direct-float + LDEXP fuzzy lookup table (DL-LUT, Section 3.3.1).

The DL-LUT removes the D-LUT's gap between zero and ``2^e_min`` by covering
``[0, 2^e_min)`` with a small uniform L-LUT whose density matches the first
D-LUT cell (``2^-(m - e_min)`` spacing, i.e. exactly ``2^m`` low entries),
and dispatching on one float compare per lookup.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.batch.keys import pack_fields
from repro.core.functions.registry import FunctionSpec
from repro.core.lut.base import FuzzyLUT
from repro.core.lut.dlut import DLUT, DLUTInterpolated
from repro.core.lut.llut import LLUT, LLUTInterpolated
from repro.isa.counter import CycleCounter

__all__ = ["DLLUT", "DLLUTInterpolated"]

_F32 = np.float32


class _DLLUTBase(FuzzyLUT):
    """Shared composition logic for both DL-LUT variants."""

    _LOW_CLS: type
    _HIGH_CLS: type

    def __init__(
        self,
        spec: FunctionSpec,
        mant_bits: int = 8,
        e_min: int = -14,
        e_max: Optional[int] = None,
        **kwargs,
    ):
        super().__init__(spec, **kwargs)
        # The inner parts never range-reduce themselves: the DL-LUT's own
        # reducer already normalized the input, and dispatch happens here.
        inner_kwargs = dict(kwargs)
        inner_kwargs["assume_in_range"] = True
        inner_kwargs.setdefault("placement", self.placement)
        inner_kwargs.setdefault("costs", self.costs)
        low_density = mant_bits - e_min
        self.boundary = _F32(2.0 ** e_min)
        self.low = self._LOW_CLS(
            spec,
            density_log2=low_density,
            interval=(0.0, float(self.boundary)),
            **inner_kwargs,
        )
        self.high = self._HIGH_CLS(
            spec,
            mant_bits=mant_bits,
            e_min=e_min,
            e_max=e_max,
            **inner_kwargs,
        )

    def _build(self) -> None:
        self.low.setup()
        self.high.setup()

    @property
    def entries(self) -> int:
        """Entries of both sub-tables (no combined copy is kept)."""
        return self.low.entries + self.high.entries

    def planned_table_bytes(self):
        low = self.low.planned_table_bytes()
        high = self.high.planned_table_bytes()
        if low is None or high is None:
            return None
        return low + high

    def set_placement(self, placement: str) -> None:
        super().set_placement(placement)
        self.low.set_placement(placement)
        self.high.set_placement(placement)

    def core_eval(self, ctx: CycleCounter, u):
        if ctx.fcmp(u, self.boundary) < 0:
            ctx.branch()
            return self.low.core_eval(ctx, u)
        return self.high.core_eval(ctx, u)

    def core_vec(self, u, keys):
        # Each lane runs one sub-table's pass; keys are elementwise, so a
        # pass over the low subset keys its lanes as a full pass would.
        u = np.asarray(u, dtype=_F32)
        below = u < self.boundary   # fcmp < 0: NaN dispatches high
        y, key = self.high.core_vec(u, keys)
        if np.any(below):
            y[below], low_key = self.low.core_vec(u[below], keys)
            if keys:
                key[below] = low_key
        return y, (pack_fields([(below, 1), (key, 8)]) if keys else None)


class DLLUT(_DLLUTBase):
    """Non-interpolated DL-LUT."""

    method_name = "dllut"
    interpolated = False
    _LOW_CLS = LLUT
    _HIGH_CLS = DLUT


class DLLUTInterpolated(_DLLUTBase):
    """Interpolated DL-LUT."""

    method_name = "dllut_i"
    interpolated = True
    _LOW_CLS = LLUTInterpolated
    _HIGH_CLS = DLUTInterpolated
