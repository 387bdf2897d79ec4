"""Direct float-conversion fuzzy lookup table (D-LUT, Section 3.2.3).

The address *is* the float bit pattern: keeping the exponent field plus the
top ``m`` mantissa bits (one shift, one subtract) yields an index whose cell
width grows with the magnitude of the input — entries are spaced like the
float32 grid itself, dense near zero and sparse far from it.  That spacing
matches saturating activation functions (tanh, GELU, sigmoid, CNDF): steep
near zero, flat in the tails.

Its structural limitation (fixed by DL-LUT) is the gap between 0 and the
smallest covered exponent ``2^e_min``: inputs below it clamp to the first
cell.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.batch.keys import clamp_index
from repro.core.float_bits import EXP_BIAS, MANT_BITS, bits_to_float
from repro.core.functions.registry import FunctionSpec
from repro.core.ldexp import ldexpf_vec
from repro.core.lut.base import FuzzyLUT, build_table
from repro.errors import ConfigurationError
from repro.isa.counter import CycleCounter

__all__ = ["DLUT", "DLUTInterpolated"]

_F32 = np.float32


class _DLUTGeometry:
    """Exponent/mantissa-slicing geometry shared by D-LUT variants."""

    def __init__(self, spec: FunctionSpec, mant_bits: int, e_min: int,
                 e_max: Optional[int], interval: Optional[Tuple[float, float]]):
        if not 0 <= mant_bits <= MANT_BITS:
            raise ConfigurationError(
                f"mant_bits must be in [0, {MANT_BITS}], got {mant_bits}"
            )
        lo, hi = interval if interval is not None else spec.natural_range
        if e_max is None:
            e_max = int(math.ceil(math.log2(hi)))
        if e_min >= e_max:
            raise ConfigurationError("e_min must be below e_max")
        if e_min + EXP_BIAS < 1:
            raise ConfigurationError(
                f"e_min {e_min} reaches the subnormal range; minimum is "
                f"{1 - EXP_BIAS}"
            )
        self.m = int(mant_bits)
        self.e_min = int(e_min)
        self.e_max = int(e_max)
        self.shift = MANT_BITS - self.m
        self.offset = (self.e_min + EXP_BIAS) << self.m
        #: Number of lookup cells covering [2^e_min, 2^e_max).
        self.cells = (self.e_max - self.e_min) << self.m

    def edge(self, i: np.ndarray) -> np.ndarray:
        """Left edge of cell ``i`` (host side, exact)."""
        bits = ((np.asarray(i, dtype=np.int64) + self.offset) << self.shift)
        return np.asarray(
            bits_to_float(bits.astype(np.uint32)), dtype=np.float64
        )

    def center(self, i: np.ndarray) -> np.ndarray:
        """Cell midpoint — the optimal stored point for non-interpolated use."""
        i = np.asarray(i, dtype=np.int64)
        return 0.5 * (self.edge(i) + self.edge(i + 1))

    def address_vec(self, u: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(unclamped cell index, float bits) of each input, as traced."""
        bits = np.asarray(u, dtype=_F32).view(np.uint32).astype(np.int64)
        return (bits >> self.shift) - self.offset, bits


class _DirectLUT(FuzzyLUT):
    """Exponent/mantissa-slicing table shared by both D-LUT variants."""

    def __init__(
        self,
        spec: FunctionSpec,
        mant_bits: int = 8,
        e_min: int = -14,
        e_max: Optional[int] = None,
        interval: Optional[Tuple[float, float]] = None,
        **kwargs,
    ):
        super().__init__(spec, **kwargs)
        self.geom = _DLUTGeometry(spec, mant_bits, e_min, e_max, interval)


class DLUT(_DirectLUT):
    """Non-interpolated D-LUT: three integer ops per lookup, no float math."""

    method_name = "dlut"
    interpolated = False

    def _build(self) -> None:
        self._table = build_table(
            self.spec.reference, self.geom.center, self.geom.cells
        )

    def planned_table_bytes(self) -> int:
        return self.geom.cells * self.ENTRY_BYTES

    def core_eval(self, ctx: CycleCounter, u):
        g = self.geom
        bits = ctx.bitcast_f2i(u)
        sh = ctx.shr(bits, g.shift)
        idx = ctx.isub(sh, g.offset)
        idx = self._clamp_index(ctx, idx, g.cells - 1)
        return self._load(ctx, self._table, idx)

    def core_vec(self, u, keys):
        idx, zone = clamp_index(self.geom.address_vec(u)[0],
                                self.geom.cells - 1, keys)
        return self._table[idx], zone


class DLUTInterpolated(_DirectLUT):
    """Interpolated D-LUT: the interpolation weight comes from the low
    mantissa bits, so address generation still needs no float multiply."""

    method_name = "dlut_i"
    interpolated = True

    def _build(self) -> None:
        # Entries at cell edges, with one guard cell past 2^e_max.
        self._table = build_table(
            self.spec.reference, self.geom.edge, self.geom.cells + 2
        )

    def planned_table_bytes(self) -> int:
        return (self.geom.cells + 2) * self.ENTRY_BYTES

    def core_eval(self, ctx: CycleCounter, u):
        g = self.geom
        bits = ctx.bitcast_f2i(u)
        sh = ctx.shr(bits, g.shift)
        idx = ctx.isub(sh, g.offset)
        low = ctx.iand(bits, (1 << g.shift) - 1)
        li = ctx.i2f(low)
        delta = ctx.ldexp(li, -g.shift)
        idx = self._clamp_index(ctx, idx, g.cells)
        l0 = self._load(ctx, self._table, idx)
        l1 = self._load(ctx, self._table, ctx.iadd(idx, 1))
        diff = ctx.fsub(l1, l0)
        prod = ctx.fmul(diff, delta)
        return ctx.fadd(l0, prod)

    def core_vec(self, u, keys):
        g = self.geom
        idx, bits = g.address_vec(u)
        # The weight is the low mantissa bits below the cell index.
        delta = ldexpf_vec((bits & ((1 << g.shift) - 1)).astype(_F32), -g.shift)
        idx, zone = clamp_index(idx, g.cells, keys)
        return self._interpolate_vec(idx, delta), zone
