"""Multiplication-based fuzzy lookup table (M-LUT, Section 3.2.1).

Regular spacing between entries: ``a(x) = round((x - p) * k)`` with density
``k`` and origin ``p``.  The address generation costs one float subtract, one
float multiply, and one rounding step — the float multiply is exactly what
the L-LUT variants remove.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.batch.keys import clamp_index, ffloor_vec, fround_index
from repro.core.functions.registry import FunctionSpec
from repro.core.lut.base import FuzzyLUT, build_table
from repro.errors import ConfigurationError

__all__ = ["MLUT", "MLUTInterpolated"]

_F32 = np.float32


class _MLUTBase(FuzzyLUT):
    """Regular grid shared by both M-LUT variants: ``size`` entries span
    the interval, so the last segment ends exactly at ``hi``."""

    _MIN_SIZE = 2

    def __init__(
        self,
        spec: FunctionSpec,
        size: int = 1024,
        interval: Optional[Tuple[float, float]] = None,
        **kwargs,
    ):
        super().__init__(spec, **kwargs)
        if size < self._MIN_SIZE:
            raise ConfigurationError(
                f"{self.method_name} size must be at least {self._MIN_SIZE}")
        self.size = size
        self.lo, self.hi = interval if interval is not None else spec.natural_range
        if not self.hi > self.lo:
            raise ConfigurationError("M-LUT interval must be non-degenerate")
        # Density and origin as the PIM core will see them (float32).
        self.k = _F32((size - 1) / (self.hi - self.lo))
        self.p = _F32(self.lo)

    # ------------------------------------------------------------------
    # host side

    def _a_inv(self, i: np.ndarray) -> np.ndarray:
        """Pseudo-inverse: the exact preimage of address ``i``."""
        return float(self.p) + np.asarray(i, dtype=np.float64) / float(self.k)

    def _build(self) -> None:
        self._table = build_table(self.spec.reference, self._a_inv, self.size)

    def planned_table_bytes(self) -> int:
        return self.size * self.ENTRY_BYTES

    # ------------------------------------------------------------------
    # PIM side

    def _address_vec(self, u):
        """The table coordinate ``(u - p) * k`` (float32), as traced."""
        u = np.asarray(u, dtype=_F32)
        return (u if self.p == 0 else u - self.p) * self.k


class MLUT(_MLUTBase):
    """Non-interpolated M-LUT: one multiply per lookup."""

    method_name = "mlut"
    interpolated = False

    def core_eval(self, ctx, u):
        v = ctx.fsub(u, self.p) if self.p != 0 else u
        v = ctx.fmul(v, self.k)
        idx = ctx.fround(v)
        idx = self._clamp_index(ctx, idx, self.entries - 1)
        return self._load(ctx, self._table, idx)

    def core_vec(self, u, keys):
        idx, zone = fround_index(self._address_vec(u), self.entries - 1, keys)
        return self._table[idx], zone


class MLUTInterpolated(_MLUTBase):
    """Interpolated M-LUT: two multiplies per lookup (address + interpolation)."""

    method_name = "mlut_i"
    interpolated = True
    #: The floor address ranges over [0, size-2].
    _MIN_SIZE = 3

    def core_eval(self, ctx, u):
        v = ctx.fsub(u, self.p) if self.p != 0 else u
        v = ctx.fmul(v, self.k)
        idx = ctx.ffloor(v)
        idx = self._clamp_index(ctx, idx, self.entries - 2)
        fi = ctx.i2f(idx)
        delta = ctx.fsub(v, fi)
        l0 = self._load(ctx, self._table, idx)
        l1 = self._load(ctx, self._table, ctx.iadd(idx, 1))
        diff = ctx.fsub(l1, l0)
        prod = ctx.fmul(diff, delta)
        return ctx.fadd(l0, prod)

    def core_vec(self, u, keys):
        v = self._address_vec(u)
        idx, zone = clamp_index(ffloor_vec(v), self.entries - 2, keys)
        # The weight is taken against the clamped index, as traced.
        return self._interpolate_vec(idx, v - idx.astype(_F32)), zone
