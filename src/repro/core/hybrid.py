"""CORDIC + LUT combined method (Section 3.3.2).

Following the idea the paper cites, the first ``lut_bits`` worth of CORDIC
rotation is resolved by a single table lookup: the top bits of the fixed-point
angle accumulator index a table of pre-rotated vectors (scaled so that the
*remaining* iterations' stretch factor cancels), and CORDIC continues from a
mid-sequence iteration on the residual angle.  This trades a modest table
(whose size is independent of the target accuracy, keeping setup time flat)
for the first — and most expensive to replace — iterations.

Applies to rotation-mode CORDIC only: in vectoring mode (log, sqrt) the
rotation directions depend on the data vector, so no prefix can be
precomputed from the angle alone.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.core.cordic import kernel
from repro.core.cordic.circular import CordicCircular
from repro.core.cordic.hyperbolic import ROTATION_BOUND, CordicHyperbolic
from repro.core.cordic.tables import (
    CIRCULAR_ANGLE_FRAC_BITS,
    HYPERBOLIC_ANGLE_FRAC_BITS,
    circular_angle_table,
    circular_gain,
    hyperbolic_angle_table,
    hyperbolic_gain,
    hyperbolic_schedule,
)
from repro.core.functions.registry import FunctionSpec
from repro.errors import ConfigurationError
from repro.isa.counter import CycleCounter

__all__ = ["HybridCircular", "HybridHyperbolic"]

_F32 = np.float32


def _table_split_vec(z: np.ndarray, frac_bits: int,
                     lut_bits: int) -> Tuple[np.ndarray, np.ndarray]:
    """(table index, residual angle words): the table resolves the top
    ``lut_bits`` of the angle, CORDIC the masked residual."""
    shift = frac_bits - lut_bits
    return z >> shift, z & ((1 << shift) - 1)


class HybridCircular(CordicCircular):
    """CORDIC+LUT for sin/cos/tan: a 2^lut_bits-entry table replaces the
    first ``lut_bits`` iterations of the circular rotation."""

    method_name = "cordic_lut"

    def __init__(self, spec: FunctionSpec, iterations: int = 24,
                 lut_bits: int = 6, **kwargs):
        super().__init__(spec, iterations=iterations, **kwargs)
        if not 1 <= lut_bits < iterations:
            raise ConfigurationError(
                f"lut_bits must be in [1, iterations), got {lut_bits} "
                f"with {iterations} iterations"
            )
        self.lut_bits = lut_bits
        self._xtab = np.empty(0, dtype=_F32)
        self._ytab = np.empty(0, dtype=_F32)

    def _build(self) -> None:
        frac = CIRCULAR_ANGLE_FRAC_BITS
        j = self.lut_bits
        self._angles = circular_angle_table(self.iterations)
        rest_gain = circular_gain(self.iterations - j, start=j)
        idx = np.arange(1 << j, dtype=np.float64)
        theta = idx * 2.0 ** -j * (math.pi / 2.0)  # cell left edges, radians
        self._xtab = (np.cos(theta) * rest_gain).astype(_F32)
        self._ytab = (np.sin(theta) * rest_gain).astype(_F32)

    def table_bytes(self) -> int:
        # Pre-rotated vector table + the residual angle table + constants.
        return (1 << self.lut_bits) * 8 + (self.iterations - self.lut_bits) * 4 + 8

    def host_entries(self) -> int:
        return 2 * (1 << self.lut_bits) + (self.iterations - self.lut_bits)

    def _rotate(self, ctx: CycleCounter, z: int) -> Tuple[np.float32, np.float32]:
        frac = CIRCULAR_ANGLE_FRAC_BITS
        j = self.lut_bits
        idx = ctx.shr(z, frac - j)
        z = ctx.iand(z, (1 << (frac - j)) - 1)
        x = self._load(ctx, self._xtab, idx)
        y = self._load(ctx, self._ytab, idx)
        for i in range(j, self.iterations):
            t = int(self._load(ctx, self._angles, i))
            xs = ctx.ldexp(x, -i)
            ys = ctx.ldexp(y, -i)
            ctx.branch()
            if ctx.icmp(z, 0) >= 0:
                x, y = ctx.fsub(x, ys), ctx.fadd(y, xs)
                z = ctx.isub(z, t)
            else:
                x, y = ctx.fadd(x, ys), ctx.fsub(y, xs)
                z = ctx.iadd(z, t)
        return x, y

    def _rotation_vec(
        self, z: np.ndarray, keys: bool
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        j = self.lut_bits
        idx, z = _table_split_vec(z, CIRCULAR_ANGLE_FRAC_BITS, j)
        return kernel.rotate(self._xtab[idx], self._ytab[idx], z,
                             range(j, self.iterations), self._angles[j:],
                             hyperbolic=False, keys=keys)


class HybridHyperbolic(CordicHyperbolic):
    """CORDIC+LUT for exp/sinh/cosh/tanh: the table covers the rotation's
    convergence interval [0, 1.12) at 2^-lut_bits resolution."""

    method_name = "cordic_lut"

    def __init__(self, spec: FunctionSpec, iterations: int = 24,
                 lut_bits: int = 6, **kwargs):
        if spec.name in ("log", "sqrt"):
            raise ConfigurationError(
                "CORDIC+LUT does not apply to vectoring mode (log, sqrt)"
            )
        super().__init__(spec, iterations=iterations, **kwargs)
        if lut_bits < 1:
            raise ConfigurationError("lut_bits must be at least 1")
        self.lut_bits = lut_bits
        self._xtab = np.empty(0, dtype=_F32)
        self._ytab = np.empty(0, dtype=_F32)
        self._skip = 0  # schedule positions resolved by the table

    def _build(self) -> None:
        j = self.lut_bits
        full = hyperbolic_schedule(self.iterations + 64)
        # Skip schedule positions whose rotation the table already resolves:
        # the residual angle is below 2^-j, so start at index i ~ j.
        skip = next(pos for pos, i in enumerate(full) if i >= j)
        self._schedule = hyperbolic_schedule(self.iterations + skip)[skip:]
        self._skip = skip
        self._angles = hyperbolic_angle_table(self._schedule)
        self._gain = _F32(hyperbolic_gain(self._schedule))
        self._inv_gain = _F32(1.0 / hyperbolic_gain(self._schedule))
        entries = int(math.ceil(ROTATION_BOUND * (1 << j))) + 1
        idx = np.arange(entries, dtype=np.float64)
        theta = idx * 2.0 ** -j
        # Pre-divide by the remaining iterations' shrink factor P.
        self._xtab = (np.cosh(theta) / float(self._gain)).astype(_F32)
        self._ytab = (np.sinh(theta) / float(self._gain)).astype(_F32)

    def table_bytes(self) -> int:
        return self._xtab.size * 8 + len(self._schedule) * 4 + 8

    def planned_table_bytes(self):
        # The trimmed schedule (and hence the footprint) is computed during
        # _build; fall back to the post-setup default.
        from repro.core.method import Method
        return Method.planned_table_bytes(self)

    def host_entries(self) -> int:
        return 2 * int(self._xtab.size) + len(self._schedule)

    def _rotate(self, ctx: CycleCounter, z: int) -> Tuple[np.float32, np.float32]:
        frac = HYPERBOLIC_ANGLE_FRAC_BITS
        j = self.lut_bits
        idx = ctx.shr(z, frac - j)
        z = ctx.iand(z, (1 << (frac - j)) - 1)
        x = self._load(ctx, self._xtab, idx)
        y = self._load(ctx, self._ytab, idx)
        for pos, i in enumerate(self._schedule):
            t = int(self._load(ctx, self._angles, pos))
            xs = ctx.ldexp(x, -i)
            ys = ctx.ldexp(y, -i)
            ctx.branch()
            if ctx.icmp(z, 0) >= 0:
                x, y = ctx.fadd(x, ys), ctx.fadd(y, xs)
                z = ctx.isub(z, t)
            else:
                x, y = ctx.fsub(x, ys), ctx.fsub(y, xs)
                z = ctx.iadd(z, t)
        return x, y

    def _rotation_vec(
        self, z: np.ndarray, keys: bool
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        # The schedule was already trimmed by ``_skip`` in _build.
        idx, z = _table_split_vec(z, HYPERBOLIC_ANGLE_FRAC_BITS, self.lut_bits)
        return kernel.rotate(self._xtab[idx], self._ytab[idx], z,
                             self._schedule, self._angles, hyperbolic=True,
                             keys=keys)
