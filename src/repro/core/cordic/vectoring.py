"""Circular-mode CORDIC vectoring: arctangent (extension beyond the paper).

Vectoring mode drives the y component of the vector ``(1, t)`` to zero; the
fixed-point angle accumulator then holds ``atan(t)`` directly.  Convergence
covers *any* argument (the angle table's total capacity, ~1.74 rad, exceeds
``pi/2``), so unlike the LUT methods no reciprocal range reduction — and
hence no float divide — is ever needed.  Only odd symmetry is applied.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.cordic import kernel
from repro.core.cordic.tables import (
    CIRCULAR_ANGLE_FRAC_BITS,
    circular_angle_table,
)
from repro.core.functions.registry import FunctionSpec
from repro.core.method import Method
from repro.core.range_reduction import OddSymmetricReducer
from repro.errors import ConfigurationError
from repro.fixedpoint import Q3_28, fx_mul
from repro.isa.counter import CycleCounter

__all__ = ["CordicArctan"]

_F32 = np.float32
_FRAC = CIRCULAR_ANGLE_FRAC_BITS

#: pi/2 in Q3.28 raw form: converts quarter-turn angles back to radians.
_HALF_PI_RAW = int(round((math.pi / 2.0) * (1 << _FRAC)))


class CordicArctan(Method):
    """Circular vectoring CORDIC computing atan(x) for any x."""

    method_name = "cordic"

    def __init__(self, spec: FunctionSpec, iterations: int = 24, **kwargs):
        if spec.name != "atan":
            raise ConfigurationError(
                f"CordicArctan computes atan, not {spec.name!r}"
            )
        super().__init__(spec, **kwargs)
        if iterations < 1:
            raise ConfigurationError("CORDIC needs at least one iteration")
        self.iterations = iterations
        self._angles = np.empty(0, dtype=np.int64)
        # Vectoring handles the full magnitude range itself; only the sign
        # needs folding (atan is odd).  This replaces the LUT methods'
        # reciprocal reducer and its float divide.
        if not self.assume_in_range:
            self.reducer = OddSymmetricReducer("odd")

    def _build(self) -> None:
        self._angles = circular_angle_table(self.iterations)

    def table_bytes(self) -> int:
        return self.iterations * 4 + 8

    def planned_table_bytes(self) -> int:
        return self.table_bytes()

    def host_entries(self) -> int:
        return self.iterations

    # ------------------------------------------------------------------

    def _vectoring(self, ctx: CycleCounter, y: np.float32) -> int:
        """Drive (1, y) to the x axis; return the angle in Q0.28 quarter-turns."""
        x = _F32(1.0)
        z = 0
        for i in range(self.iterations):
            t = int(self._load(ctx, self._angles, i))
            xs = ctx.ldexp(x, -i)
            ys = ctx.ldexp(y, -i)
            ctx.branch()
            if ctx.fcmp(y, _F32(0.0)) >= 0:
                x, y = ctx.fadd(x, ys), ctx.fsub(y, xs)
                z = ctx.iadd(z, t)
            else:
                x, y = ctx.fsub(x, ys), ctx.fadd(y, xs)
                z = ctx.isub(z, t)
        return z

    def core_eval(self, ctx: CycleCounter, u):
        z = self._vectoring(ctx, _F32(u))
        rad = fx_mul(ctx, Q3_28, z, _HALF_PI_RAW)
        return ctx.fx2f(rad, _FRAC)

    def core_vec(self, u, keys):
        # Both arms have equal slot cost, but charge iadd vs isub — the op
        # counts depend on the direction multiset.  Directions are decided
        # on the float y component, so the key needs the float32
        # recurrence too.
        u = np.asarray(u, dtype=_F32)
        _, z, n_pos = kernel.vector(np.ones(u.shape, dtype=_F32), u,
                                    range(self.iterations), self._angles,
                                    hyperbolic=False)
        rad = (z * _HALF_PI_RAW) >> _FRAC
        return (rad / float(1 << _FRAC)).astype(_F32), (n_pos if keys else None)
