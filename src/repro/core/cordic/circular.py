"""Circular-mode CORDIC for sin, cos, and tan (Section 3.1, Figure 3).

The implementation follows the paper's six-step pipeline: the input angle
(already folded to ``[0, 2*pi)`` by range reduction when enabled) is
converted to s3.28 fixed point and multiplied once by ``2/pi`` so that the
two bits above the fraction *are* the quadrant and the fraction *is* the
residual angle in quarter-turn units — the quadrant split costs two bit
operations instead of float comparisons.  The rotation vector (x, y) then
iterates in float32 while the angle accumulator z iterates in fixed point
(it is only added to and compared against zero, both native integer ops).

Per-iteration cost: two ``ldexp``, two float adds, one table load, one
integer add, and a sign test — which is why CORDIC's cycle count grows
linearly with accuracy in Figure 5 while LUT methods stay flat.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.batch.keys import f2fx_word_vec, pack_fields
from repro.core.cordic import kernel
from repro.core.cordic.tables import (
    CIRCULAR_ANGLE_FRAC_BITS,
    circular_angle_table,
    circular_gain,
)
from repro.core.functions.registry import FunctionSpec
from repro.core.method import Method
from repro.errors import ConfigurationError
from repro.fixedpoint import Q3_28, fx_mul
from repro.isa.counter import CycleCounter

__all__ = ["CordicCircular"]

_F32 = np.float32
_FRAC = CIRCULAR_ANGLE_FRAC_BITS
_FRAC_MASK = (1 << _FRAC) - 1

#: 2/pi in Q3.28 raw form (used by the single quadrant-split multiply).
_TWO_OVER_PI_RAW = int(round((2.0 / math.pi) * (1 << _FRAC)))


class CordicCircular(Method):
    """CORDIC rotation mode computing sin/cos/tan of one angle."""

    method_name = "cordic"

    def __init__(self, spec: FunctionSpec, iterations: int = 24, **kwargs):
        if spec.name not in ("sin", "cos", "tan"):
            raise ConfigurationError(
                f"circular CORDIC computes sin/cos/tan, not {spec.name!r}"
            )
        super().__init__(spec, **kwargs)
        if iterations < 1:
            raise ConfigurationError("CORDIC needs at least one iteration")
        self.iterations = iterations
        self._angles = np.empty(0, dtype=np.int64)
        self._x0 = _F32(0.0)

    # ------------------------------------------------------------------
    # host side

    def _build(self) -> None:
        self._angles = circular_angle_table(self.iterations)
        self._x0 = _F32(circular_gain(self.iterations))

    def table_bytes(self) -> int:
        # Angle table (4 bytes per iteration) plus the gain and 2/pi constants.
        return self.iterations * 4 + 8

    def planned_table_bytes(self) -> int:
        # Parameter-determined (hybrids included): table_bytes needs no build.
        return self.table_bytes()

    def host_entries(self) -> int:
        return self.iterations

    # ------------------------------------------------------------------
    # PIM side, traced

    def _split_quadrant(self, ctx: CycleCounter, u) -> Tuple[int, int]:
        """One fixed multiply by 2/pi; top bits = quadrant, fraction = angle."""
        a = ctx.f2fx(u, _FRAC)
        q = fx_mul(ctx, Q3_28, a, _TWO_OVER_PI_RAW)
        quad = ctx.iand(ctx.shr(q, _FRAC), 3)
        z = ctx.iand(q, _FRAC_MASK)
        return quad, z

    def _rotate(self, ctx: CycleCounter, z: int) -> Tuple[np.float32, np.float32]:
        """Drive z (Q0.28 quarter-turns, in [0, 1)) to zero; return (cos, sin)."""
        x = self._x0
        y = _F32(0.0)
        for i in range(self.iterations):
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

    def core_eval(self, ctx: CycleCounter, u):
        quad, z = self._split_quadrant(ctx, u)
        c, s = self._rotate(ctx, z)
        ctx.branch()  # quadrant dispatch
        if self.spec.name == "sin":
            return (s, c, ctx.fneg(s), ctx.fneg(c))[quad]
        if self.spec.name == "cos":
            return (c, ctx.fneg(s), ctx.fneg(c), s)[quad]
        # tan: even quadrants give s/c, odd quadrants give -c/s.
        if quad & 1:  # lint: allow(quadrant parity bit; the dispatch branch above is charged)
            return ctx.fdiv(ctx.fneg(c), s)
        return ctx.fdiv(s, c)

    # ------------------------------------------------------------------
    # PIM side, array pass

    @staticmethod
    def _split_quadrant_vec(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(quad, z) of the 2/pi multiply on int64 f2fx words ``a``.

        quad and z read only bits 28..57 of the product, which the int64
        product keeps when it wraps (the scalar ``QFormat.wrap`` keeps
        bits 0..31 of the shift).
        """
        q = (a * np.int64(_TWO_OVER_PI_RAW)) >> np.int64(_FRAC)
        return (q >> np.int64(_FRAC)) & np.int64(3), q & np.int64(_FRAC_MASK)

    def _rotation_vec(
        self, z: np.ndarray, keys: bool
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """(cos, sin, n_pos) of the rotation from Q0.28 angle words z.

        The two rotation arms charge the same number of slots but different
        op *names* (isub on the positive arm, iadd on the negative one), so
        the counts dict depends on the direction multiset — fully captured
        by the positive-direction count n_pos (``None`` unless ``keys``).
        """
        x = np.full(z.shape, self._x0, dtype=_F32)
        y = np.zeros(z.shape, dtype=_F32)
        return kernel.rotate(x, y, z, range(self.iterations), self._angles,
                             hyperbolic=False, keys=keys)

    def _quadrant_select_vec(self, quad: np.ndarray, c: np.ndarray,
                             s: np.ndarray) -> np.ndarray:
        """The traced quadrant dispatch: pick c or s by the quadrant's
        parity, then flip the sign bit (``fneg``) where the result is
        negated; tan divides instead."""
        name = self.spec.name
        odd = (quad & 1).astype(bool)
        if name == "tan":   # s/c, -c/s, s/c, -c/s
            return np.where(odd, -c, s) / np.where(odd, s, c)
        if name == "sin":   # s, c, -s, -c
            y, negate = np.where(odd, c, s), quad & 2
        else:               # cos: c, -s, -c, s
            y, negate = np.where(odd, s, c), (quad + 1) & 2
        return (y.view(np.uint32) ^ (negate << 30).astype(np.uint32)).view(_F32)

    def _circular_key(self, a: np.ndarray, quad: np.ndarray,
                      n_pos: np.ndarray) -> Optional[np.ndarray]:
        """Core path key: tan's quadrant parity above the direction count.

        Abstains (``None``) at |raw| >= 2^35: the scalar fx_mul itself
        overflows ``QFormat.wrap`` near 2^35.65.
        """
        if bool(np.any(np.abs(a) >= 2**35)):
            return None
        if self.spec.name == "tan":
            # tan additionally pays one fneg in odd quadrants; sin/cos
            # evaluate every tuple item of the quadrant dispatch.
            parity = quad & np.int64(1)
        else:
            parity = np.zeros(quad.shape, dtype=np.int64)
        return pack_fields([(parity, 1), (n_pos, 16)])

    def core_vec(self, u, keys):
        # The scalar Q3.28 pipeline: f2fx (non-finite -> 0), then the 2/pi
        # fixed multiply.
        a = f2fx_word_vec(u, _FRAC)
        quad, z = self._split_quadrant_vec(a)
        c, s, n_pos = self._rotation_vec(z, keys)
        y = self._quadrant_select_vec(quad, c, s)
        return y, (self._circular_key(a, quad, n_pos) if keys else None)
