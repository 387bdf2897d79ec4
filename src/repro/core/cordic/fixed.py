"""Fully fixed-point circular CORDIC (extension beyond the paper).

The paper's Figure 5 CORDIC keeps the rotation vector in (software emulated)
float32, making each iteration cost two softfloat adds.  On an FP-less PIM
core nothing forces that choice: with the vector in s1.30 fixed point each
iteration is shifts and adds — native, single-slot instructions.

The catch is rounding: a bare arithmetic shift truncates toward negative
infinity and the bias accumulates over 30 iterations.  This implementation
uses rounding shifts (add half, then shift), keeping the error a zero-mean
random walk of ~2^-31 steps — the method reaches the same ~1e-9 accuracy as
the fixed-point L-LUTs at roughly 15x fewer cycles than float CORDIC.

The ablation benchmark ``bench_ablation_fixed_cordic`` quantifies this.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.batch.keys import f2fx_word_vec
from repro.core.cordic.circular import CordicCircular
from repro.core.cordic.tables import (
    CIRCULAR_ANGLE_FRAC_BITS,
    circular_angle_table,
    circular_gain,
)
from repro.errors import ConfigurationError
from repro.isa.counter import CycleCounter

__all__ = ["CordicCircularFixed"]

_F32 = np.float32
_FRAC = CIRCULAR_ANGLE_FRAC_BITS

#: Fraction bits of the fixed-point rotation vector (s1.30).
VECTOR_FRAC = 30


def _rshift_round(ctx: CycleCounter, v: int, i: int) -> int:  # lint: const(i)
    """Rounding arithmetic right shift: two native instructions."""
    if i == 0:
        return v
    half = 1 << (i - 1)
    return ctx.shr(ctx.iadd(v, half), i)


class CordicCircularFixed(CordicCircular):
    """sin/cos with the rotation vector in s1.30 fixed point."""

    method_name = "cordic_fx"
    fixed_point = True

    def __init__(self, spec, iterations: int = 24, **kwargs):
        if spec.name not in ("sin", "cos"):
            raise ConfigurationError(
                "fixed-point circular CORDIC computes sin/cos only "
                f"(tan needs an unbounded output), not {spec.name!r}"
            )
        super().__init__(spec, iterations=iterations, **kwargs)
        self._x0_raw = 0

    def _build(self) -> None:
        self._angles = circular_angle_table(self.iterations)
        self._x0_raw = int(round(
            circular_gain(self.iterations) * (1 << VECTOR_FRAC)
        ))

    # ------------------------------------------------------------------
    # traced

    def _rotate_raw(self, ctx: CycleCounter, z: int) -> Tuple[int, int]:
        """All-integer rotation; returns (cos, sin) as s1.30 raw words."""
        x = self._x0_raw
        y = 0
        for i in range(self.iterations):
            t = int(self._load(ctx, self._angles, i))
            xs = _rshift_round(ctx, x, i)
            ys = _rshift_round(ctx, y, i)
            ctx.branch()
            if ctx.icmp(z, 0) >= 0:
                x, y = ctx.isub(x, ys), ctx.iadd(y, xs)
                z = ctx.isub(z, t)
            else:
                x, y = ctx.iadd(x, ys), ctx.isub(y, xs)
                z = ctx.iadd(z, t)
        return x, y

    def core_eval(self, ctx: CycleCounter, u):
        quad, z = self._split_quadrant(ctx, u)
        c, s = self._rotate_raw(ctx, z)
        ctx.branch()  # quadrant dispatch
        if self.spec.name == "sin":
            raw = (s, c, ctx.isub(0, s), ctx.isub(0, c))[quad]
        else:  # cos
            raw = (c, ctx.isub(0, s), ctx.isub(0, c), s)[quad]
        return ctx.fx2f(raw, VECTOR_FRAC)

    # ------------------------------------------------------------------
    # array pass

    def _rotate_raw_vec(
        self, z: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(cos, sin, n_pos) of ``_rotate_raw``: s1.30 words and the
        positive-direction count the path key records."""
        x = np.full(z.shape, self._x0_raw, dtype=np.int64)
        y = np.zeros(z.shape, dtype=np.int64)
        n_pos = np.zeros(z.shape, dtype=np.int64)
        for i in range(self.iterations):
            t = int(self._angles[i])
            if i == 0:
                xs, ys = x, y
            else:
                half = 1 << (i - 1)
                xs = (x + half) >> i
                ys = (y + half) >> i
            pos = z >= 0
            n_pos += pos
            x_pos, x_neg = x - ys, x + ys
            y_pos, y_neg = y + xs, y - xs
            x = np.where(pos, x_pos, x_neg)
            y = np.where(pos, y_pos, y_neg)
            z = np.where(pos, z - t, z + t)
        return x, y, n_pos

    def core_vec(self, u, keys):
        a = f2fx_word_vec(u, _FRAC)
        quad, z = self._split_quadrant_vec(a)
        c, s, n_pos = self._rotate_raw_vec(z)
        if self.spec.name == "sin":
            raw = np.select([quad == 0, quad == 1, quad == 2, quad == 3],
                            [s, c, -s, -c])
        else:
            raw = np.select([quad == 0, quad == 1, quad == 2, quad == 3],
                            [c, -s, -c, s])
        y = (raw / float(1 << VECTOR_FRAC)).astype(_F32)
        return y, (self._circular_key(a, quad, n_pos) if keys else None)
