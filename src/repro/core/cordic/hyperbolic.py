"""Hyperbolic-mode CORDIC: exp, sinh, cosh, tanh (rotation), log, sqrt
(vectoring).

Rotation mode drives the fixed-point angle accumulator to zero and leaves
``(cosh z, sinh z)`` in the float rotation vector; exp is their sum.
Vectoring mode drives the y component to zero: with ``x0 = w+1, y0 = w-1``
the accumulated angle is ``atanh((w-1)/(w+1)) = ln(w)/2``; with
``x0 = w+0.25, y0 = w-0.25`` the final x is ``sqrt(w)`` up to the constant
gain.  Convergence requires ``|z| <= ~1.118`` (with the repeated iterations
4, 13, 40, ...), which the natural ranges guarantee: exp residuals live in
``[0, ln2)``, log mantissas in ``[1, 2)``, sqrt mantissas in ``[0.5, 2)``.

sinh/cosh/tanh beyond the convergence bound fall back to their exp
identities (``sinh x = (e^x - e^-x)/2``, ``tanh x = 1 - 2/(e^2x + 1)``),
which costs one float divide — part of why hyperbolic functions are more
expensive than sine in Section 4.2.4.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from repro.batch.keys import f2fx_word_vec, pack_fields
from repro.core.cordic import kernel
from repro.core.cordic.tables import (
    HYPERBOLIC_ANGLE_FRAC_BITS,
    hyperbolic_angle_table,
    hyperbolic_gain,
    hyperbolic_schedule,
)
from repro.core.functions.registry import FunctionSpec
from repro.core.ldexp import ldexpf_vec
from repro.core.method import Method
from repro.core.range_reduction import ExpSplitReducer
from repro.errors import ConfigurationError
from repro.isa.counter import CycleCounter

__all__ = ["CordicHyperbolic", "ROTATION_BOUND"]

_F32 = np.float32
_FRAC = HYPERBOLIC_ANGLE_FRAC_BITS

#: Largest |z| the rotation converges for (sum of the angle table).
ROTATION_BOUND = 1.1181

_ROTATION_FUNCS = ("exp", "sinh", "cosh", "tanh")
_VECTORING_FUNCS = ("log", "log2", "log10", "sqrt")


class CordicHyperbolic(Method):
    """Hyperbolic CORDIC bound to one of exp/sinh/cosh/tanh/log/sqrt."""

    method_name = "cordic"

    def __init__(self, spec: FunctionSpec, iterations: int = 24, **kwargs):
        if spec.name not in _ROTATION_FUNCS + _VECTORING_FUNCS:
            raise ConfigurationError(
                f"hyperbolic CORDIC does not compute {spec.name!r}"
            )
        super().__init__(spec, **kwargs)
        if iterations < 1:
            raise ConfigurationError("CORDIC needs at least one iteration")
        self.iterations = iterations
        self._schedule: List[int] = []
        self._angles = np.empty(0, dtype=np.int64)
        self._gain = _F32(0.0)
        self._inv_gain = _F32(0.0)
        # Base conversion for log2/log10: log_b(m) = ln(m) * log_b(e).
        self._log_scale = {
            "log2": _F32(1.0 / math.log(2.0)),
            "log10": _F32(1.0 / math.log(10.0)),
        }.get(spec.name)
        # exp-identity fallbacks for large sinh/cosh/tanh arguments.
        self._exp_reducer = ExpSplitReducer()

    # ------------------------------------------------------------------
    # host side

    def _build(self) -> None:
        self._schedule = hyperbolic_schedule(self.iterations)
        self._angles = hyperbolic_angle_table(self._schedule)
        # Hyperbolic iterations *shrink* the vector by P = prod sqrt(1-2^-2i)
        # (unlike circular ones, which stretch it), so the rotation starts at
        # 1/P to land exactly on (cosh, sinh).
        self._gain = _F32(hyperbolic_gain(self._schedule))
        self._inv_gain = _F32(1.0 / hyperbolic_gain(self._schedule))

    def table_bytes(self) -> int:
        return self.iterations * 4 + 8

    def planned_table_bytes(self) -> int:
        return self.table_bytes()

    def host_entries(self) -> int:
        return self.iterations

    # ------------------------------------------------------------------
    # traced rotation / vectoring cores

    def _rotate(self, ctx: CycleCounter, z: int) -> Tuple[np.float32, np.float32]:
        """Drive z (Q1.30 radians) to zero; return (cosh, sinh)."""
        x = self._inv_gain
        y = _F32(0.0)
        for j, i in enumerate(self._schedule):
            t = int(self._load(ctx, self._angles, j))
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

    def _vectoring(
        self, ctx: CycleCounter, x: np.float32, y: np.float32
    ) -> Tuple[np.float32, int]:
        """Drive y to zero; return (final x, accumulated angle raw Q1.30)."""
        z = 0
        for j, i in enumerate(self._schedule):
            t = int(self._load(ctx, self._angles, j))
            xs = ctx.ldexp(x, -i)
            ys = ctx.ldexp(y, -i)
            ctx.branch()
            if ctx.fcmp(y, _F32(0.0)) >= 0:
                # d = -1: shrink y
                x, y = ctx.fsub(x, ys), ctx.fsub(y, xs)
                z = ctx.iadd(z, t)
            else:
                x, y = ctx.fadd(x, ys), ctx.fadd(y, xs)
                z = ctx.isub(z, t)
        return x, z

    def _exp_core(self, ctx: CycleCounter, f: np.float32) -> np.float32:
        """e^f for f in [0, ln2) via one rotation."""
        z = ctx.f2fx(f, _FRAC)
        c, s = self._rotate(ctx, z)
        return ctx.fadd(c, s)

    def _exp_full(self, ctx: CycleCounter, v: np.float32) -> np.float32:
        """e^v for arbitrary v >= 0 (inline exp_split + rotation)."""
        f, k = self._exp_reducer.reduce(ctx, v)
        ef = self._exp_core(ctx, f)
        return ctx.ldexp(ef, int(k))

    # ------------------------------------------------------------------
    # traced per-function dispatch (u is the range-reduced input)

    def core_eval(self, ctx: CycleCounter, u):
        name = self.spec.name
        if name == "exp":
            return self._exp_core(ctx, u)

        if name in ("log", "log2", "log10"):
            x0 = ctx.fadd(u, _F32(1.0))
            y0 = ctx.fsub(u, _F32(1.0))
            _, z = self._vectoring(ctx, x0, y0)
            z2 = ctx.shl(z, 1)  # ln(u) = 2 * atanh((u-1)/(u+1))
            ln = ctx.fx2f(z2, _FRAC)
            if self._log_scale is None:
                return ln
            return ctx.fmul(ln, self._log_scale)

        if name == "sqrt":
            x0 = ctx.fadd(u, _F32(0.25))
            y0 = ctx.fsub(u, _F32(0.25))
            x, _ = self._vectoring(ctx, x0, y0)
            # Vectoring also shrank the magnitude by P; undo it.
            return ctx.fmul(x, self._inv_gain)

        # sinh / cosh / tanh on u = |x| (the reducer handled the sign).
        ctx.branch()
        if ctx.fcmp(u, _F32(ROTATION_BOUND)) <= 0:
            z = ctx.f2fx(u, _FRAC)
            c, s = self._rotate(ctx, z)
            if name == "sinh":
                return s
            if name == "cosh":
                return c
            return ctx.fdiv(s, c)  # tanh

        if name == "tanh":
            # tanh u = 1 - 2 / (e^(2u) + 1)
            v = ctx.ldexp(u, 1)
            e2u = self._exp_full(ctx, v)
            den = ctx.fadd(e2u, _F32(1.0))
            frac = ctx.fdiv(_F32(2.0), den)
            return ctx.fsub(_F32(1.0), frac)

        # sinh / cosh via e^u and its reciprocal.
        eu = self._exp_full(ctx, u)
        einv = ctx.fdiv(_F32(1.0), eu)
        if name == "sinh":
            d = ctx.fsub(eu, einv)
        else:
            d = ctx.fadd(eu, einv)
        return ctx.ldexp(d, -1)

    # ------------------------------------------------------------------
    # array pass

    def _rotation_vec(
        self, z: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(cosh, sinh, n_pos) of the rotation from Q1.30 angle words z.

        n_pos decides the fadd/fsub and isub/iadd totals; both arms have
        equal slot cost.
        """
        x = np.full(z.shape, self._inv_gain, dtype=_F32)
        y = np.zeros(z.shape, dtype=_F32)
        return kernel.rotate(x, y, z, self._schedule, self._angles,
                             hyperbolic=True)

    def _rotate_by_vec(
        self, w: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
        """(cosh, sinh, n_pos, classifiable) of the rotation by angles w.

        Angle words are the scalar ``f2fx(w, _FRAC)``, non-finite lanes 0.
        Words are clipped at +-2^53, which keeps every direction (the angle
        table sums to under 2^31) but not the top bits a hybrid's table
        index reads, so the key abstains once a word reaches 2^52.
        """
        z = f2fx_word_vec(w, _FRAC)
        c, s, n_pos = self._rotation_vec(z)
        return c, s, n_pos, not bool(np.any(np.abs(z) >= 2**52))

    def _vectoring_pass_vec(
        self, x: np.ndarray, y: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(final x, angle word z, n_pos) of the vectoring from (x, y).

        Vectoring decides on the float y component, so the key needs the
        full float recurrence.
        """
        return kernel.vector(x, y, self._schedule, self._angles,
                             hyperbolic=True)

    def core_vec(self, u, keys):
        u = np.asarray(u, dtype=_F32)
        name = self.spec.name
        if name in ("log", "log2", "log10"):
            _, z, n_pos = self._vectoring_pass_vec(u + _F32(1.0), u - _F32(1.0))
            y = ((z << 1) / float(1 << _FRAC)).astype(_F32)
            if self._log_scale is not None:
                y = y * self._log_scale
            return y, (n_pos if keys else None)

        if name == "sqrt":
            x, _, n_pos = self._vectoring_pass_vec(u + _F32(0.25),
                                                   u - _F32(0.25))
            return x * self._inv_gain, (n_pos if keys else None)

        if name == "exp":
            c, s, n_pos, ok = self._rotate_by_vec(u)
            return c + s, (n_pos if keys and ok else None)

        # sinh/cosh/tanh: one branch picks the rotation or the exp-identity
        # fallback.  The traced fcmp(u, B) <= 0 sends NaN down the rotation
        # path — hence ~(u > B), not (u <= B).
        small = ~(u > _F32(ROTATION_BOUND))
        y = np.empty(u.shape, dtype=_F32)
        n_pos = np.zeros(u.shape, dtype=np.int64)
        below = np.zeros(u.shape, dtype=bool)
        ok = True
        if np.any(small):
            c, s, n_pos[small], ok = self._rotate_by_vec(u[small])
            y[small] = s if name == "sinh" else c if name == "cosh" else s / c
        big = ~small
        if np.any(big):
            ub = u[big]
            v = ldexpf_vec(ub, 1) if name == "tanh" else ub
            f, k, below[big] = self._exp_reducer.reduce_vec(v, keys=True)
            c, s, n_pos[big], ok_big = self._rotate_by_vec(f)
            e = ldexpf_vec(c + s, k)
            ok = ok and ok_big
            if name == "tanh":   # tanh u = 1 - 2 / (e^(2u) + 1)
                y[big] = _F32(1.0) - _F32(2.0) / (e + _F32(1.0))
            else:                # sinh / cosh via e^u and its reciprocal
                einv = _F32(1.0) / e
                y[big] = ldexpf_vec((e - einv) if name == "sinh"
                                    else (e + einv), -1)
        if not (keys and ok):
            return y, None
        return y, pack_fields([(small, 1), (below, 1), (n_pos, 16)])
