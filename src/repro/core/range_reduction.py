"""Range reduction and extension (Section 2.2.3, Figure 8 of the paper).

Both CORDIC and lookup tables support limited input ranges.  Each supported
function has an identity that folds an arbitrary input into the method's
*natural range* and a reconstruction that undoes the fold on the output:

* trigonometric functions: periodicity (``x mod 2*pi``);
* ``exp``: ``e^x = 2^k * e^f`` with ``f = x - k*ln2 in [0, ln2)``;
* ``log``: ``log(2^e * m) = e*ln2 + log(m)`` with ``m in [1, 2)``;
* ``sqrt``: ``sqrt(2^(2e') * m') = 2^e' * sqrt(m')`` with ``m' in [1, 4)``;
* saturating/symmetric functions (tanh, GELU, sigmoid, CNDF, sinh, cosh):
  evaluate at ``|x|`` and reconstruct via the function's symmetry.

Every reducer exists in two bit-identical forms: a *traced* scalar form that
charges PIM instruction costs through a :class:`~repro.isa.CycleCounter`
(this is what Figure 8 measures), and a float32 numpy array pass used for
bulk evaluation, which also names each element's cost path on request.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Optional, Tuple

import numpy as np

from repro.batch.keys import finite_vec
from repro.core.functions.registry import FunctionSpec
from repro.core.ldexp import frexpf_vec, ldexpf_vec
from repro.errors import ConfigurationError
from repro.isa.counter import CycleCounter

__all__ = [
    "Reducer",
    "IdentityReducer",
    "PeriodicReducer",
    "ExpSplitReducer",
    "LogSplitReducer",
    "SqrtSplitReducer",
    "RsqrtSplitReducer",
    "AtanRecipReducer",
    "EluReflectReducer",
    "OddSymmetricReducer",
    "make_reducer",
]

_F32 = np.float32

_LN2 = math.log(2.0)


class Reducer(ABC):
    """Folds inputs into a core interval and reconstructs outputs."""

    name: str = "abstract"

    @abstractmethod
    def reduce(self, ctx: CycleCounter, x: np.float32) -> Tuple[np.float32, object]:
        """Traced fold of ``x``; returns (reduced input, reconstruction state)."""

    @abstractmethod
    def reconstruct(self, ctx: CycleCounter, y: np.float32, state: object) -> np.float32:
        """Traced inverse transform applied to the core function's output."""

    @abstractmethod
    def reduce_vec(self, x: np.ndarray, keys: bool = False
                   ) -> Tuple[np.ndarray, object, Optional[np.ndarray]]:
        """Array pass of :meth:`reduce`: (reduced input, state, path key).

        With ``keys``, the key is the cost path of reduce+reconstruct for
        each element: two inputs share a key exactly when the traced
        :meth:`reduce` and :meth:`reconstruct` take the same branches for
        both, so their instruction tallies are identical (see
        ``repro.batch``).  Keys mirror the *scalar* branch semantics: a
        traced ``fcmp(a, b) >= 0`` is ``~(a < b)`` here, so NaN inputs
        classify with the branch the scalar trace actually takes.  Without
        ``keys`` the key is ``None``.
        """

    @abstractmethod
    def reconstruct_vec(self, y: np.ndarray, state: object) -> np.ndarray:
        """Vectorized twin of :meth:`reconstruct`."""


def _single_path(x: np.ndarray, keys: bool) -> Optional[np.ndarray]:
    """The key of a branch-free reduction: every element on path 0."""
    return np.zeros(np.shape(x), dtype=np.int64) if keys else None


class IdentityReducer(Reducer):
    """No reduction: inputs are assumed to lie in the natural range already.

    This is the configuration of the paper's sine microbenchmarks (inputs in
    ``[0, 2*pi]``, Section 4.2.4).
    """

    name = "none"

    def reduce(self, ctx, x):
        return _F32(x), None

    def reconstruct(self, ctx, y, state):
        return _F32(y)

    def reduce_vec(self, x, keys=False):
        return np.asarray(x, dtype=_F32), None, _single_path(x, keys)

    def reconstruct_vec(self, y, state):
        return np.asarray(y, dtype=_F32)


class PeriodicReducer(Reducer):
    """Fold into ``[0, period)`` using the function's periodicity.

    Traced cost: two float multiplies, a floor, an int-to-float conversion,
    a subtract, and a clamp — the most expensive reduction in Figure 8.
    """

    name = "periodic"

    def __init__(self, period: float):
        if period <= 0:
            raise ConfigurationError("period must be positive")
        self.period = _F32(period)
        self.inv_period = _F32(1.0 / period)

    def reduce(self, ctx, x):
        q = ctx.fmul(x, self.inv_period)
        k = ctx.ffloor(q)
        kf = ctx.i2f(k)
        whole = ctx.fmul(kf, self.period)
        u = ctx.fsub(x, whole)
        # Rounding can leave u marginally outside [0, period); clamp.
        if ctx.fcmp(u, _F32(0.0)) < 0:
            ctx.branch()
            u = ctx.fadd(u, self.period)
        if ctx.fcmp(u, self.period) >= 0:
            ctx.branch()
            u = ctx.fsub(u, self.period)
        return u, None

    def reconstruct(self, ctx, y, state):
        return _F32(y)

    def reduce_vec(self, x, keys=False):
        # Replicates the scalar trace: ffloor maps non-finite to 0 (so +-inf
        # and NaN pass the fold unchanged), and the second clamp uses
        # fcmp(u, period) >= 0, which is true for NaN.
        x = np.asarray(x, dtype=_F32)
        k = finite_vec(np.floor(x * self.inv_period))
        u = x - k * self.period
        below = u < 0
        u = np.where(below, u + self.period, u)
        above = ~(u < self.period)
        u = np.where(above, u - self.period, u)
        key = (below.astype(np.int64) << 1) | above if keys else None
        return u, None, key

    def reconstruct_vec(self, y, state):
        return np.asarray(y, dtype=_F32)


class ExpSplitReducer(Reducer):
    """``e^x = 2^k * e^f`` with ``k = floor(x / ln2)`` and ``f in [0, ln2)``."""

    name = "exp_split"

    _INV_LN2 = _F32(1.0 / _LN2)
    _LN2_F = _F32(_LN2)

    def reduce(self, ctx, x):
        q = ctx.fmul(x, self._INV_LN2)
        k = ctx.ffloor(q)
        kf = ctx.i2f(k)
        whole = ctx.fmul(kf, self._LN2_F)
        f = ctx.fsub(x, whole)
        if ctx.fcmp(f, _F32(0.0)) < 0:
            ctx.branch()
            f = ctx.fadd(f, self._LN2_F)
            k -= 1  # lint: allow(folded into the floor fixup branch on hardware)
        return f, k

    def reconstruct(self, ctx, y, state):
        return ctx.ldexp(y, int(state))

    def reduce_vec(self, x, keys=False):
        # Bit for bit on every input: the floor is guarded the way the
        # traced ffloor is (non-finite -> 0), and ``+ 0`` turns floor(-0.0)
        # into the int 0 ffloor returns, so f keeps the sign of a zero
        # input.  ldexp by |k| >= 1024 already saturates every float32 (to
        # inf or a signed zero), so clipping keeps huge and non-finite lanes
        # exact through the int32 cast.
        x = np.asarray(x, dtype=_F32)
        kf = finite_vec(np.floor(x * self._INV_LN2)) + _F32(0.0)
        f = x - kf * self._LN2_F
        below = f < 0
        f = np.where(below, f + self._LN2_F, f)
        k = np.clip(kf - below, -1024, 1024).astype(np.int32)
        return f, k, (below.astype(np.int64) if keys else None)

    def reconstruct_vec(self, y, state):
        return ldexpf_vec(np.asarray(y, dtype=_F32), state)


class LogSplitReducer(Reducer):
    """``log_b(2^e * m) = e*log_b(2) + log_b(m)`` with ``m in [1, 2)``.

    ``base`` selects the logarithm: e (default), 2, or 10.  For base 2 the
    per-element multiply by ``log_b(2) = 1`` is elided — a base-2 logarithm
    is the cheapest of the family on a PIM core.
    """

    name = "log_split"

    def __init__(self, base: float = math.e):
        if base <= 1.0:
            raise ConfigurationError("log base must exceed 1")
        self.base = float(base)
        self.log_b_2 = _F32(math.log(2.0, self.base))
        self._unit = self.log_b_2 == _F32(1.0)

    def reduce(self, ctx, x):
        m, e = ctx.frexp(x)          # m in [0.5, 1)
        m2 = ctx.ldexp(m, 1)         # m2 in [1, 2)
        return m2, e - 1  # lint: allow(exponent bias folded into frexp's field extraction)

    def reconstruct(self, ctx, y, state):
        ef = ctx.i2f(int(state))
        scaled = ef if self._unit else ctx.fmul(ef, self.log_b_2)
        return ctx.fadd(y, scaled)

    def reduce_vec(self, x, keys=False):
        # frexp/ldexp/i2f/fmul/fadd: constant cost, a single path.
        m, e = frexpf_vec(np.asarray(x, dtype=_F32))
        return ldexpf_vec(m, 1), e - 1, _single_path(m, keys)

    def reconstruct_vec(self, y, state):
        ef = state.astype(_F32)
        scaled = ef if self._unit else (ef * self.log_b_2).astype(_F32)
        return (np.asarray(y, dtype=_F32) + scaled).astype(_F32)


class SqrtSplitReducer(Reducer):
    """``sqrt(2^(2e') * m') = 2^e' * sqrt(m')`` with ``m' in [0.5, 2)``.

    The cheapest reduction in Figure 8: one frexp, a parity test, and an
    exponent adjustment — no floating-point arithmetic at all.  The core
    interval ``[0.5, 2)`` also satisfies hyperbolic-CORDIC vectoring
    convergence (``|y/x| <= 0.81``), so one reducer serves LUTs and CORDIC.
    """

    name = "sqrt_split"

    def reduce(self, ctx, x):
        m, e = ctx.frexp(x)          # m in [0.5, 1)
        parity = ctx.iand(e, 1)
        ctx.branch()
        if parity:                   # e odd:  x = 2^(e-1) * (2m),  2m in [1, 2)
            m_adj = ctx.ldexp(m, 1)
            half_e = ctx.shr(e - 1, 1)  # lint: allow(folded into the parity-bit shift)
        else:                        # e even: x = 2^e * m,         m in [0.5, 1)
            m_adj = m
            half_e = ctx.shr(e, 1)
        return m_adj, half_e

    def reconstruct(self, ctx, y, state):
        return ctx.ldexp(y, int(state))

    def reduce_vec(self, x, keys=False):
        # The odd-exponent arm pays one extra ldexp.
        m, e = frexpf_vec(np.asarray(x, dtype=_F32))
        odd = (e & 1) == 1
        m_adj = np.where(odd, ldexpf_vec(m, 1), m)
        half_e = np.where(odd, (e - 1) >> 1, e >> 1)
        return (m_adj.astype(_F32), half_e.astype(np.int32),
                odd.astype(np.int64) if keys else None)

    def reconstruct_vec(self, y, state):
        return ldexpf_vec(np.asarray(y, dtype=_F32), state)


class OddSymmetricReducer(Reducer):
    """Evaluate at ``|x|`` and reconstruct through the function's symmetry.

    ``kind`` selects the reconstruction:

    * ``"odd"``        : f(-x) = -f(x)            (sin, tan, sinh, tanh)
    * ``"even"``       : f(-x) = f(x)             (cos, cosh)
    * ``"complement"`` : f(-x) = 1 - f(x)         (sigmoid, CNDF)
    * ``"gelu"``       : f(-x) = f(x) - x         (GELU, softplus, SiLU)
    * ``"pi_minus"``   : f(-x) = pi - f(x)        (acos)
    """

    KINDS = ("odd", "even", "complement", "gelu", "pi_minus")

    name = "odd_symmetric"

    def __init__(self, kind: str):
        if kind not in self.KINDS:
            raise ConfigurationError(f"unknown symmetry kind {kind!r}")
        self.kind = kind

    def reduce(self, ctx, x):
        x = _F32(x)
        negative = ctx.fcmp(x, _F32(0.0)) < 0
        ctx.branch()
        u = ctx.fabs(x) if negative else x
        return u, (negative, x)

    def reconstruct(self, ctx, y, state):
        negative, original = state
        if not negative:
            return _F32(y)
        if self.kind == "odd":
            return ctx.fneg(y)
        if self.kind == "even":
            return _F32(y)
        if self.kind == "complement":
            return ctx.fsub(_F32(1.0), y)
        if self.kind == "pi_minus":
            return ctx.fsub(_F32(math.pi), y)
        # gelu: f(x) = f(|x|) + x for x < 0
        return ctx.fadd(y, original)

    def reduce_vec(self, x, keys=False):
        # Negative inputs pay the fabs and the symmetry reconstruction.
        x = np.asarray(x, dtype=_F32)
        negative = x < 0
        # where(negative, -x, x), not abs: the scalar path keeps -0.0 as is
        # (fcmp(-0.0, 0) compares equal, so the fabs arm never runs).
        u = np.where(negative, -x, x)
        return u, (negative, x), (negative.astype(np.int64) if keys else None)

    def reconstruct_vec(self, y, state):
        negative, original = state
        y = np.asarray(y, dtype=_F32)
        if self.kind == "odd":
            flipped = (-y).astype(_F32)
        elif self.kind == "even":
            flipped = y
        elif self.kind == "complement":
            flipped = (_F32(1.0) - y).astype(_F32)
        elif self.kind == "pi_minus":
            flipped = (_F32(math.pi) - y).astype(_F32)
        else:  # gelu
            flipped = (y + original).astype(_F32)
        return np.where(negative, flipped, y).astype(_F32)


class RsqrtSplitReducer(SqrtSplitReducer):
    """``1/sqrt(2^(2e') * m') = 2^-e' * rsqrt(m')`` with ``m' in [0.5, 2)``.

    Same split as :class:`SqrtSplitReducer`; the reconstruction negates the
    exponent (still a single ``ldexp``).
    """

    name = "rsqrt_split"

    def reconstruct(self, ctx, y, state):
        return ctx.ldexp(y, -int(state))  # lint: allow(folded into the ldexp exponent subtract)

    def reconstruct_vec(self, y, state):
        return ldexpf_vec(np.asarray(y, dtype=_F32), -state)


class AtanRecipReducer(Reducer):
    """``atan(x) = pi/2 - atan(1/x)`` for ``x > 1``, plus odd symmetry.

    The most expensive reduction in the library: inputs beyond 1 pay a float
    divide.  (CORDIC's vectoring mode computes atan for any argument
    directly and skips this reducer entirely.)
    """

    name = "atan_recip"

    _HALF_PI = _F32(math.pi / 2.0)

    def reduce(self, ctx, x):
        x = _F32(x)
        negative = ctx.fcmp(x, _F32(0.0)) < 0
        ctx.branch()
        u = ctx.fabs(x) if negative else x
        inverted = ctx.fcmp(u, _F32(1.0)) > 0
        ctx.branch()
        if inverted:
            u = ctx.fdiv(_F32(1.0), u)
        return u, (negative, inverted)

    def reconstruct(self, ctx, y, state):
        negative, inverted = state
        if inverted:
            y = ctx.fsub(self._HALF_PI, y)
        if negative:
            y = ctx.fneg(y)
        return _F32(y)

    def reduce_vec(self, x, keys=False):
        x = np.asarray(x, dtype=_F32)
        negative = x < 0
        # Sign-faithful fold (see OddSymmetricReducer.reduce_vec on -0.0).
        u = np.where(negative, -x, x)
        inverted = u > _F32(1.0)
        inv = _F32(1.0) / np.where(u == 0, _F32(1.0), u)
        u = np.where(inverted, inv, u)
        key = (negative.astype(np.int64) << 1) | inverted if keys else None
        return u, (negative, inverted), key

    def reconstruct_vec(self, y, state):
        negative, inverted = state
        y = np.asarray(y, dtype=_F32)
        y = np.where(inverted, (self._HALF_PI - y).astype(_F32), y)
        return np.where(negative, (-y).astype(_F32), y).astype(_F32)


class EluReflectReducer(Reducer):
    """ELU's piecewise split: non-negative inputs bypass the table.

    Negative inputs evaluate the table directly (the natural range is
    ``(-16, 0]``); non-negative inputs are clamped to the 0 endpoint for the
    (discarded) lookup and reconstructed as the original value — the
    branchless pattern a SIMD/tasklet kernel would use.
    """

    name = "reflect_negative"

    def reduce(self, ctx, x):
        x = _F32(x)
        negative = ctx.fcmp(x, _F32(0.0)) < 0
        ctx.branch()
        u = x if negative else _F32(0.0)
        return u, (negative, x)

    def reconstruct(self, ctx, y, state):
        negative, original = state
        return _F32(y) if negative else original

    def reduce_vec(self, x, keys=False):
        # Both arms charge the same ops; split anyway (over-splitting is safe).
        x = np.asarray(x, dtype=_F32)
        negative = x < 0
        u = np.where(negative, x, _F32(0.0))
        return u, (negative, x), (negative.astype(np.int64) if keys else None)

    def reconstruct_vec(self, y, state):
        negative, original = state
        return np.where(negative, np.asarray(y, dtype=_F32),
                        original).astype(_F32)


_SYMMETRY_KIND = {
    "sin": "odd",
    "cos": "even",
    "tan": "odd",
    "sinh": "odd",
    "cosh": "even",
    "tanh": "odd",
    "gelu": "gelu",          # f(-x) = f(x) - x
    "softplus": "gelu",      # same identity
    "silu": "gelu",          # same identity
    "sigmoid": "complement",
    "cndf": "complement",
    "atanh": "odd",
    "erf": "odd",
    "asin": "odd",
    "acos": "pi_minus",
}


def make_reducer(spec: FunctionSpec, assume_in_range: bool = False) -> Reducer:
    """Build the reducer a method should use for ``spec``.

    ``assume_in_range=True`` reproduces the microbenchmark configuration
    where inputs already lie in the natural range and reduction is skipped.
    """
    if assume_in_range or spec.extension is None:
        return IdentityReducer()
    if spec.extension == "periodic":
        return PeriodicReducer(spec.period)
    if spec.extension == "exp_split":
        return ExpSplitReducer()
    if spec.extension == "log_split":
        base = {"log": math.e, "log2": 2.0, "log10": 10.0}[spec.name]
        return LogSplitReducer(base)
    if spec.extension == "sqrt_split":
        return SqrtSplitReducer()
    if spec.extension == "rsqrt_split":
        return RsqrtSplitReducer()
    if spec.extension == "atan_recip":
        return AtanRecipReducer()
    if spec.extension == "reflect_negative":
        return EluReflectReducer()
    if spec.extension == "log_split":  # pragma: no cover - handled above
        return LogSplitReducer()
    if spec.extension == "odd_symmetric":
        return OddSymmetricReducer(_SYMMETRY_KIND[spec.name])
    raise ConfigurationError(f"unknown extension {spec.extension!r}")
