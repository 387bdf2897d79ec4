"""Polynomial-approximation baselines (the paper's PIM baseline, Section 4.1.2).

The baseline PIM implementations of Blackscholes, Sigmoid, and Softmax do not
use TransPimLib; they compute transcendental functions with classic polynomial
methods on the PIM core:

* ``exp``: argument reduction + Taylor/Horner on ``[0, ln2)`` — one float
  multiply and add per term, the cost structure the paper contrasts with LUTs
  ("one floating-point multiplication per bit of precision");
* ``log``: mantissa split + the ``atanh`` series (odd powers);
* ``sqrt``: exponent split + Newton-Raphson iterations (one float divide each);
* ``CNDF``: the Abramowitz & Stegun 7.1.26 polynomial used by the original
  Blackscholes benchmark, which itself needs an ``exp``.

Each function exists as a traced scalar (cost-charged) and a vectorized
float32 twin.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.ldexp import ldexpf_vec
from repro.core.range_reduction import (
    ExpSplitReducer,
    LogSplitReducer,
    SqrtSplitReducer,
)
from repro.isa.counter import CycleCounter

__all__ = [
    "poly_exp",
    "poly_exp_vec",
    "poly_log",
    "poly_log_vec",
    "poly_sqrt",
    "poly_sqrt_vec",
    "poly_cndf",
    "poly_cndf_vec",
    "poly_sigmoid",
    "poly_sigmoid_vec",
]

_F32 = np.float32

#: Taylor coefficients of exp around 0, high order first (Horner), 1/k!.
_EXP_TERMS = 10
_EXP_COEFFS = [_F32(1.0 / math.factorial(k)) for k in range(_EXP_TERMS, -1, -1)]

#: atanh series: ln(m) = 2 * sum t^(2k+1) / (2k+1), t = (m-1)/(m+1) in [0, 1/3].
_LOG_ODD_TERMS = 7
_LOG_COEFFS = [_F32(1.0 / (2 * k + 1)) for k in range(_LOG_ODD_TERMS - 1, -1, -1)]

#: Abramowitz & Stegun 7.1.26 constants (as in the PARSEC Blackscholes kernel).
_AS_GAMMA = _F32(0.2316419)
_AS_COEFFS = [
    _F32(1.330274429),   # a5 (applied first in Horner)
    _F32(-1.821255978),  # a4
    _F32(1.781477937),   # a3
    _F32(-0.356563782),  # a2
    _F32(0.319381530),   # a1
]
_INV_SQRT_2PI = _F32(1.0 / math.sqrt(2.0 * math.pi))

_exp_reducer = ExpSplitReducer()
_log_reducer = LogSplitReducer()
_sqrt_reducer = SqrtSplitReducer()


# ----------------------------------------------------------------------
# exp


def _horner(ctx: CycleCounter, coeffs, x: np.float32) -> np.float32:
    acc = coeffs[0]
    for c in coeffs[1:]:
        acc = ctx.fadd(ctx.fmul(acc, x), c)
    return acc


def _horner_vec(coeffs, x: np.ndarray) -> np.ndarray:
    acc = np.full(x.shape, coeffs[0], dtype=_F32)
    for c in coeffs[1:]:
        acc = ((acc * x).astype(_F32) + c).astype(_F32)
    return acc


def poly_exp(ctx: CycleCounter, x) -> np.float32:
    """Taylor-series exp with exponent/mantissa range reduction."""
    f, k = _exp_reducer.reduce(ctx, _F32(x))
    ef = _horner(ctx, _EXP_COEFFS, f)
    return _exp_reducer.reconstruct(ctx, ef, k)


def poly_exp_vec(x: np.ndarray) -> np.ndarray:
    """Vectorized twin of :func:`poly_exp`."""
    f, k, _ = _exp_reducer.reduce_vec(np.asarray(x, dtype=_F32))
    ef = _horner_vec(_EXP_COEFFS, f)
    return _exp_reducer.reconstruct_vec(ef, k)


# ----------------------------------------------------------------------
# log


def poly_log(ctx: CycleCounter, x) -> np.float32:
    """atanh-series log with mantissa range reduction (m in [1, 2))."""
    m, e = _log_reducer.reduce(ctx, _F32(x))
    num = ctx.fsub(m, _F32(1.0))
    den = ctx.fadd(m, _F32(1.0))
    t = ctx.fdiv(num, den)
    t2 = ctx.fmul(t, t)
    series = _horner(ctx, _LOG_COEFFS, t2)
    half_log = ctx.fmul(series, t)
    log_m = ctx.ldexp(half_log, 1)
    return _log_reducer.reconstruct(ctx, log_m, e)


def poly_log_vec(x: np.ndarray) -> np.ndarray:
    """Vectorized twin of :func:`poly_log`."""
    m, e, _ = _log_reducer.reduce_vec(np.asarray(x, dtype=_F32))
    num = (m - _F32(1.0)).astype(_F32)
    den = (m + _F32(1.0)).astype(_F32)
    t = (num / den).astype(_F32)
    t2 = (t * t).astype(_F32)
    series = _horner_vec(_LOG_COEFFS, t2)
    half_log = (series * t).astype(_F32)
    log_m = ldexpf_vec(half_log, 1)
    return _log_reducer.reconstruct_vec(log_m, e)


# ----------------------------------------------------------------------
# sqrt

_SQRT_NEWTON_ITERS = 3


def poly_sqrt(ctx: CycleCounter, x) -> np.float32:
    """Newton-Raphson sqrt with exponent range reduction (m in [0.5, 2))."""
    m, e = _sqrt_reducer.reduce(ctx, _F32(x))
    # Linear initial guess y ~ 0.59 + 0.42 m, error < 6% on [0.5, 2).
    y = ctx.fadd(ctx.fmul(m, _F32(0.4173075996388651)), _F32(0.5900984548320208))
    for _ in range(_SQRT_NEWTON_ITERS):
        q = ctx.fdiv(m, y)
        s = ctx.fadd(y, q)
        y = ctx.ldexp(s, -1)
    return _sqrt_reducer.reconstruct(ctx, y, e)


def poly_sqrt_vec(x: np.ndarray) -> np.ndarray:
    """Vectorized twin of :func:`poly_sqrt`."""
    m, e, _ = _sqrt_reducer.reduce_vec(np.asarray(x, dtype=_F32))
    y = ((m * _F32(0.4173075996388651)).astype(_F32)
         + _F32(0.5900984548320208)).astype(_F32)
    for _ in range(_SQRT_NEWTON_ITERS):
        q = (m / y).astype(_F32)
        y = ldexpf_vec((y + q).astype(_F32), -1)
    return _sqrt_reducer.reconstruct_vec(y, e)


# ----------------------------------------------------------------------
# CNDF (Abramowitz & Stegun 7.1.26)


def poly_cndf(ctx: CycleCounter, x) -> np.float32:
    """Cumulative normal distribution via the A&S polynomial plus exp."""
    x = _F32(x)
    negative = ctx.fcmp(x, _F32(0.0)) < 0
    ctx.branch()
    ax = ctx.fabs(x) if negative else x
    # k = 1 / (1 + gamma * |x|)
    gk = ctx.fmul(_AS_GAMMA, ax)
    den = ctx.fadd(gk, _F32(1.0))
    k = ctx.fdiv(_F32(1.0), den)
    series = _horner(ctx, _AS_COEFFS, k)
    poly = ctx.fmul(series, k)
    # phi(|x|) = exp(-x^2/2) / sqrt(2 pi)
    x2h = ctx.ldexp(ctx.fmul(ax, ax), -1)
    ex = poly_exp(ctx, ctx.fneg(x2h))
    pdf = ctx.fmul(ex, _INV_SQRT_2PI)
    tail = ctx.fmul(pdf, poly)
    result = ctx.fsub(_F32(1.0), tail)
    if negative:
        return ctx.fsub(_F32(1.0), result)
    return result


def poly_cndf_vec(x: np.ndarray) -> np.ndarray:
    """Vectorized twin of :func:`poly_cndf`."""
    x = np.asarray(x, dtype=_F32)
    ax = np.abs(x).astype(_F32)
    gk = (_AS_GAMMA * ax).astype(_F32)
    den = (gk + _F32(1.0)).astype(_F32)
    k = (_F32(1.0) / den).astype(_F32)
    series = _horner_vec(_AS_COEFFS, k)
    poly = (series * k).astype(_F32)
    x2h = ldexpf_vec((ax * ax).astype(_F32), -1)
    ex = poly_exp_vec((-x2h).astype(_F32))
    pdf = (ex * _INV_SQRT_2PI).astype(_F32)
    tail = (pdf * poly).astype(_F32)
    result = (_F32(1.0) - tail).astype(_F32)
    flipped = (_F32(1.0) - result).astype(_F32)
    return np.where(x < 0, flipped, result).astype(_F32)


# ----------------------------------------------------------------------
# sigmoid


def poly_sigmoid(ctx: CycleCounter, x) -> np.float32:
    """Logistic sigmoid via the polynomial exp: 1 / (1 + e^-x)."""
    ex = poly_exp(ctx, ctx.fneg(_F32(x)))
    den = ctx.fadd(ex, _F32(1.0))
    return ctx.fdiv(_F32(1.0), den)


def poly_sigmoid_vec(x: np.ndarray) -> np.ndarray:
    """Vectorized twin of :func:`poly_sigmoid`."""
    ex = poly_exp_vec((-np.asarray(x, dtype=_F32)).astype(_F32))
    den = (ex + _F32(1.0)).astype(_F32)
    return (_F32(1.0) / den).astype(_F32)
