"""Blackscholes option pricing on the simulated PIM system (Section 4.1.2).

Prices a portfolio of European call options with the Black-Scholes closed
form.  Per option the kernel needs one log, one sqrt, one exp, and two
evaluations of the cumulative normal distribution (CNDF) — the functions the
paper accelerates with TransPimLib.  Variants:

* ``poly``      — the paper's PIM baseline: polynomial approximations
  (Taylor exp, atanh-series log, Newton sqrt, Abramowitz & Stegun CNDF);
* ``mlut_i``    — interpolated M-LUTs for all four functions;
* ``llut_i``    — interpolated L-LUTs (the paper's best float method);
* ``llut_i_fx`` — drop-in fixed-point interpolated L-LUTs (float glue
  arithmetic, fixed lookups), the configuration Figure 9 calls
  "Blackscholes (fixed)";
* ``fixed_full``— an extension beyond the paper: the whole kernel in s3.28
  (prices normalized by the strike so values fit the format), showing how
  much headroom a fully fixed pipeline has.

All LUT variants tabulate over the *actual* argument ranges of the kernel
(e.g. ``exp`` only ever sees ``-rT in [-1/16, 0]``), which is how a library
user would configure TransPimLib and avoids range-extension costs where the
dataset makes them unnecessary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

import numpy as np

from repro.api import make_method
from repro.errors import ConfigurationError
from repro.fixedpoint import Q3_28, fx_mul, fx_shift
from repro.isa.counter import CycleCounter
from repro.isa.opcosts import OpCosts, UPMEM_COSTS
from repro.pim.system import PIMSystem, SystemRunResult
from repro.workloads import polynomial as poly

__all__ = ["OptionBatch", "generate_options", "reference_call_prices",
           "reference_put_prices", "Blackscholes"]

_F32 = np.float32

#: Tabulation intervals chosen from the generated dataset's argument ranges.
_LOG_IV = (0.25, 4.0)  # S/K stays in [0.65, 1.55] for the dataset
_EXP_IV = (-0.0625, 1e-4)
_SQRT_IV = (0.0625, 1.0001)
_CNDF_IV = (0.0, 7.9375)  # Phi is 1.0f beyond ~5.4; 7.9375 fits s3.28

VARIANTS = ("poly", "mlut_i", "llut_i", "llut_i_fx", "fixed_full")

#: Input record layout: (spot, strike, rate, volatility, time).
RECORD_FIELDS = 5
BYTES_PER_OPTION = RECORD_FIELDS * 4


@dataclass
class OptionBatch:
    """A batch of European call options."""

    spot: np.ndarray
    strike: np.ndarray
    rate: np.ndarray
    volatility: np.ndarray
    time: np.ndarray

    @property
    def n(self) -> int:
        return int(self.spot.size)

    def records(self) -> np.ndarray:
        """Options as an (n, 5) float32 record array (the PIM input layout)."""
        return np.stack(
            [self.spot, self.strike, self.rate, self.volatility, self.time],
            axis=1,
        ).astype(_F32)


def generate_options(n: int, seed: int = 2023) -> OptionBatch:
    """PARSEC-style synthetic option portfolio (documented substitution for
    the original input files, which are not redistributable)."""
    rng = np.random.default_rng(seed)
    spot = rng.uniform(25.0, 125.0, n).astype(_F32)
    strike = (spot * rng.uniform(0.65, 1.5, n)).astype(_F32)
    rate = rng.uniform(0.01, 0.05, n).astype(_F32)
    vol = rng.uniform(0.10, 0.60, n).astype(_F32)
    time = rng.uniform(0.10, 1.00, n).astype(_F32)
    return OptionBatch(spot, strike, rate, vol, time)


def reference_call_prices(batch: OptionBatch) -> np.ndarray:
    """Ground-truth float64 call prices (the host CPU's answer)."""
    from scipy.special import erf

    s = batch.spot.astype(np.float64)
    k = batch.strike.astype(np.float64)
    r = batch.rate.astype(np.float64)
    v = batch.volatility.astype(np.float64)
    t = batch.time.astype(np.float64)
    def cndf(x):
        return 0.5 * (1.0 + erf(x / np.sqrt(2.0)))

    vsq = v * np.sqrt(t)
    d1 = (np.log(s / k) + (r + v * v / 2.0) * t) / vsq
    d2 = d1 - vsq
    return s * cndf(d1) - k * np.exp(-r * t) * cndf(d2)


def reference_put_prices(batch: OptionBatch) -> np.ndarray:
    """Ground-truth float64 put prices (via put-call parity)."""
    s = batch.spot.astype(np.float64)
    k = batch.strike.astype(np.float64)
    r = batch.rate.astype(np.float64)
    t = batch.time.astype(np.float64)
    return reference_call_prices(batch) - s + k * np.exp(-r * t)


class Blackscholes:
    """One PIM variant of the Blackscholes workload."""

    def __init__(self, variant: str = "llut_i", costs: OpCosts = UPMEM_COSTS):
        if variant not in VARIANTS:
            raise ConfigurationError(
                f"unknown Blackscholes variant {variant!r}; options: {VARIANTS}"
            )
        self.variant = variant
        self.costs = costs
        self._methods: Dict[str, object] = {}
        self._ready = False

    # ------------------------------------------------------------------
    # host-side setup

    def _lut(self, function: str, method: str, **kw):
        common = dict(assume_in_range=True, costs=self.costs)
        common.update(kw)
        return make_method(function, method, **common)

    def setup(self) -> "Blackscholes":
        """Host-side: build the variant's function tables."""
        v = self.variant
        if v == "poly":
            self._ready = True
            return self
        if v in ("mlut_i", "llut_i"):
            method = v
            size_kw = (lambda n: {"size": (1 << n) + 1}) if v == "mlut_i" \
                else (lambda n: {"density_log2": n})
            self._methods = {
                "log": self._lut("log", method, interval=_LOG_IV, **size_kw(16)),
                "exp": self._lut("exp", method, interval=_EXP_IV, **size_kw(16)),
                "sqrt": self._lut("sqrt", method, interval=_SQRT_IV, **size_kw(16)),
                "cndf": self._lut("cndf", method, interval=_CNDF_IV,
                                  assume_in_range=False, **size_kw(13)),
            }
        else:  # fixed variants share the fixed tables
            self._methods = {
                "log": self._lut("log", "llut_i_fx", interval=_LOG_IV,
                                 density_log2=16),
                "exp": self._lut("exp", "llut_i_fx", interval=_EXP_IV,
                                 density_log2=16),
                "sqrt": self._lut("sqrt", "llut_i_fx", interval=_SQRT_IV,
                                  density_log2=16),
                "cndf": self._lut("cndf", "llut_i_fx", interval=_CNDF_IV,
                                  assume_in_range=False, density_log2=13),
            }
        for m in self._methods.values():
            m.setup()
        self._ready = True
        return self

    def table_bytes(self) -> int:
        """PIM memory consumed by all four function tables."""
        return sum(m.table_bytes() for m in self._methods.values())

    def _require_ready(self) -> None:
        if not self._ready:
            raise ConfigurationError("call setup() before running Blackscholes")

    # ------------------------------------------------------------------
    # traced kernels

    def _fn(self, name: str) -> Callable:
        if self.variant == "poly":
            return {
                "log": poly.poly_log,
                "exp": poly.poly_exp,
                "sqrt": poly.poly_sqrt,
                "cndf": poly.poly_cndf,
            }[name]
        method = self._methods[name]
        return lambda ctx, x: method.evaluate(ctx, x)

    def kernel_put(self, ctx: CycleCounter, rec) -> np.float32:
        """Price one *put* option via put-call parity (traced).

        The parity conversion is three float ops on top of the call kernel —
        the discount factor is reused, so no extra transcendental work.
        """
        call = self.kernel(ctx, rec)
        s, k, r, t = _F32(rec[0]), _F32(rec[1]), _F32(rec[2]), _F32(rec[4])
        disc = self._fn("exp")(ctx, ctx.fneg(ctx.fmul(r, t))) \
            if self.variant != "fixed_full" else \
            ctx.fx2f(self._methods["exp"].core_eval_raw(
                ctx, ctx.isub(0, ctx.f2fx(ctx.fmul(r, t), 28))), 28)
        kd = ctx.fmul(k, disc)
        return ctx.fadd(ctx.fsub(call, s), kd)

    def put_prices(self, batch: OptionBatch) -> np.ndarray:
        """Vectorized float32 put prices (parity over :meth:`prices`)."""
        calls = self.prices(batch)
        s = batch.spot.astype(_F32)
        k = batch.strike.astype(_F32)
        r = batch.rate.astype(_F32)
        t = batch.time.astype(_F32)
        if self.variant == "poly":
            disc = poly.poly_exp_vec((-(r * t).astype(_F32)).astype(_F32))
        elif self.variant == "fixed_full":
            raw = np.round((-(r * t).astype(_F32)).astype(np.float64)
                           * (1 << 28)).astype(np.int64)
            disc = (self._methods["exp"].core_eval_raw_vec(raw)
                    / float(1 << 28)).astype(_F32)
        else:
            disc = self._methods["exp"].evaluate_vec(
                (-(r * t).astype(_F32)).astype(_F32))
        kd = (k * disc).astype(_F32)
        return ((calls - s).astype(_F32) + kd).astype(_F32)

    def kernel(self, ctx: CycleCounter, rec) -> np.float32:
        """Price one option (traced).  ``rec = (S, K, r, v, T)``."""
        self._require_ready()
        if self.variant == "fixed_full":
            return self._kernel_fixed(ctx, rec)
        s, k, r, v, t = (_F32(x) for x in rec)
        p_log, p_exp = self._fn("log"), self._fn("exp")
        p_sqrt, p_cndf = self._fn("sqrt"), self._fn("cndf")

        ratio = ctx.fdiv(s, k)
        lg = p_log(ctx, ratio)
        sq = p_sqrt(ctx, t)
        vsq = ctx.fmul(v, sq)
        v2h = ctx.ldexp(ctx.fmul(v, v), -1)
        drift = ctx.fadd(r, v2h)
        num = ctx.fadd(lg, ctx.fmul(drift, t))
        d1 = ctx.fdiv(num, vsq)
        d2 = ctx.fsub(d1, vsq)
        nd1 = p_cndf(ctx, d1)
        nd2 = p_cndf(ctx, d2)
        rt = ctx.fmul(r, t)
        disc = p_exp(ctx, ctx.fneg(rt))
        term1 = ctx.fmul(s, nd1)
        term2 = ctx.fmul(ctx.fmul(k, disc), nd2)
        return ctx.fsub(term1, term2)

    def _kernel_fixed(self, ctx: CycleCounter, rec) -> np.float32:
        """Fully fixed-point kernel (s3.28), prices normalized by the strike.

        ``call = K * [ (S/K) Phi(d1) - e^{-rT} Phi(d2) ]`` — the bracket and
        every intermediate fit s3.28 for the generated dataset; d1/d2 are
        saturated to the CNDF table range (where Phi is already 1 to float32).
        """
        fmt = Q3_28
        fr = fmt.frac_bits
        s, k, r, v, t = (_F32(x) for x in rec)
        logm = self._methods["log"]
        expm = self._methods["exp"]
        sqrtm = self._methods["sqrt"]
        cndfm = self._methods["cndf"]

        ratio_f = ctx.fdiv(s, k)
        ratio = ctx.f2fx(ratio_f, fr)
        rx = ctx.f2fx(r, fr)
        vx = ctx.f2fx(v, fr)
        tx = ctx.f2fx(t, fr)

        lg = logm.core_eval_raw(ctx, ratio)
        sq = sqrtm.core_eval_raw(ctx, tx)
        vsq = fx_mul(ctx, fmt, vx, sq)
        v2h = fx_shift(ctx, fmt, fx_mul(ctx, fmt, vx, vx), -1)
        drift = ctx.iadd(rx, v2h)
        num = ctx.iadd(lg, fx_mul(ctx, fmt, drift, tx))
        # Divide without the usual word-width wrap: d1 can exceed the s3.28
        # range and must *saturate* (a wrapped d1 would select the wrong CNDF
        # tail), exactly as DPU fixed-point code would clamp it.
        d1 = ctx.idiv64(ctx.shl(num, fr), vsq)
        d1 = self._saturate_fixed(ctx, d1)
        d2 = self._saturate_fixed(ctx, ctx.isub(d1, vsq))
        nd1 = cndfm.core_eval_raw(ctx, self._abs_complement(ctx, cndfm, d1))
        nd1 = self._undo_complement(ctx, nd1, d1)
        nd2 = cndfm.core_eval_raw(ctx, self._abs_complement(ctx, cndfm, d2))
        nd2 = self._undo_complement(ctx, nd2, d2)
        rt = fx_mul(ctx, fmt, rx, tx)
        disc = expm.core_eval_raw(ctx, ctx.isub(0, rt))
        bracket = ctx.isub(
            fx_mul(ctx, fmt, ratio, nd1), fx_mul(ctx, fmt, disc, nd2)
        )
        bracket_f = ctx.fx2f(bracket, fr)
        return ctx.fmul(k, bracket_f)

    _FIXED_BOUND = int(7.9 * Q3_28.scale)
    _ONE_FIXED = Q3_28.scale

    def _saturate_fixed(self, ctx: CycleCounter, raw: int) -> int:
        """Clamp an s3.28 word into +-7.9 (two compares, like DPU code would)."""
        if ctx.icmp(raw, self._FIXED_BOUND) > 0:
            ctx.branch()
            return self._FIXED_BOUND
        if ctx.icmp(raw, -self._FIXED_BOUND) < 0:
            ctx.branch()
            return -self._FIXED_BOUND
        return raw

    def _abs_complement(self, ctx: CycleCounter, method, raw: int) -> int:
        """|raw| — the fixed-point half of the CNDF complement symmetry."""
        if ctx.icmp(raw, 0) < 0:
            ctx.branch()
            return ctx.isub(0, raw)
        return raw

    def _undo_complement(self, ctx: CycleCounter, val: int, original: int) -> int:
        """Phi(-x) = 1 - Phi(x) on raw words."""
        if ctx.icmp(original, 0) < 0:
            ctx.branch()
            return ctx.isub(self._ONE_FIXED, val)
        return val

    # ------------------------------------------------------------------
    # vectorized accuracy twin

    def prices(self, batch: OptionBatch) -> np.ndarray:
        """Vectorized float32 prices for the whole batch."""
        self._require_ready()
        s = batch.spot.astype(_F32)
        k = batch.strike.astype(_F32)
        r = batch.rate.astype(_F32)
        v = batch.volatility.astype(_F32)
        t = batch.time.astype(_F32)

        if self.variant == "poly":
            f_log, f_exp = poly.poly_log_vec, poly.poly_exp_vec
            f_sqrt, f_cndf = poly.poly_sqrt_vec, poly.poly_cndf_vec
        else:
            f_log = self._methods["log"].evaluate_vec
            f_exp = self._methods["exp"].evaluate_vec
            f_sqrt = self._methods["sqrt"].evaluate_vec
            f_cndf = self._methods["cndf"].evaluate_vec

        if self.variant == "fixed_full":
            return self._prices_fixed(s, k, r, v, t)

        ratio = (s / k).astype(_F32)
        lg = f_log(ratio)
        sq = f_sqrt(t)
        vsq = (v * sq).astype(_F32)
        v2h = ((v * v).astype(_F32) * _F32(0.5)).astype(_F32)
        drift = (r + v2h).astype(_F32)
        num = (lg + (drift * t).astype(_F32)).astype(_F32)
        d1 = (num / vsq).astype(_F32)
        d2 = (d1 - vsq).astype(_F32)
        nd1 = f_cndf(d1)
        nd2 = f_cndf(d2)
        disc = f_exp((-(r * t).astype(_F32)).astype(_F32))
        term1 = (s * nd1).astype(_F32)
        term2 = ((k * disc).astype(_F32) * nd2).astype(_F32)
        return (term1 - term2).astype(_F32)

    def _prices_fixed(self, s, k, r, v, t) -> np.ndarray:
        fmt = Q3_28
        scale = fmt.scale
        def to_fx(a):
            return np.round(a.astype(np.float64) * scale).astype(np.int64)

        ratio = to_fx((s / k).astype(_F32))
        rx, vx, tx = to_fx(r), to_fx(v), to_fx(t)
        logm = self._methods["log"]
        expm = self._methods["exp"]
        sqrtm = self._methods["sqrt"]
        cndfm = self._methods["cndf"]

        lg = logm.core_eval_raw_vec(ratio)
        sq = sqrtm.core_eval_raw_vec(tx)
        def mulfx(a, b):
            return (a * b) >> fmt.frac_bits

        vsq = mulfx(vx, sq)
        v2h = mulfx(vx, vx) >> 1
        drift = rx + v2h
        num = lg + mulfx(drift, tx)
        wide = num << fmt.frac_bits
        d1 = np.where(vsq != 0, np.sign(wide) * (np.abs(wide) // np.abs(
            np.where(vsq == 0, 1, vsq))), 0)
        bound = self._FIXED_BOUND
        d1 = np.clip(d1, -bound, bound)
        d2 = np.clip(d1 - vsq, -bound, bound)

        def cndf_raw(d):
            val = cndfm.core_eval_raw_vec(np.abs(d))
            return np.where(d < 0, self._ONE_FIXED - val, val)

        nd1 = cndf_raw(d1)
        nd2 = cndf_raw(d2)
        rt = mulfx(rx, tx)
        disc = expm.core_eval_raw_vec(-rt)
        bracket = mulfx(ratio, nd1) - mulfx(disc, nd2)
        bracket_f = (bracket / scale).astype(_F32)
        return (k * bracket_f).astype(_F32)

    # ------------------------------------------------------------------
    # system run

    def run(
        self,
        batch: OptionBatch,
        system: PIMSystem,
        tasklets: int = 16,
        sample_size: int = 48,
        virtual_n: int = None,
        shards: int = 1,
        overlap: bool = False,
    ) -> SystemRunResult:
        """Simulate the whole-system run over the option batch.

        ``virtual_n`` sizes the run as if the batch were that many options
        (the batch then only feeds the traced sample).  ``shards > 1``
        dispatches across disjoint DPU groups (optionally ``overlap``-ped).
        """
        self._require_ready()
        if shards > 1:
            return system.run_sharded(
                self.kernel, batch.records(), shards=shards, overlap=overlap,
                tasklets=tasklets, sample_size=sample_size,
                bytes_in_per_element=BYTES_PER_OPTION,
                bytes_out_per_element=4,
                virtual_n=virtual_n,
            )
        return system.run(
            self.kernel,
            batch.records(),
            tasklets=tasklets,
            sample_size=sample_size,
            bytes_in_per_element=BYTES_PER_OPTION,
            bytes_out_per_element=4,
            virtual_n=virtual_n,
        )
