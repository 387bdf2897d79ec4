"""LDEXP-based fuzzy lookup table (L-LUT, Section 3.2.2).

The density is constrained to a power of two, ``k = 2^n``, which turns the
M-LUT's float multiply into exponent arithmetic.  The address is obtained
with a single float *add* of a precomputed "magic" constant: adding
``C = 1.5 * 2^(23-n) - p`` forces the float32 rounding point to the ``2^-n``
grid, after which the low mantissa bits of the sum *are* the table index.
This is the multiply-free address generation that gives L-LUT its ~5x win
over M-LUT in Figure 5 (the magic constant is the ldexp-family bit trick;
its value is exactly ``round((x - p) * 2^n)``).

For tables too dense for the trick's mantissa headroom (more than ~2^22
entries, used only by extreme non-interpolated accuracy points), the address
falls back to an explicit ``ldexp`` plus rounding, still multiply-free.

Fixed-point variants (s3.28, the paper's format) do the same arithmetic on
raw integer words: the interpolation multiply becomes an emulated integer
multiply, roughly 3x cheaper than the softfloat one — the mechanism behind
the paper's fixed-vs-float observations.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.batch.keys import (
    clamp_index,
    f2fx_word_vec,
    ffloor_vec,
    fround_index,
    pack_fields,
)
from repro.core.functions.registry import FunctionSpec
from repro.core.ldexp import ldexpf_vec
from repro.core.lut.base import FuzzyLUT, build_table
from repro.errors import ConfigurationError
from repro.fixedpoint import Q3_28, fx_mul, fx_mul_vec
from repro.isa.counter import CycleCounter

__all__ = ["LLUT", "LLUTInterpolated", "LLUTFixed", "LLUTInterpolatedFixed"]

_F32 = np.float32
_MASK22 = (1 << 22) - 1


class _LLUTGeometry:
    """Shared power-of-two grid geometry for all L-LUT variants."""

    def __init__(self, spec: FunctionSpec, density_log2: int,
                 interval: Optional[Tuple[float, float]]):
        self.n = int(density_log2)
        lo, hi = interval if interval is not None else spec.natural_range
        if not hi > lo:
            raise ConfigurationError("L-LUT interval must be non-degenerate")
        self.lo, self.hi = float(lo), float(hi)
        # Origin snapped onto the 2^-n grid so that grid points (and the
        # magic constant) are exactly representable.
        self.p = math.floor(self.lo * 2.0 ** self.n) / 2.0 ** self.n
        self.step = 2.0 ** (-self.n)
        #: +2: one entry for the right endpoint, one interpolation guard.
        self.entries = int(math.ceil((self.hi - self.p) * 2.0 ** self.n)) + 2
        # Magic-add validity: the scaled offset must fit below the rounding
        # point's mantissa headroom (2^22 grid steps).
        self.magic_ok = (self.hi - self.p) < 2.0 ** (22 - self.n)
        if self.magic_ok:
            magic = 1.5 * 2.0 ** (23 - self.n)
            self.magic = _F32(magic)
            self.c = _F32(magic - self.p)  # exact: p is on the 2^-n grid
            # Integer guards: the trick is only valid while the sum stays in
            # the magic constant's binade.  Inputs below p drop a binade
            # (clamp to index 0); inputs far above hi overflow it (clamp
            # high).  IEEE floats of one sign order like their bit patterns,
            # so both guards are single native integer compares.
            from repro.core.float_bits import float_to_bits
            self.lo_bits = int(float_to_bits(self.magic))
            self.hi_bits = int(float_to_bits(_F32(2.0 * magic)))

    def a_inv(self, i: np.ndarray) -> np.ndarray:
        """Exact preimage of address ``i`` (host side, float64)."""
        return self.p + np.asarray(i, dtype=np.float64) * self.step


class _FloatLLUT(FuzzyLUT):
    """Power-of-two float grid shared by both float L-LUT variants."""

    def __init__(
        self,
        spec: FunctionSpec,
        density_log2: int = 10,
        interval: Optional[Tuple[float, float]] = None,
        **kwargs,
    ):
        super().__init__(spec, **kwargs)
        self.geom = _LLUTGeometry(spec, density_log2, interval)

    def _build(self) -> None:
        self._table = build_table(
            self.spec.reference, self.geom.a_inv, self.geom.entries
        )

    def planned_table_bytes(self) -> int:
        return self.geom.entries * self.ENTRY_BYTES


class LLUT(_FloatLLUT):
    """Non-interpolated L-LUT: zero float multiplies per lookup."""

    method_name = "llut"
    interpolated = False

    def core_eval(self, ctx: CycleCounter, u):
        g = self.geom
        if g.magic_ok:
            t = ctx.fadd(u, g.c)
            bits = ctx.bitcast_f2i(t)
            if bits & 0x80000000:  # lint: allow(signed view of the register, free)
                bits -= 1 << 32  # lint: allow(signed view, free on hardware)
            if ctx.icmp(bits, g.lo_bits) < 0:      # u below p: binade drop
                ctx.branch()
                bits = g.lo_bits
            if ctx.icmp(bits, g.hi_bits) >= 0:     # far above hi: overflow
                ctx.branch()
                bits = g.hi_bits - 1
            idx = ctx.iand(bits, _MASK22)
        else:
            v = ctx.fsub(u, _F32(g.p)) if g.p != 0 else u
            w = ctx.ldexp(v, g.n)
            idx = ctx.fround(w)
        idx = self._clamp_index(ctx, idx, self.entries - 1)
        return self._load(ctx, self._table, idx)

    def core_vec(self, u, keys):
        g = self.geom
        u = np.asarray(u, dtype=_F32)
        fields = []
        if g.magic_ok:
            bits = (u + g.c).view(np.int32).astype(np.int64)   # signed view
            idx, zone = clamp_index(
                np.clip(bits, g.lo_bits, g.hi_bits - 1) & _MASK22,
                self.entries - 1, keys)
            if keys:
                b_lo = bits < g.lo_bits
                fields = [(b_lo, 1), (~b_lo & (bits >= g.hi_bits), 1)]
        else:
            v = u if g.p == 0 else u - _F32(g.p)
            idx, zone = fround_index(ldexpf_vec(v, g.n), self.entries - 1,
                                     keys)
        key = pack_fields(fields + [(zone, 2)]) if keys else None
        return self._table[idx], key


class LLUTInterpolated(_FloatLLUT):
    """Interpolated L-LUT: one float multiply per lookup (the interpolation).

    The grid value is reconstructed exactly from the magic sum
    (``g = t - C``, exact by Sterbenz), giving the interpolation weight with
    two subtracts and one ``ldexp`` — no address multiply.
    """

    method_name = "llut_i"
    interpolated = True

    def core_eval(self, ctx: CycleCounter, u):
        g = self.geom
        if g.magic_ok:
            t = ctx.fadd(u, g.c)
            bits = ctx.bitcast_f2i(t)
            if bits & 0x80000000:  # lint: allow(signed view of the register, free)
                bits -= 1 << 32  # lint: allow(signed view, free on hardware)
            if ctx.icmp(bits, g.lo_bits) < 0:      # u below p: binade drop
                ctx.branch()
                bits = g.lo_bits
                t = ctx.bitcast_i2f(bits)
                u = _F32(g.p)  # register move: interpolate from the left edge
            if ctx.icmp(bits, g.hi_bits) >= 0:     # far above hi: overflow
                ctx.branch()
                bits = g.hi_bits - 1
                t = ctx.bitcast_i2f(bits)
            idx = ctx.iand(bits, _MASK22)
            grid = ctx.fsub(t, g.c)       # exact: p + idx * 2^-n
            d = ctx.fsub(u, grid)         # in [-h/2, h/2] when in range
            delta = ctx.ldexp(d, g.n)     # in [-0.5, 0.5]
            if ctx.fcmp(delta, _F32(0.0)) < 0:
                ctx.branch()
                idx = ctx.isub(idx, 1)
                delta = ctx.fadd(delta, _F32(1.0))
            if ctx.fcmp(delta, _F32(1.0)) > 0:     # clamped out-of-range input
                ctx.branch()
                delta = _F32(1.0)
        else:
            v = ctx.fsub(u, _F32(g.p)) if g.p != 0 else u
            w = ctx.ldexp(v, g.n)
            idx = ctx.ffloor(w)
            fi = ctx.i2f(idx)
            delta = ctx.fsub(w, fi)
        idx = self._clamp_index(ctx, idx, self.entries - 2)
        l0 = self._load(ctx, self._table, idx)
        l1 = self._load(ctx, self._table, ctx.iadd(idx, 1))
        diff = ctx.fsub(l1, l0)
        prod = ctx.fmul(diff, delta)
        return ctx.fadd(l0, prod)

    def core_vec(self, u, keys):
        g = self.geom
        u = np.asarray(u, dtype=_F32)
        fields = []
        if g.magic_ok:
            bits0 = (u + g.c).view(np.int32).astype(np.int64)   # signed view
            b_lo = bits0 < g.lo_bits
            bits = np.clip(bits0, g.lo_bits, g.hi_bits - 1)
            grid = bits.astype(np.uint32).view(_F32) - g.c   # p + idx * 2^-n
            # Below p the traced kernel interpolates from the left edge.
            delta = ldexpf_vec(np.where(b_lo, _F32(g.p), u) - grid, g.n)
            neg = delta < 0            # fcmp(delta, 0) < 0: NaN is not-neg
            idx = (bits & _MASK22) - neg
            delta = np.where(neg, delta + _F32(1.0), delta)
            if keys:
                # fcmp(delta, 1) > 0: NaN is not-gt
                fields = [(b_lo, 1), (~b_lo & (bits0 >= g.hi_bits), 1),
                          (neg, 1), (delta > _F32(1.0), 1)]
            delta = np.minimum(delta, _F32(1.0))
        else:
            v = u if g.p == 0 else u - _F32(g.p)
            w = ldexpf_vec(v, g.n)
            idx = ffloor_vec(w)
            delta = w - idx.astype(_F32)   # against the unclamped floor
        idx, zone = clamp_index(idx, self.entries - 2, keys)
        key = pack_fields(fields + [(zone, 2)]) if keys else None
        return self._interpolate_vec(idx, delta), key


class _FixedGeometry:
    """s3.28 grid geometry shared by the fixed-point L-LUT variants."""

    def __init__(self, spec: FunctionSpec, density_log2: int,
                 interval: Optional[Tuple[float, float]]):
        self.fmt = Q3_28
        self.n = int(density_log2)
        if not 0 <= self.n <= self.fmt.frac_bits:
            raise ConfigurationError(
                f"fixed-point L-LUT density_log2 must be in "
                f"[0, {self.fmt.frac_bits}], got {self.n}"
            )
        lo, hi = interval if interval is not None else spec.natural_range
        if not hi > lo:
            raise ConfigurationError("L-LUT interval must be non-degenerate")
        # hi is an open bound: an interval ending exactly at the format
        # limit (e.g. tanh's [0, 8)) is fine; the last raw word saturates.
        if not (self.fmt.representable(lo)
                and hi <= self.fmt.max_value + self.fmt.resolution):
            raise ConfigurationError(
                f"interval [{lo}, {hi}] exceeds the {self.fmt} range"
            )
        self.lo, self.hi = float(lo), float(hi)
        #: Sub-grid shift: raw words carry 28 fraction bits, the grid 2^-n.
        self.shift = self.fmt.frac_bits - self.n
        raw_lo = int(round(self.lo * self.fmt.scale))
        self.p_raw = (raw_lo >> self.shift) << self.shift  # grid-aligned
        raw_hi = min(int(round(self.hi * self.fmt.scale)), self.fmt.max_raw)
        self.entries = ((raw_hi - self.p_raw) >> self.shift) + 2

    def a_inv(self, i: np.ndarray) -> np.ndarray:
        i = np.asarray(i, dtype=np.float64)
        return (self.p_raw + i * (1 << self.shift)) / self.fmt.scale


class _FixedLLUT(FuzzyLUT):
    """s3.28 grid shared by both fixed-point L-LUT variants.

    Subclasses give ``_raw_vec(a, keys)``: the array pass of their
    ``core_eval_raw`` over int64 raw words, as (raw outputs, zone keys).
    """

    fixed_point = True

    def __init__(
        self,
        spec: FunctionSpec,
        density_log2: int = 10,
        interval: Optional[Tuple[float, float]] = None,
        **kwargs,
    ):
        super().__init__(spec, **kwargs)
        self.geom = _FixedGeometry(spec, density_log2, interval)

    def _build(self) -> None:
        self._table = build_table(
            self.spec.reference, self.geom.a_inv,
            self.geom.entries, self.geom.fmt.frac_bits,
        )

    def planned_table_bytes(self) -> int:
        return self.geom.entries * self.ENTRY_BYTES

    def core_eval_raw_vec(self, a: np.ndarray) -> np.ndarray:
        """Vectorized twin of ``core_eval_raw`` (raw words in and out)."""
        return self._raw_vec(np.asarray(a, dtype=np.int64), False)[0]

    def core_vec(self, u, keys):
        g = self.geom
        yfx, zone = self._raw_vec(f2fx_word_vec(u, g.fmt.frac_bits), keys)
        return (yfx / g.fmt.scale).astype(_F32), zone


class LLUTFixed(_FixedLLUT):
    """Non-interpolated fixed-point L-LUT (s3.28 arithmetic end to end)."""

    method_name = "llut_fx"
    interpolated = False

    def core_eval_raw(self, ctx: CycleCounter, a: int) -> int:
        """Lookup on an s3.28 raw word, returning an s3.28 raw word.

        Entry point for fully fixed-point pipelines (e.g. the fixed-point
        Blackscholes variant), which avoid the float<->fixed conversions.
        """
        g = self.geom
        r = ctx.isub(a, g.p_raw) if g.p_raw else a
        if g.shift == 0:
            idx = r
        else:
            # Round half up as floor-shift + dropped half bit.  The naive
            # `(r + half) >> shift` carry can wrap the 32-bit word when the
            # domain ends at the format limit (tanh/gelu at 8.0).
            idx = ctx.shr(r, g.shift)
            half_bit = ctx.iand(ctx.shr(r, g.shift - 1), 1)
            idx = ctx.iadd(idx, half_bit)
        idx = self._clamp_index(ctx, idx, self.entries - 1)
        return int(self._load(ctx, self._table, idx))

    def core_eval(self, ctx: CycleCounter, u):
        a = ctx.f2fx(u, self.geom.fmt.frac_bits)
        yfx = self.core_eval_raw(ctx, a)
        return ctx.fx2f(yfx, self.geom.fmt.frac_bits)

    def _raw_vec(self, a, keys):
        g = self.geom
        idx = a - g.p_raw
        if g.shift:
            # (r >> shift) + the dropped half bit, as traced, is
            # ((r >> (shift - 1)) + 1) >> 1 in int64 (no 32-bit carry).
            idx >>= g.shift - 1
            idx += 1
            idx >>= 1
        idx, zone = clamp_index(idx, self.entries - 1, keys)
        return self._table[idx].astype(np.int64), zone


class LLUTInterpolatedFixed(_FixedLLUT):
    """Interpolated fixed-point L-LUT: the one multiply is an integer multiply.

    Replacing the softfloat multiply with the (still emulated, but ~3x
    cheaper) wide integer multiply is what doubles performance over the
    float interpolated L-LUT in the paper's Figure 5.
    """

    method_name = "llut_i_fx"
    interpolated = True

    def core_eval_raw(self, ctx: CycleCounter, a: int) -> int:
        """Interpolated lookup on an s3.28 raw word (fixed in, fixed out)."""
        g = self.geom
        r = ctx.isub(a, g.p_raw) if g.p_raw else a
        idx = ctx.shr(r, g.shift)
        idx = self._clamp_index(ctx, idx, self.entries - 2)
        dbits = ctx.iand(r, (1 << g.shift) - 1)
        delta_fx = ctx.shl(dbits, g.n)  # renormalize to 28 fraction bits
        l0 = int(self._load(ctx, self._table, idx))
        l1 = int(self._load(ctx, self._table, ctx.iadd(idx, 1)))
        diff = ctx.isub(l1, l0)
        prod = fx_mul(ctx, g.fmt, diff, delta_fx)
        return ctx.iadd(l0, prod)

    def core_eval(self, ctx: CycleCounter, u):
        a = ctx.f2fx(u, self.geom.fmt.frac_bits)
        yfx = self.core_eval_raw(ctx, a)
        return ctx.fx2f(yfx, self.geom.fmt.frac_bits)

    def _raw_vec(self, a, keys):
        # The interpolation product goes through fx_mul_vec so it wraps at
        # the 32-bit word exactly like the traced fx_mul; a bare
        # ``>> frac_bits`` would diverge at word-width boundaries.
        g = self.geom
        r = a - g.p_raw
        idx, zone = clamp_index(r >> g.shift, self.entries - 2, keys)
        delta_fx = (r & ((1 << g.shift) - 1)) << g.n
        l0 = self._table[idx].astype(np.int64)
        l1 = self._table[idx + 1].astype(np.int64)
        return l0 + fx_mul_vec(g.fmt, l1 - l0, delta_fx), zone
